// Aggregated flow commodities: the virtual links of one request that share
// an endpoint travel as one flow, and flow decomposition splits that flow
// back into the per-link unit flows RequestEmbedding::link_flow stores.
//
// With node mappings fixed, a single-source multi-sink flow (or its
// reverse) decomposes into paths from the shared endpoint's host to each
// other endpoint's host, and any set of per-link unit flows sums back into
// one such flow. So an LP over commodities is feasible exactly when the
// per-link LP is, with about as many commodities per request as it has
// star centres instead of links.
#pragma once

#include <vector>

#include "net/request.hpp"
#include "net/substrate.hpp"

namespace tvnep::core {

/// Demand below which a virtual link travels as a unit flow of its own:
/// in bandwidth units its flow would sink into LP round-off.
inline constexpr double kMinBandwidthDemand = 1e-6;

/// Virtual links of one request that share the endpoint `shared`: all of
/// them leave it (`out`) or all enter it. The flow runs between the
/// shared endpoint's host and the other endpoints' hosts. A bandwidth
/// commodity carries each link's demand d_l and its flow uses link
/// capacity one for one. A link with a demand below kMinBandwidthDemand
/// is a unit commodity of its own: it carries one unit, and each unit
/// uses d_l of link capacity, as in a per-link model.
struct Commodity {
  int shared = 0;
  bool out = true;
  bool bandwidth = true;
  std::vector<int> links;  // virtual link ids, ascending

  /// Flow that link `lv` of the commodity sends, in commodity units.
  double amount(const net::VnetRequest& request, int lv) const;
  /// Σ amount over `links`: the bound of every flow column.
  double total(const net::VnetRequest& request) const;
  /// Link capacity one unit of the commodity's flow uses.
  double usage(const net::VnetRequest& request) const;
  /// The endpoint of `lv` other than `shared`.
  int other(const net::VnetRequest& request, int lv) const;
};

/// Groups `request`'s bandwidth links by tail and by head and returns
/// whichever partition has fewer groups (by tail on a tie), plus one unit
/// commodity per link below kMinBandwidthDemand. Groups come in
/// ascending order of their first link, so a link that shares no
/// endpoint is a group of one in place.
std::vector<Commodity> group_commodities(const net::VnetRequest& request);

/// Splits one commodity's flow `flow` (per substrate link, commodity
/// units) into unit flows per virtual link and writes them into
/// `link_flow` ([lv * num_links + ls], the rows of other links untouched).
/// `hosts` maps the request's virtual nodes to substrate nodes. Paths are
/// walked from the shared endpoint's host along the lowest-numbered link
/// that still carries flow, so the result is deterministic; flow cycles
/// are cancelled, and each link's paths are scaled to deliver exactly 1.
/// A link whose endpoints share a host gets zero flow.
void decompose_commodity(const net::SubstrateNetwork& substrate,
                         const net::VnetRequest& request,
                         const Commodity& commodity,
                         const std::vector<int>& hosts,
                         std::vector<double> flow,
                         std::vector<double>* link_flow);

}  // namespace tvnep::core
