// Shed-mode router: the cheapest-feasible greedy variant the daemon falls
// back to when the exact greedy step would blow the latency SLO (component
// too large, solver timeout, queue aging). It prices residual node/link
// capacities over the candidate interval against the engine's stored
// commit embeddings and routes every virtual link on a single shortest
// feasible path — no MIP, no rerouting of existing flows, a few
// microseconds per attempt. Admissions it makes are feasible but not
// greedy-optimal (it may start later than the exact step would).
#pragma once

#include <optional>
#include <vector>

#include "net/substrate.hpp"
#include "serve/admission.hpp"

namespace tvnep::serve {

struct FastpathResult {
  bool accepted = false;
  double start = 0.0;
  double end = 0.0;
  /// Full embedding (node mapping + 0/1 per-path link flows); jointly
  /// feasible with the `active` commits' stored embeddings by
  /// construction, so validate_solution certifies the combined state.
  core::RequestEmbedding embedding;
};

/// Tries candidate start times (the effective earliest start, then each
/// active commit's end inside the window) in increasing order and returns
/// the first start at which every virtual node fits and every virtual
/// link routes on one path within residual capacities. `request` must
/// already carry its effective (clamped) window.
FastpathResult fastpath_route(
    const net::SubstrateNetwork& substrate, const std::vector<Commit>& active,
    const net::VnetRequest& request,
    const std::optional<std::vector<net::NodeId>>& mapping);

}  // namespace tvnep::serve
