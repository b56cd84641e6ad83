#include "tvnep/commodity.hpp"

#include <algorithm>

namespace tvnep::core {

namespace {

/// Relative flow below which a substrate link counts as empty: LP values
/// carry round-off of about this size.
constexpr double kFlowEps = 1e-9;

std::vector<Commodity> group_by(const net::VnetRequest& request, bool out) {
  std::vector<Commodity> groups;
  for (int lv = 0; lv < request.num_links(); ++lv) {
    const net::VirtualLink& link = request.link(lv);
    const int key = out ? link.from : link.to;
    const bool bandwidth = link.demand >= kMinBandwidthDemand;
    const auto it = std::find_if(groups.begin(), groups.end(),
                                 [&](const Commodity& c) {
                                   return c.shared == key && c.bandwidth &&
                                          bandwidth;
                                 });
    if (it == groups.end())
      groups.push_back({key, out, bandwidth, {lv}});
    else
      it->links.push_back(lv);
  }
  return groups;
}

}  // namespace

double Commodity::amount(const net::VnetRequest& request, int lv) const {
  return bandwidth ? request.link(lv).demand : 1.0;
}

double Commodity::total(const net::VnetRequest& request) const {
  double sum = 0.0;
  for (const int lv : links) sum += amount(request, lv);
  return sum;
}

double Commodity::usage(const net::VnetRequest& request) const {
  return bandwidth ? 1.0 : request.link(links.front()).demand;
}

int Commodity::other(const net::VnetRequest& request, int lv) const {
  return out ? request.link(lv).to : request.link(lv).from;
}

std::vector<Commodity> group_commodities(const net::VnetRequest& request) {
  std::vector<Commodity> by_tail = group_by(request, true);
  std::vector<Commodity> by_head = group_by(request, false);
  return by_head.size() < by_tail.size() ? by_head : by_tail;
}

void decompose_commodity(const net::SubstrateNetwork& substrate,
                         const net::VnetRequest& request,
                         const Commodity& commodity,
                         const std::vector<int>& hosts,
                         std::vector<double> flow,
                         std::vector<double>* link_flow) {
  const int num_links = substrate.num_links();
  const int root = hosts[static_cast<std::size_t>(commodity.shared)];
  const std::size_t n = commodity.links.size();
  const auto row = [&](std::size_t i, int ls) -> double& {
    return (*link_flow)[static_cast<std::size_t>(commodity.links[i] *
                                                     num_links +
                                                 ls)];
  };

  // need[i]: flow link i still waits for; a link whose endpoints share a
  // host needs none.
  std::vector<double> need(n, 0.0), delivered(n, 0.0);
  std::vector<int> sink_host(n);
  int open = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int lv = commodity.links[i];
    sink_host[i] =
        hosts[static_cast<std::size_t>(commodity.other(request, lv))];
    for (int ls = 0; ls < num_links; ++ls) row(i, ls) = 0.0;
    if (sink_host[i] == root) continue;
    need[i] = commodity.amount(request, lv);
    ++open;
  }
  const double eps = kFlowEps * std::max(1.0, commodity.total(request));
  for (double& f : flow)
    if (!(f > eps)) f = 0.0;

  // The walk: substrate nodes from the root and the links between them.
  // depth[v] is v's position on the walk, -1 when off it.
  std::vector<int> nodes{root}, arcs;
  std::vector<int> depth(static_cast<std::size_t>(substrate.num_nodes()), -1);
  depth[static_cast<std::size_t>(root)] = 0;
  const auto unwind_to = [&](std::size_t size) {
    while (nodes.size() > size) {
      depth[static_cast<std::size_t>(nodes.back())] = -1;
      nodes.pop_back();
      arcs.pop_back();
    }
  };
  const auto take = [&](std::vector<int>::const_iterator first,
                        double amount) {
    for (auto a = first; a != arcs.end(); ++a) {
      flow[static_cast<std::size_t>(*a)] -= amount;
      if (!(flow[static_cast<std::size_t>(*a)] > eps))
        flow[static_cast<std::size_t>(*a)] = 0.0;
    }
  };

  while (open > 0) {
    const int x = nodes.back();
    std::size_t sink = n;
    for (std::size_t i = 0; i < n && sink == n; ++i)
      if (need[i] > 0.0 && sink_host[i] == x) sink = i;
    if (sink < n) {
      // A path to an endpoint still waiting: route the bottleneck.
      double amount = need[sink];
      for (const int a : arcs)
        amount = std::min(amount, flow[static_cast<std::size_t>(a)]);
      for (const int a : arcs) row(sink, a) += amount;
      take(arcs.begin(), amount);
      delivered[sink] += amount;
      need[sink] -= amount;
      if (!(need[sink] > eps)) {
        need[sink] = 0.0;
        --open;
      }
      unwind_to(1);
      continue;
    }
    int next = -1;
    for (const int a : commodity.out ? substrate.out_links(x)
                                     : substrate.in_links(x))
      if (flow[static_cast<std::size_t>(a)] > 0.0 && (next < 0 || a < next))
        next = a;
    if (next < 0) {
      if (arcs.empty()) break;  // the root has no flow left
      // A dead end is round-off the LP left behind: drop it.
      flow[static_cast<std::size_t>(arcs.back())] = 0.0;
      unwind_to(nodes.size() - 1);
      continue;
    }
    const net::SubstrateLink& link = substrate.link(next);
    const int y = commodity.out ? link.to : link.from;
    const int at = depth[static_cast<std::size_t>(y)];
    if (at >= 0) {
      // A flow cycle back to y: cancel it and continue from y.
      arcs.push_back(next);
      const auto first = arcs.begin() + at;
      double amount = flow[static_cast<std::size_t>(next)];
      for (auto a = first; a != arcs.end(); ++a)
        amount = std::min(amount, flow[static_cast<std::size_t>(*a)]);
      take(first, amount);
      arcs.pop_back();
      unwind_to(static_cast<std::size_t>(at) + 1);
      continue;
    }
    depth[static_cast<std::size_t>(y)] = static_cast<int>(nodes.size());
    nodes.push_back(y);
    arcs.push_back(next);
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!(delivered[i] > 0.0)) continue;
    for (int ls = 0; ls < num_links; ++ls)
      row(i, ls) = std::min(1.0, row(i, ls) / delivered[i]);
  }
}

}  // namespace tvnep::core
