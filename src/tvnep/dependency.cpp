#include "tvnep/dependency.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace tvnep::core {

namespace {
// Sentinel for "no path" in the longest-path tables (stored as a very
// negative value during Floyd–Warshall, surfaced as 0 per the paper).
constexpr int kNoPath = std::numeric_limits<int>::min() / 4;
}  // namespace

DependencyGraph::DependencyGraph(const net::TvnepInstance& instance)
    : num_requests_(instance.num_requests()) {
  const int n = num_nodes();
  earliest_.resize(static_cast<std::size_t>(n));
  latest_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < num_requests_; ++r) {
    const auto& req = instance.request(r);
    earliest_[static_cast<std::size_t>(start_node(r))] = req.earliest_start();
    latest_[static_cast<std::size_t>(start_node(r))] = req.latest_start();
    earliest_[static_cast<std::size_t>(end_node(r))] =
        req.earliest_start() + req.duration();
    latest_[static_cast<std::size_t>(end_node(r))] = req.latest_end();
  }
  // set_temporal accepts windows short of the duration by up to 1e-12: a
  // pinned commit's latest_end - duration can round just below its start.
  // Such a node would have latest < earliest, and two of them with equal
  // times would each get an edge to the other. With latest >= earliest an
  // edge strictly raises the earliest time, so no cycle can form.
  for (int v = 0; v < n; ++v)
    latest_[static_cast<std::size_t>(v)] =
        std::max(latest_[static_cast<std::size_t>(v)],
                 earliest_[static_cast<std::size_t>(v)]);

  adjacency_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < n; ++w) {
      if (v == w) continue;
      if (latest_[static_cast<std::size_t>(v)] <
          earliest_[static_cast<std::size_t>(w)]) {
        adjacency_[idx(v, w)] = 1;
        ++edge_count_;
      }
    }
  }

  // Longest paths via Floyd–Warshall on negated weights (the paper cites
  // [14]); valid because the graph is a DAG.
  auto longest = [&](auto edge_weight) {
    std::vector<int> d(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                       kNoPath);
    for (int v = 0; v < n; ++v)
      for (int w = 0; w < n; ++w)
        if (adjacency_[idx(v, w)]) d[idx(v, w)] = edge_weight(v);
    for (int k = 0; k < n; ++k)
      for (int v = 0; v < n; ++v) {
        if (d[idx(v, k)] == kNoPath) continue;
        for (int w = 0; w < n; ++w) {
          if (d[idx(k, w)] == kNoPath) continue;
          d[idx(v, w)] = std::max(d[idx(v, w)], d[idx(v, k)] + d[idx(k, w)]);
        }
      }
    return d;
  };
  dist_start_ = longest([this](int v) { return node(v).is_start ? 1 : 0; });
  dist_unit_ = longest([](int) { return 1; });

  reach_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v)
    for (int w = 0; w < n; ++w)
      reach_[idx(v, w)] = dist_unit_[idx(v, w)] != kNoPath ? 1 : 0;
}

double DependencyGraph::earliest(int v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_nodes(), "dependency node out of range");
  return earliest_[static_cast<std::size_t>(v)];
}

double DependencyGraph::latest(int v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_nodes(), "dependency node out of range");
  return latest_[static_cast<std::size_t>(v)];
}

bool DependencyGraph::has_edge(int v, int w) const {
  TVNEP_REQUIRE(v >= 0 && v < num_nodes() && w >= 0 && w < num_nodes(),
                "dependency node out of range");
  return adjacency_[idx(v, w)] != 0;
}

int DependencyGraph::dist_start_weighted(int v, int w) const {
  const int d = dist_start_[idx(v, w)];
  return d == kNoPath ? 0 : d;
}

int DependencyGraph::dist_unit(int v, int w) const {
  const int d = dist_unit_[idx(v, w)];
  return d == kNoPath ? 0 : d;
}

int DependencyGraph::starts_before(int v) const {
  int count = 0;
  for (int u = 0; u < num_nodes(); ++u)
    if (u != v && node(u).is_start && reach_[idx(u, v)]) ++count;
  return count;
}

int DependencyGraph::starts_after(int v) const {
  int count = 0;
  for (int w = 0; w < num_nodes(); ++w)
    if (w != v && node(w).is_start && reach_[idx(v, w)]) ++count;
  return count;
}

int DependencyGraph::nodes_before(int v) const {
  int count = 0;
  for (int u = 0; u < num_nodes(); ++u)
    if (u != v && reach_[idx(u, v)]) ++count;
  return count;
}

int DependencyGraph::nodes_after(int v) const {
  int count = 0;
  for (int w = 0; w < num_nodes(); ++w)
    if (w != v && reach_[idx(v, w)]) ++count;
  return count;
}

EventRange csigma_start_range(const DependencyGraph& graph, int r,
                              bool use_cuts) {
  const int num_r = graph.num_requests();
  if (!use_cuts) return {1, num_r};
  const int v = DependencyGraph::start_node(r);
  // Observation 1: the starts that must precede v occupy distinct leading
  // events. Observation 2: the starts after v — plus v's own end interval —
  // occupy trailing events; starts live on e_1..e_|R| anyway.
  return {1 + graph.starts_before(v), num_r - graph.starts_after(v)};
}

EventRange csigma_end_range(const DependencyGraph& graph, int r,
                            bool use_cuts) {
  const int num_r = graph.num_requests();
  if (!use_cuts) return {2, num_r + 1};
  const int v = DependencyGraph::end_node(r);
  // An end mapped to e_i happened in (t_{e_{i-1}}, t_{e_i}]; the starts
  // strictly before it force i >= starts_before+1, those strictly after it
  // can share its event boundary, forcing i <= |R|+1 - starts_after.
  return {std::max(2, 1 + graph.starts_before(v)),
          num_r + 1 - graph.starts_after(v)};
}

EventRange sigma_range(const DependencyGraph& graph, int dep_node,
                       bool use_cuts) {
  const int events = 2 * graph.num_requests();
  if (!use_cuts) return {1, events};
  // Every dependency node occupies its own event point in the Σ/Δ-Models.
  return {1 + graph.nodes_before(dep_node),
          events - graph.nodes_after(dep_node)};
}

}  // namespace tvnep::core
