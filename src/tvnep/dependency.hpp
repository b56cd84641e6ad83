// Temporal dependency graph of Section IV-C.
//
// Nodes are the abstract start and end points of every request
// (V_dep = R × {start, end}); a directed edge (v, w) exists iff v must
// occur strictly before w in time: latest(v) < earliest(w). The graph is
// acyclic by construction. From it we derive:
//
//  * longest-path distances dist_max (the paper computes them by negating
//    weights and running Floyd–Warshall), with the paper's weighting
//    (edges leaving a *start* node weigh 1 — only starts occupy dedicated
//    event points in the cΣ-Model) and an all-ones weighting for the
//    Σ/Δ-Models where every node occupies its own event point;
//  * reachability counts that yield the event-range restriction of
//    Constraint (19) (presolve + state-space reduction);
//  * the ingredients of the pairwise ordering cuts of Constraint (20).
#pragma once

#include <vector>

#include "net/instance.hpp"

namespace tvnep::core {

/// Identifies a node of the dependency graph.
struct DepNode {
  int request = -1;
  bool is_start = true;
};

class DependencyGraph {
 public:
  explicit DependencyGraph(const net::TvnepInstance& instance);

  int num_requests() const { return num_requests_; }
  int num_nodes() const { return 2 * num_requests_; }

  /// Node indexing: start of request r ↦ 2r, end of request r ↦ 2r+1.
  static int start_node(int r) { return 2 * r; }
  static int end_node(int r) { return 2 * r + 1; }
  DepNode node(int v) const { return {v / 2, v % 2 == 0}; }

  /// earliest / latest feasible time of a dependency node (Section IV-C);
  /// latest is clamped to at least earliest.
  double earliest(int v) const;
  double latest(int v) const;

  bool has_edge(int v, int w) const;
  std::size_t num_edges() const { return edge_count_; }

  /// Longest-path distance with the paper's start-weighting; 0 when w is
  /// unreachable from v.
  int dist_start_weighted(int v, int w) const;

  /// Longest-path distance counting every edge as 1; 0 when unreachable.
  int dist_unit(int v, int w) const;

  /// Number of *start* nodes u ≠ v with a path u → v (they must all occur
  /// strictly before v).
  int starts_before(int v) const;

  /// Number of *start* nodes w ≠ v with a path v → w.
  int starts_after(int v) const;

  /// Number of dependency nodes (starts and ends) before/after v.
  int nodes_before(int v) const;
  int nodes_after(int v) const;

 private:
  int num_requests_;
  std::vector<double> earliest_;
  std::vector<double> latest_;
  std::vector<char> adjacency_;       // n*n boolean
  std::vector<int> dist_start_;      // n*n longest path, start weights
  std::vector<int> dist_unit_;       // n*n longest path, unit weights
  std::vector<char> reach_;          // n*n transitive closure
  std::size_t edge_count_ = 0;

  std::size_t idx(int v, int w) const {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(num_nodes()) +
           static_cast<std::size_t>(w);
  }
};

/// Allowed event-index range for mapping a dependency node onto the
/// abstract event points (1-based, inclusive), per Constraint (19).
struct EventRange {
  int min = 1;
  int max = 1;
  bool empty() const { return min > max; }
};

/// Event ranges for the cΣ-Model with |R|+1 events: starts live on
/// e_1..e_|R|, ends on e_2..e_|R|+1.
EventRange csigma_start_range(const DependencyGraph& graph, int r,
                              bool use_cuts);
EventRange csigma_end_range(const DependencyGraph& graph, int r,
                            bool use_cuts);

/// Event ranges for the Σ/Δ-Models with 2|R| events where every start and
/// end occupies its own event point.
EventRange sigma_range(const DependencyGraph& graph, int dep_node,
                       bool use_cuts);

}  // namespace tvnep::core
