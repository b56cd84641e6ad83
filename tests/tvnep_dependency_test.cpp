#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "tvnep/dependency.hpp"

namespace tvnep::core {
namespace {

net::TvnepInstance make_instance(
    const std::vector<std::tuple<double, double, double>>& windows) {
  net::TvnepInstance inst(net::make_grid(2, 2, 10.0, 10.0), 100.0);
  for (const auto& [ts, te, d] : windows) {
    net::VnetRequest r("r" + std::to_string(inst.num_requests()));
    r.add_node(1.0);
    r.set_temporal(ts, te, d);
    inst.add_request(r, std::vector<net::NodeId>{0});
  }
  return inst;
}

TEST(DependencyGraph, EarliestLatestFormulas) {
  // t^s=1, t^e=9, d=3: start in [1, 6], end in [4, 9].
  const auto inst = make_instance({{1.0, 9.0, 3.0}});
  const DependencyGraph g(inst);
  EXPECT_DOUBLE_EQ(g.earliest(DependencyGraph::start_node(0)), 1.0);
  EXPECT_DOUBLE_EQ(g.latest(DependencyGraph::start_node(0)), 6.0);
  EXPECT_DOUBLE_EQ(g.earliest(DependencyGraph::end_node(0)), 4.0);
  EXPECT_DOUBLE_EQ(g.latest(DependencyGraph::end_node(0)), 9.0);
}

TEST(DependencyGraph, EdgeWhenStrictlyOrdered) {
  // Request 0 occupies [0,2]; request 1 cannot start before 5.
  const auto inst = make_instance({{0.0, 2.0, 2.0}, {5.0, 8.0, 3.0}});
  const DependencyGraph g(inst);
  const int s0 = DependencyGraph::start_node(0);
  const int e0 = DependencyGraph::end_node(0);
  const int s1 = DependencyGraph::start_node(1);
  const int e1 = DependencyGraph::end_node(1);
  EXPECT_TRUE(g.has_edge(s0, s1));   // latest(s0)=0 < earliest(s1)=5
  EXPECT_TRUE(g.has_edge(e0, s1));   // latest(e0)=2 < 5
  EXPECT_TRUE(g.has_edge(s0, e0));   // zero flexibility: 0 < 2
  EXPECT_FALSE(g.has_edge(s1, s0));
  EXPECT_FALSE(g.has_edge(e1, s0));
}

TEST(DependencyGraph, NoEdgesWhenOverlapping) {
  const auto inst = make_instance({{0.0, 10.0, 2.0}, {0.0, 10.0, 2.0}});
  const DependencyGraph g(inst);
  EXPECT_EQ(g.num_edges(), 0u);
  // Full ranges result.
  EXPECT_EQ(csigma_start_range(g, 0, true).min, 1);
  EXPECT_EQ(csigma_start_range(g, 0, true).max, 2);
  EXPECT_EQ(csigma_end_range(g, 0, true).min, 2);
  EXPECT_EQ(csigma_end_range(g, 0, true).max, 3);
}

TEST(DependencyGraph, ChainCounting) {
  // Three strictly ordered requests.
  const auto inst = make_instance(
      {{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}, {4.0, 5.0, 1.0}});
  const DependencyGraph g(inst);
  const int s2 = DependencyGraph::start_node(2);
  EXPECT_EQ(g.starts_before(s2), 2);
  EXPECT_EQ(g.starts_after(DependencyGraph::start_node(0)), 2);
  // cΣ ranges pin everything: start of request 2 only on event 3.
  const EventRange r2 = csigma_start_range(g, 2, true);
  EXPECT_EQ(r2.min, 3);
  EXPECT_EQ(r2.max, 3);
  const EventRange r0 = csigma_start_range(g, 0, true);
  EXPECT_EQ(r0.min, 1);
  EXPECT_EQ(r0.max, 1);
}

TEST(DependencyGraph, DistancesOnChain) {
  const auto inst = make_instance(
      {{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}, {4.0, 5.0, 1.0}});
  const DependencyGraph g(inst);
  const int s0 = DependencyGraph::start_node(0);
  const int s2 = DependencyGraph::start_node(2);
  // Start-weighted longest path s0 → s2 passes two start tails.
  EXPECT_EQ(g.dist_start_weighted(s0, s2), 2);
  EXPECT_GE(g.dist_unit(s0, s2), 2);
  EXPECT_EQ(g.dist_start_weighted(s2, s0), 0);  // unreachable → 0
}

TEST(DependencyGraph, SigmaRangesUseUnitCounts) {
  const auto inst = make_instance({{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}});
  const DependencyGraph g(inst);
  // Σ scheme: 4 events; start0 < end0 < start1 < end1 fully ordered.
  EXPECT_EQ(sigma_range(g, DependencyGraph::start_node(0), true).max, 1);
  EXPECT_EQ(sigma_range(g, DependencyGraph::end_node(0), true).min, 2);
  EXPECT_EQ(sigma_range(g, DependencyGraph::end_node(1), true).min, 4);
}

TEST(DependencyGraph, RangesWithoutCutsAreFull) {
  const auto inst = make_instance({{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}});
  const DependencyGraph g(inst);
  EXPECT_EQ(sigma_range(g, 0, false).min, 1);
  EXPECT_EQ(sigma_range(g, 0, false).max, 4);
  EXPECT_EQ(csigma_start_range(g, 0, false).max, 2);
  EXPECT_EQ(csigma_end_range(g, 1, false).max, 3);
}

TEST(DependencyGraph, AcyclicInvariant) {
  const auto inst = make_instance(
      {{0.0, 4.0, 2.0}, {1.0, 6.0, 2.0}, {3.0, 9.0, 2.0}});
  const DependencyGraph g(inst);
  for (int v = 0; v < g.num_nodes(); ++v)
    for (int w = 0; w < g.num_nodes(); ++w)
      if (g.has_edge(v, w)) {
        EXPECT_FALSE(g.has_edge(w, v));
      }
}

TEST(DependencyGraph, RoundedPinnedWindowsStayAcyclic) {
  // Two commits pinned to the same start whose latest_end - duration
  // rounds one ulp below it: latest start 124.72093386199998 < earliest
  // start 124.720933862. Each start node used to get an edge to the other,
  // so each counted the other as before and after it, and the cSigma start
  // range came out empty ([2, 1] here).
  const double start = 124.720933862;
  const double duration = 3.5;
  const double end = 128.22093386199998;
  ASSERT_EQ(end - duration, 124.72093386199998);
  const auto inst = make_instance({{start, end, duration}, {start, end, duration}});
  const DependencyGraph g(inst);
  const int s0 = DependencyGraph::start_node(0);
  const int s1 = DependencyGraph::start_node(1);
  EXPECT_EQ(g.latest(s0), g.earliest(s0));
  EXPECT_FALSE(g.has_edge(s0, s1));
  EXPECT_FALSE(g.has_edge(s1, s0));
  for (int v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(g.dist_unit(v, v), 0) << "node " << v << " lies on a cycle";
  for (int r = 0; r < 2; ++r) {
    EXPECT_FALSE(csigma_start_range(g, r, true).empty()) << "request " << r;
    EXPECT_FALSE(csigma_end_range(g, r, true).empty()) << "request " << r;
    EXPECT_FALSE(sigma_range(g, DependencyGraph::start_node(r), true).empty());
    EXPECT_FALSE(sigma_range(g, DependencyGraph::end_node(r), true).empty());
  }
}

}  // namespace
}  // namespace tvnep::core
