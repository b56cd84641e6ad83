// The fixed-schedule embedding model: commodity grouping, model size,
// flow decomposition and validator agreement of what extract() returns.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/topology.hpp"
#include "tvnep/commodity.hpp"
#include "tvnep/fixed_schedule_model.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::core {
namespace {

mip::MipOptions lp_options() {
  mip::MipOptions options;
  options.presolve = false;  // as the greedy step solves a pure LP
  return options;
}

/// Σ over substrate links of lv's flow leaving `ns` minus entering it.
double net_outflow(const net::SubstrateNetwork& substrate,
                   const RequestEmbedding& emb, int lv, int ns) {
  const int num_links = substrate.num_links();
  double balance = 0.0;
  for (const int ls : substrate.out_links(ns))
    balance += emb.link_flow[static_cast<std::size_t>(lv * num_links + ls)];
  for (const int ls : substrate.in_links(ns))
    balance -= emb.link_flow[static_cast<std::size_t>(lv * num_links + ls)];
  return balance;
}

TEST(FixedScheduleModel, GroupsAnOutStarByItsCenter) {
  const net::VnetRequest star = net::make_star(4, false, 1.0, 1.5);
  const std::vector<Commodity> groups = group_commodities(star);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].shared, 0);
  EXPECT_TRUE(groups[0].out);
  EXPECT_TRUE(groups[0].bandwidth);
  EXPECT_EQ(groups[0].links, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(groups[0].total(star), 6.0);
  for (const int lv : groups[0].links)
    EXPECT_EQ(groups[0].other(star, lv), lv + 1);
}

TEST(FixedScheduleModel, GroupsAnInStarByItsCenter) {
  const net::VnetRequest star = net::make_star(4, true, 1.0, 1.5);
  const std::vector<Commodity> groups = group_commodities(star);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].shared, 0);
  EXPECT_FALSE(groups[0].out);
  EXPECT_EQ(groups[0].links, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FixedScheduleModel, GroupsAPathOneLinkPerCommodity) {
  const net::VnetRequest path = net::make_chain(4, 1.0, 1.0);
  ASSERT_EQ(path.num_links(), 3);
  const std::vector<Commodity> groups = group_commodities(path);
  ASSERT_EQ(groups.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    // A tie between the partitions keeps the one by tail.
    EXPECT_TRUE(groups[static_cast<std::size_t>(k)].out);
    EXPECT_EQ(groups[static_cast<std::size_t>(k)].shared,
              path.link(k).from);
    EXPECT_EQ(groups[static_cast<std::size_t>(k)].links,
              (std::vector<int>{k}));
  }
}

TEST(FixedScheduleModel, TinyDemandLinksAreUnitCommoditiesOfTheirOwn) {
  net::VnetRequest star("z");
  for (int v = 0; v < 4; ++v) star.add_node(1.0);
  star.add_link(0, 1, 2.0);
  star.add_link(0, 2, 0.0);
  star.add_link(0, 3, 1e-12);
  const std::vector<Commodity> groups = group_commodities(star);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_TRUE(groups[0].bandwidth);
  for (std::size_t k = 1; k < 3; ++k) {
    EXPECT_FALSE(groups[k].bandwidth);
    EXPECT_EQ(groups[k].links, (std::vector<int>{static_cast<int>(k)}));
    EXPECT_DOUBLE_EQ(groups[k].total(star), 1.0);
  }
  EXPECT_DOUBLE_EQ(groups[1].usage(star), 0.0);
  EXPECT_DOUBLE_EQ(groups[2].usage(star), 1e-12);

  // All three links route over the path 0 → 1 → 2, whose capacity 2 is
  // the bandwidth link's demand: the unit flows must use only what their
  // demands ask for, and each link still gets its unit flow.
  net::SubstrateNetwork line;
  for (int ns = 0; ns < 3; ++ns) line.add_node(5.0);
  line.add_link(0, 1, 2.0);
  line.add_link(1, 2, 2.0);
  net::TvnepInstance instance(std::move(line), 1.0);
  star.set_temporal(0.0, 1.0, 1.0);
  instance.add_request(star, std::vector<net::NodeId>{0, 2, 2, 2});
  const FixedScheduleModel model(instance);
  const TvnepSolveResult solved = solve(model, lp_options());
  ASSERT_TRUE(solved.has_solution);
  EXPECT_EQ(solved.solution.requests[0].link_flow,
            std::vector<double>(6, 1.0));
  EXPECT_TRUE(validate_solution(instance, solved.solution).ok);
}

TEST(FixedScheduleModel, FiveNodeStarOnTheGridHasOneCommodity) {
  // Per-link commodities would need 4 × 62 flow columns and 4 × 20
  // conservation rows; the star's one commodity needs 62 and 20. The other
  // 62 rows are the link capacity rows of the single state (its node usage
  // is constant and fits, so it adds no row).
  net::TvnepInstance instance(net::make_grid(4, 5, 3.5, 5.0), 1.0);
  net::VnetRequest star = net::make_star(4, false, 1.0, 1.5, "s");
  star.set_temporal(0.0, 1.0, 1.0);
  instance.add_request(star, std::vector<net::NodeId>{0, 4, 15, 19, 7});
  const FixedScheduleModel model(instance);
  ASSERT_EQ(model.commodities(0).size(), 1u);
  EXPECT_EQ(model.model().num_vars(), 62);
  EXPECT_EQ(model.model().num_integer_vars(), 0);
  EXPECT_EQ(model.model().num_constraints(), 20 + 62);
  EXPECT_EQ(model.flow_var(0, 0, 61).id, 61);
}

TEST(FixedScheduleModel, DecompositionDropsAFlowCycle) {
  // Two routes 0 → 1 → 3 and 0 → 2 → 1 → 3 carry one unit each, and a
  // cycle 1 → 2 → 1 carries 0.5 on top. The walk meets the cycle first;
  // cancelling it must leave link 2 → 1 its route flow.
  net::SubstrateNetwork g;
  for (int ns = 0; ns < 4; ++ns) g.add_node(1.0);
  g.add_link(0, 1, 5.0);  // 0
  g.add_link(0, 2, 5.0);  // 1
  g.add_link(2, 1, 5.0);  // 2
  g.add_link(1, 2, 5.0);  // 3
  g.add_link(1, 3, 5.0);  // 4
  net::VnetRequest request("c");
  request.add_node(1.0);
  request.add_node(1.0);
  request.add_link(0, 1, 2.0);
  const std::vector<Commodity> groups = group_commodities(request);
  ASSERT_EQ(groups.size(), 1u);
  std::vector<double> link_flow(5, -1.0);
  decompose_commodity(g, request, groups[0], {0, 3},
                      {1.0, 1.0, 1.5, 0.5, 2.0}, &link_flow);
  EXPECT_EQ(link_flow, (std::vector<double>{0.5, 0.5, 0.5, 0.0, 1.0}));
}

TEST(FixedScheduleModel, DecompositionSplitsASinkNodeBetweenItsLeaves) {
  // Two leaves share node 2, reached over two parallel routes; each leaf
  // gets unit flow, taken from the lower-numbered route first.
  net::SubstrateNetwork g;
  for (int ns = 0; ns < 4; ++ns) g.add_node(1.0);
  g.add_link(0, 1, 5.0);  // 0
  g.add_link(1, 2, 5.0);  // 1
  g.add_link(0, 3, 5.0);  // 2
  g.add_link(3, 2, 5.0);  // 3
  net::VnetRequest request("s");
  for (int v = 0; v < 3; ++v) request.add_node(1.0);
  request.add_link(0, 1, 1.0);
  request.add_link(0, 2, 2.0);
  const std::vector<Commodity> groups = group_commodities(request);
  ASSERT_EQ(groups.size(), 1u);
  std::vector<double> link_flow(8, -1.0);
  decompose_commodity(g, request, groups[0], {0, 2, 2},
                      {1.5, 1.5, 1.5, 1.5}, &link_flow);
  // Leaf 1 (demand 1) fills from route 0-1-2; leaf 2 (demand 2) gets the
  // remaining 0.5 there and 1.5 over route 0-3-2.
  EXPECT_EQ(std::vector<double>(link_flow.begin(), link_flow.begin() + 4),
            (std::vector<double>{1.0, 1.0, 0.0, 0.0}));
  EXPECT_EQ(std::vector<double>(link_flow.begin() + 4, link_flow.end()),
            (std::vector<double>{0.25, 0.25, 0.75, 0.75}));
}

TEST(FixedScheduleModel, LeafCoHostedWithTheCenterGetsZeroFlow) {
  net::TvnepInstance instance(net::make_grid(2, 3, 10.0, 5.0), 1.0);
  for (const bool towards : {false, true}) {
    net::VnetRequest star = net::make_star(3, towards, 1.0, 2.0);
    star.set_temporal(0.0, 1.0, 1.0);
    instance.add_request(star, std::vector<net::NodeId>{4, 4, 0, 5});
  }
  const FixedScheduleModel model(instance);
  const TvnepSolveResult solved = solve(model, lp_options());
  ASSERT_TRUE(solved.has_solution);
  const auto& substrate = instance.substrate();
  for (int r = 0; r < 2; ++r) {
    const RequestEmbedding& emb =
        solved.solution.requests[static_cast<std::size_t>(r)];
    for (int ls = 0; ls < substrate.num_links(); ++ls)
      EXPECT_EQ(emb.link_flow[static_cast<std::size_t>(ls)], 0.0);
    for (int lv = 1; lv < 3; ++lv) {
      const int from = instance.fixed_mapping(r)[static_cast<std::size_t>(
          instance.request(r).link(lv).from)];
      EXPECT_NEAR(net_outflow(substrate, emb, lv, from), 1.0, 1e-9);
    }
  }
  const ValidationResult check = validate_solution(instance, solved.solution);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(FixedScheduleModel, UnmappedStarIsPlacedAndDecomposed) {
  net::TvnepInstance instance(net::make_grid(2, 2, 2.5, 3.0), 1.0);
  net::VnetRequest star = net::make_star(3, false, 2.0, 2.0, "u");
  star.set_temporal(0.0, 1.0, 1.0);
  instance.add_request(star);
  const FixedScheduleModel model(instance);
  EXPECT_EQ(model.model().num_integer_vars(), 4 * 4);
  mip::MipOptions options;
  options.time_limit_seconds = 30.0;
  const TvnepSolveResult solved = solve(model, options);
  ASSERT_TRUE(solved.has_solution);
  const RequestEmbedding& emb = solved.solution.requests[0];
  // Node capacity 2.5 holds one demand-2 node: the four nodes are spread.
  std::vector<int> hosts = emb.node_mapping;
  std::sort(hosts.begin(), hosts.end());
  EXPECT_EQ(hosts, (std::vector<int>{0, 1, 2, 3}));
  for (int lv = 0; lv < 3; ++lv)
    EXPECT_NEAR(net_outflow(instance.substrate(), emb, lv, emb.node_mapping[0]),
                1.0, 1e-9);
  const ValidationResult check = validate_solution(instance, solved.solution);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(FixedScheduleModel, OverbookedMappedNodeIsInfeasibleWithoutPresolve) {
  net::TvnepInstance instance(net::make_grid(2, 2, 1.5, 5.0), 1.0);
  for (int r = 0; r < 2; ++r) {
    net::VnetRequest single("n" + std::to_string(r));
    single.add_node(1.0);
    single.set_temporal(0.0, 1.0, 1.0);
    instance.add_request(single, std::vector<net::NodeId>{3});
  }
  const FixedScheduleModel model(instance);
  EXPECT_EQ(model.model().num_vars(), 0);
  const TvnepSolveResult solved = solve(model, lp_options());
  EXPECT_EQ(solved.status, mip::MipStatus::kInfeasible);
  EXPECT_FALSE(solved.has_solution);
}

TEST(FixedScheduleModel, EveryDecomposedEmbeddingValidates) {
  // Generated days with every schedule pinned: mapped stars on the paper
  // grid and on a 2 × 2 grid (many co-hosted leaves), unmapped ones on a
  // 2 × 3 grid. Every feasible model's extraction must pass the
  // independent validator.
  int feasible = 0;
  int split = 0;  // fractional per-link flows: the LP did split some flow
  for (int variant = 0; variant < 3; ++variant) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      workload::WorkloadParams params;
      params.seed = seed;
      // Node capacities leave room for any random mapping: the point is
      // flows that split and meet at shared links.
      params.node_capacity = 20.0;
      params.num_requests = variant == 2 ? 3 : 6;
      if (variant >= 1) {
        params.grid_rows = 2;
        params.grid_cols = variant == 1 ? 2 : 3;
        params.link_capacity = 8.0;
      }
      params.fix_node_mappings = variant != 2;
      const net::TvnepInstance instance = workload::generate_workload(params);
      const FixedScheduleModel model(instance);
      mip::MipOptions options = lp_options();
      options.presolve = model.model().num_integer_vars() > 0;
      options.time_limit_seconds = 30.0;
      const TvnepSolveResult solved = solve(model, options);
      if (!solved.has_solution) {
        EXPECT_EQ(solved.status, mip::MipStatus::kInfeasible);
        continue;
      }
      ++feasible;
      for (const RequestEmbedding& emb : solved.solution.requests)
        for (const double f : emb.link_flow)
          if (f > 1e-9 && f < 1.0 - 1e-9) ++split;
      const ValidationResult check =
          validate_solution(instance, solved.solution, 1e-7);
      EXPECT_TRUE(check.ok) << "variant " << variant << " seed " << seed
                            << ": "
                            << (check.errors.empty() ? "" : check.errors[0]);
    }
  }
  EXPECT_GE(feasible, 16);
  EXPECT_GT(split, 0);
}

}  // namespace
}  // namespace tvnep::core
