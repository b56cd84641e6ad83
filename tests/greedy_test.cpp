#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "greedy/greedy.hpp"
#include "net/topology.hpp"
#include "support/rng.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::greedy {
namespace {

net::TvnepInstance scheduling_instance(
    const std::vector<std::tuple<double, double, double>>& windows,
    double node_capacity = 1.0) {
  net::SubstrateNetwork s;
  s.add_node(node_capacity);
  s.add_node(node_capacity);
  s.add_link(0, 1, 10.0);
  s.add_link(1, 0, 10.0);
  net::TvnepInstance inst(std::move(s), 1.0);
  for (const auto& [ts, te, d] : windows) {
    net::VnetRequest r("r" + std::to_string(inst.num_requests()));
    r.add_node(1.0);
    r.set_temporal(ts, te, d);
    inst.add_request(r, std::vector<net::NodeId>{0});
  }
  inst.fit_horizon();
  return inst;
}

TEST(Greedy, AcceptsSingleRequest) {
  const auto inst = scheduling_instance({{0.0, 4.0, 2.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.accepted, 1);
  EXPECT_TRUE(r.solution.requests[0].accepted);
  // Started as early as possible (Eq. 21 maximizes T - t^-).
  EXPECT_NEAR(r.solution.requests[0].start, 0.0, 1e-5);
}

TEST(Greedy, ExploitsFlexibility) {
  const auto inst = scheduling_instance({{0.0, 2.0, 1.0}, {0.0, 2.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.accepted, 2);
  const auto vr = core::validate_solution(inst, r.solution);
  EXPECT_TRUE(vr.ok) << (vr.errors.empty() ? "" : vr.errors.front());
}

TEST(Greedy, RejectsWhenNoRoom) {
  const auto inst = scheduling_instance({{0.0, 1.0, 1.0}, {0.0, 1.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.accepted, 1);
  const auto vr = core::validate_solution(inst, r.solution);
  EXPECT_TRUE(vr.ok) << (vr.errors.empty() ? "" : vr.errors.front());
}

TEST(Greedy, NeverBeatsOptimal) {
  // Greedy revenue must never exceed the exact cΣ optimum.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.num_requests = 4;
  params.star_leaves = 1;
  params.seed = 3;
  params.flexibility = 1.0;
  const net::TvnepInstance inst = workload::generate_workload(params);

  const GreedyResult g = solve_greedy(inst);
  core::SolveParams p;
  p.time_limit_seconds = 60.0;
  const core::TvnepSolveResult opt =
      core::solve(inst, core::ModelKind::kCSigma, p);
  ASSERT_EQ(opt.status, mip::MipStatus::kOptimal);
  EXPECT_LE(g.solution.revenue(inst), opt.objective + 1e-5);
  const auto vr = core::validate_solution(inst, g.solution);
  EXPECT_TRUE(vr.ok) << (vr.errors.empty() ? "" : vr.errors.front());
}

TEST(Greedy, GreedyIsOptimalOnEasyInstance) {
  // Disjoint windows: everything fits; greedy must accept all.
  const auto inst = scheduling_instance(
      {{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}, {4.0, 5.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.accepted, 3);
}

TEST(Greedy, ProcessesInEarliestStartOrder) {
  // Later-arriving request processed second: the earlier one claims the
  // slot even though the later one was added to the instance first.
  const auto inst = scheduling_instance({{2.0, 3.0, 1.0}, {0.0, 3.0, 3.0}});
  // Request 1 (t^s = 0, d = 3) is considered first and occupies [0, 3],
  // leaving no room for request 0's window [2, 3].
  const GreedyResult r = solve_greedy(inst);
  EXPECT_TRUE(r.solution.requests[1].accepted);
  EXPECT_FALSE(r.solution.requests[0].accepted);
}

TEST(Greedy, IterationTimesRecorded) {
  const auto inst = scheduling_instance({{0.0, 2.0, 1.0}, {0.0, 2.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.iteration_seconds.size(), 2u);
  EXPECT_GE(r.max_iteration_seconds(), 0.0);
  EXPECT_GE(r.total_seconds, 0.0);
}

TEST(Greedy, RejectedRequestsKeepPinnedTimes) {
  const auto inst = scheduling_instance({{0.0, 1.0, 1.0}, {0.0, 1.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  for (int i = 0; i < 2; ++i) {
    const auto& emb = r.solution.requests[static_cast<std::size_t>(i)];
    if (emb.accepted) continue;
    EXPECT_NEAR(emb.start, inst.request(i).earliest_start(), 1e-9);
    EXPECT_NEAR(emb.end, emb.start + inst.request(i).duration(), 1e-9);
  }
}

// ----- anchor step vs the cΣ step MIP -----

// Runs the batch greedy loop on `instance` and solves every step twice:
// by anchor enumeration and by the cΣ step MIP (Eq. 21) with gap 0 and no
// time limit. Both must give the same accept and the same start; the
// anchor step's embedding must pass the independent validator. The loop
// pins each request as the anchor step decides.
void expect_steps_match_mip(const net::TvnepInstance& instance,
                            const std::string& label) {
  std::vector<int> order(static_cast<std::size_t>(instance.num_requests()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return instance.request(a).earliest_start() <
           instance.request(b).earliest_start();
  });
  net::TvnepInstance working(instance.substrate(), instance.horizon());
  std::vector<int> accepted, rejected;
  for (const int original : order) {
    const net::VnetRequest& req = instance.request(original);
    const int target =
        instance.has_fixed_mapping(original)
            ? working.add_request(req, instance.fixed_mapping(original))
            : working.add_request(req);
    const std::string where = label + " request " + std::to_string(original);

    const GreedyStepResult step =
        solve_greedy_step(working, target, accepted, rejected, {});
    core::SolveParams oracle;
    oracle.build.objective = core::ObjectiveKind::kGreedyStep;
    oracle.build.greedy_target = target;
    oracle.build.force_accept = accepted;
    oracle.build.force_reject = rejected;
    oracle.time_limit_seconds = 0.0;
    oracle.mip.gap_tolerance = 0.0;
    const core::TvnepSolveResult mip =
        core::solve(working, core::ModelKind::kCSigma, oracle);
    ASSERT_EQ(mip.status, mip::MipStatus::kOptimal) << where;
    ASSERT_EQ(step.step.status, mip::MipStatus::kOptimal) << where;
    const core::RequestEmbedding& expect =
        mip.solution.requests[static_cast<std::size_t>(target)];
    ASSERT_EQ(step.accepted, expect.accepted) << where;

    if (step.accepted) {
      EXPECT_NEAR(step.start, expect.start, 1e-6) << where;
      EXPECT_EQ(step.end, step.start + req.duration()) << where;
      const auto check = core::validate_solution(working, step.step.solution);
      EXPECT_TRUE(check.ok) << where << ": "
                            << (check.errors.empty() ? "" : check.errors[0]);
      working.mutable_request(target).set_temporal(step.start, step.end,
                                                   req.duration());
      accepted.push_back(target);
    } else {
      EXPECT_FALSE(step.step.has_solution) << where;
      working.mutable_request(target).set_temporal(
          req.earliest_start(), req.earliest_start() + req.duration(),
          req.duration());
      rejected.push_back(target);
    }
  }
}

TEST(AnchorStep, MatchesStepMipOnGreedyTestInstances) {
  const std::vector<std::vector<std::tuple<double, double, double>>> cases = {
      {{0.0, 4.0, 2.0}},
      {{0.0, 2.0, 1.0}, {0.0, 2.0, 1.0}},
      {{0.0, 1.0, 1.0}, {0.0, 1.0, 1.0}},
      {{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}, {4.0, 5.0, 1.0}},
      {{2.0, 3.0, 1.0}, {0.0, 3.0, 3.0}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i)
    expect_steps_match_mip(scheduling_instance(cases[i]),
                           "case " + std::to_string(i));

  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.num_requests = 4;
  params.star_leaves = 1;
  params.seed = 3;
  params.flexibility = 1.0;
  expect_steps_match_mip(workload::generate_workload(params), "small star");
}

TEST(AnchorStep, MatchesStepMipOnServeTestTraces) {
  // The traces of the serve admission, recovery and daemon suites.
  workload::WorkloadParams admission;
  admission.num_requests = 12;
  admission.flexibility = 1.5;
  admission.seed = 3;
  expect_steps_match_mip(workload::generate_workload(admission), "admission");
  admission.interarrival_mean = 12.0;
  expect_steps_match_mip(workload::generate_workload(admission), "spread");

  workload::WorkloadParams daemon;
  daemon.num_requests = 12;
  daemon.flexibility = 1.5;
  daemon.seed = 5;
  expect_steps_match_mip(workload::generate_workload(daemon), "daemon");
}

TEST(AnchorStep, MatchesStepMipOnGeneratedSmallGrids) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    for (const double flexibility : {0.0, 1.0, 2.0, 3.0})
      for (const bool mapped : {true, false}) {
        workload::WorkloadParams params;
        params.grid_rows = 2;
        params.grid_cols = 2;
        params.num_requests = 4;
        params.star_leaves = 1;
        params.seed = seed;
        params.flexibility = flexibility;
        params.fix_node_mappings = mapped;
        expect_steps_match_mip(
            workload::generate_workload(params),
            "seed " + std::to_string(seed) + " flex " +
                std::to_string(flexibility) + (mapped ? " mapped" : " free"));
      }
}

// Random small grids on a half-hour lattice: starts, durations and
// flexibilities are exact binary fractions, so windows and schedules
// touch each other's boundaries exactly and often. A third of the
// requests leave node placement to the model.
net::TvnepInstance lattice_instance(std::uint64_t seed) {
  Rng rng(seed);
  net::TvnepInstance inst(net::make_grid(2, 2, 2.0, 1.5), 1.0);
  const int requests = static_cast<int>(rng.uniform_int(4, 7));
  for (int i = 0; i < requests; ++i) {
    net::VnetRequest req("q" + std::to_string(i));
    const int leaves = static_cast<int>(rng.uniform_int(0, 2));
    req.add_node(0.5 * static_cast<double>(rng.uniform_int(1, 3)));
    for (int l = 0; l < leaves; ++l) {
      const int leaf = req.add_node(0.5 * static_cast<double>(rng.uniform_int(1, 3)));
      req.add_link(0, leaf, 0.5 * static_cast<double>(rng.uniform_int(1, 3)));
    }
    const double t_s = 0.5 * static_cast<double>(rng.uniform_int(0, 4));
    const double d = 0.5 * static_cast<double>(rng.uniform_int(1, 6));
    const double flexibility = 0.5 * static_cast<double>(rng.uniform_int(0, 6));
    req.set_temporal(t_s, t_s + d + flexibility, d);
    if (rng.uniform_int(0, 2) == 0) {
      inst.add_request(req);
    } else {
      std::vector<net::NodeId> mapping;
      for (int v = 0; v < req.num_nodes(); ++v)
        mapping.push_back(static_cast<net::NodeId>(rng.uniform_int(0, 3)));
      inst.add_request(req, mapping);
    }
  }
  inst.fit_horizon();
  return inst;
}

TEST(AnchorStep, MatchesStepMipOnRandomLatticeGrids) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed)
    expect_steps_match_mip(lattice_instance(seed),
                           "lattice seed " + std::to_string(seed));
}

TEST(AnchorStep, FillsAGapThatExactlyFitsBetweenPinnedRequests) {
  // r0 holds the node over [0, 1) and r1 over [2, 3). The target fits only
  // into [1, 2): it starts where r0 ends and ends where r1 starts.
  net::TvnepInstance working =
      scheduling_instance({{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}, {0.0, 3.0, 1.0}});
  const GreedyStepResult step = solve_greedy_step(working, 2, {0, 1}, {}, {});
  ASSERT_EQ(step.step.status, mip::MipStatus::kOptimal);
  ASSERT_TRUE(step.accepted);
  EXPECT_EQ(step.start, 1.0);
  EXPECT_EQ(step.end, 2.0);

  // A duration longer than the gap cannot go anywhere.
  working.mutable_request(2).set_temporal(0.0, 3.0, 1.5);
  const GreedyStepResult longer =
      solve_greedy_step(working, 2, {0, 1}, {}, {});
  EXPECT_EQ(longer.step.status, mip::MipStatus::kOptimal);
  EXPECT_FALSE(longer.accepted);
}

TEST(AnchorStep, EndAnchorNeverOverlapsTheNextPinnedStart) {
  // b - d rounds so that fl(fl(b - d) + d) > b: a target started at
  // fl(b - d) would end an ulp inside the request pinned at b, and the
  // engine's strict interval test would see a phantom overlap.
  const double b = 6.864;
  const double d = 2.387;
  ASSERT_GT((b - d) + d, b);
  double fits = b - d;
  while (fits + d > b) fits = std::nextafter(fits, 0.0);

  // One node of capacity 1: `blocker` holds it until `fits`, `next` from
  // b on. The target's window [0, b] leaves exactly [fits, fits + d).
  net::SubstrateNetwork s;
  s.add_node(1.0);
  s.add_node(1.0);
  s.add_link(0, 1, 10.0);
  net::TvnepInstance working(std::move(s), 1.0);
  auto add = [&](double t_s, double t_e, double duration) {
    net::VnetRequest r("r" + std::to_string(working.num_requests()));
    r.add_node(1.0);
    r.set_temporal(t_s, t_e, duration);
    return working.add_request(r, std::vector<net::NodeId>{0});
  };
  const int blocker = add(0.0, fits, fits);
  const int next = add(b, b + 1.0, 1.0);
  const int target = add(0.0, b, d);
  working.fit_horizon();

  const GreedyStepResult step =
      solve_greedy_step(working, target, {blocker, next}, {}, {});
  ASSERT_EQ(step.step.status, mip::MipStatus::kOptimal);
  ASSERT_TRUE(step.accepted);
  EXPECT_EQ(step.start, fits);
  EXPECT_LE(step.start + d, b);
  EXPECT_EQ(step.end, step.start + d);
  // Neither pinned neighbour overlaps under the strict [start, end) test.
  for (const int other : {blocker, next}) {
    const auto& o = working.request(other);
    EXPECT_FALSE(o.earliest_start() < step.end && step.start < o.latest_end())
        << "overlaps r" << other;
  }

  core::SolveParams oracle;
  oracle.build.objective = core::ObjectiveKind::kGreedyStep;
  oracle.build.greedy_target = target;
  oracle.build.force_accept = {blocker, next};
  oracle.time_limit_seconds = 0.0;
  oracle.mip.gap_tolerance = 0.0;
  const core::TvnepSolveResult mip =
      core::solve(working, core::ModelKind::kCSigma, oracle);
  ASSERT_EQ(mip.status, mip::MipStatus::kOptimal);
  EXPECT_TRUE(mip.solution.requests[2].accepted);
  EXPECT_NEAR(mip.solution.requests[2].start, step.start, 1e-6);
}

TEST(AnchorStep, NodeCheckRejectSolvesNothing) {
  // The second request can only start at 0, where the first one holds the
  // node: the arithmetic check proves the reject. It reports kOptimal and
  // carries no fresh allocation.
  const auto inst = scheduling_instance({{0.0, 1.0, 1.0}, {0.0, 1.0, 1.0}});
  net::TvnepInstance working = inst;
  working.mutable_request(0).set_temporal(0.0, 1.0, 1.0);
  const GreedyStepResult step = solve_greedy_step(working, 1, {0}, {}, {});
  EXPECT_EQ(step.step.status, mip::MipStatus::kOptimal);
  EXPECT_FALSE(step.accepted);
  EXPECT_FALSE(step.step.has_solution);
}

}  // namespace
}  // namespace tvnep::greedy
