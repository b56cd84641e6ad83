// Cut subsystem tests: CutPool unit behaviour (dedupe, ageing, eviction),
// the cut-validity harness (every cut the root loop generates must be
// satisfied by the known optimal integer solution), the cuts-on == cuts-off
// objective invariant over randomized TVNEP instances of all three
// formulations, and the reduced-cost-fixing never-fixes-the-optimum check.
#include "mip/cuts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mip/branch_and_bound.hpp"
#include "net/topology.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::mip {
namespace {

using core::ModelKind;

cuts::Cut make_cut(std::vector<std::pair<int, double>> terms, double rhs,
                   double efficacy) {
  cuts::Cut cut;
  cut.terms = std::move(terms);
  cut.rhs = rhs;
  cut.efficacy = efficacy;
  double norm_sq = 0.0;
  for (const auto& [col, coef] : cut.terms) norm_sq += coef * coef;
  cut.signature =
      cuts::cut_signature(cut.terms, cut.rhs, std::sqrt(norm_sq));
  return cut;
}

TEST(CutPool, AdmitOrdersByEfficacyAndCaps) {
  cuts::CutPool pool(cuts::CutOptions{});
  std::vector<cuts::Cut> batch;
  batch.push_back(make_cut({{0, 1.0}}, 1.0, 0.1));
  batch.push_back(make_cut({{1, 1.0}}, 1.0, 0.9));
  batch.push_back(make_cut({{2, 1.0}}, 1.0, 0.5));
  EXPECT_EQ(pool.admit(std::move(batch), 2), 2);
  ASSERT_EQ(pool.size(), 2u);
  // Highest efficacy admitted first; the weakest candidate was dropped.
  EXPECT_EQ(pool.cuts()[0].terms[0].first, 1);
  EXPECT_EQ(pool.cuts()[1].terms[0].first, 2);
}

TEST(CutPool, DuplicateSignaturesAreRejectedForever) {
  cuts::CutPool pool(cuts::CutOptions{});
  std::vector<cuts::Cut> batch;
  batch.push_back(make_cut({{0, 2.0}, {3, -1.0}}, 0.5, 0.2));
  EXPECT_EQ(pool.admit(std::move(batch), 10), 1);
  // Same cut again — and a scaled copy of it, which normalizes to the same
  // signature — must both bounce.
  std::vector<cuts::Cut> again;
  again.push_back(make_cut({{0, 2.0}, {3, -1.0}}, 0.5, 0.2));
  again.push_back(make_cut({{0, 4.0}, {3, -2.0}}, 1.0, 0.2));
  EXPECT_EQ(pool.admit(std::move(again), 10), 0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CutPool, SlackCutsAgeOutAndStayBlocked) {
  cuts::CutOptions options;
  options.max_age = 2;
  cuts::CutPool pool(options);
  std::vector<cuts::Cut> batch;
  batch.push_back(make_cut({{0, 1.0}}, 1.0, 0.3));
  ASSERT_EQ(pool.admit(std::move(batch), 10), 1);

  // x = 5 leaves the cut slack (activity 5 >= rhs 1): after max_age
  // consecutive slack rounds the cut is evicted.
  const std::vector<double> slack_point = {5.0, 5.0};
  EXPECT_EQ(pool.age_and_evict(slack_point), 0);
  EXPECT_EQ(pool.age_and_evict(slack_point), 0);
  EXPECT_EQ(pool.age_and_evict(slack_point), 1);
  EXPECT_EQ(pool.size(), 0u);

  // A tight round resets the age instead.
  std::vector<cuts::Cut> fresh;
  fresh.push_back(make_cut({{1, 1.0}}, 1.0, 0.3));
  ASSERT_EQ(pool.admit(std::move(fresh), 10), 1);
  const std::vector<double> tight_point = {0.0, 1.0};
  EXPECT_EQ(pool.age_and_evict(slack_point), 0);
  EXPECT_EQ(pool.age_and_evict(tight_point), 0);
  EXPECT_EQ(pool.age_and_evict(slack_point), 0);
  EXPECT_EQ(pool.age_and_evict(slack_point), 0);
  EXPECT_EQ(pool.age_and_evict(slack_point), 1);

  // The evicted signature stays blocked — no separation cycling.
  std::vector<cuts::Cut> readmit;
  readmit.push_back(make_cut({{0, 1.0}}, 1.0, 0.3));
  EXPECT_EQ(pool.admit(std::move(readmit), 10), 0);
}

// Reference optimum for a model, solved without cuts or rc fixing (the
// plain branch-and-bound path that predates the cut subsystem).
MipResult solve_plain(const Model& model, bool presolve) {
  MipOptions options;
  options.presolve = presolve;
  options.cut_rounds = 0;
  options.rc_fixing = false;
  MipSolver solver(options);
  return solver.solve(model);
}

// The cut-validity harness: solve with cuts on (presolve off, so observed
// cuts live in model-variable space) and assert every generated cut is
// satisfied by the known optimal integer solution of the cuts-off solve.
// Any violated cut would have (possibly silently) cut off the optimum.
void expect_cuts_valid(const Model& model, const std::string& tag) {
  const MipResult reference = solve_plain(model, /*presolve=*/false);
  if (reference.status != MipStatus::kOptimal) return;

  MipOptions options;
  options.presolve = false;
  long checked = 0;
  options.cut_observer = [&](const cuts::Cut& cut) {
    ++checked;
    EXPECT_GE(cut.activity(reference.solution), cut.rhs - 1e-6)
        << tag << ": "
        << (cut.kind == cuts::Cut::Kind::kGomory ? "gomory" : "cover")
        << " cut violated by the optimal solution (activity "
        << cut.activity(reference.solution) << " < rhs " << cut.rhs << ")";
  };
  MipSolver solver(options);
  const MipResult with_cuts = solver.solve(model);
  ASSERT_EQ(with_cuts.status, MipStatus::kOptimal) << tag;
  EXPECT_NEAR(with_cuts.objective, reference.objective, 1e-6) << tag;
  EXPECT_EQ(with_cuts.cuts_added, checked) << tag;
}

TEST(CutValidity, TvnepModelsKeepTheirOptima) {
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = 3;
  for (const ModelKind kind :
       {ModelKind::kDelta, ModelKind::kSigma, ModelKind::kCSigma}) {
    for (const double flex : {0.0, 1.0}) {
      for (int seed = 1; seed <= 3; ++seed) {
        params.seed = static_cast<unsigned>(seed);
        params.flexibility = flex;
        const net::TvnepInstance instance =
            workload::generate_workload(params);
        const auto formulation = core::build_formulation(instance, kind, {});
        expect_cuts_valid(formulation->model(),
                          "model " + std::string(core::to_string(kind)) +
                              " flex " + std::to_string(flex) + " seed " +
                              std::to_string(seed));
      }
    }
  }
}

TEST(CutValidity, BenchHardCellKeepsItsOptimum) {
  // The fig3 hard cell the micro_solver ablation pair times (cΣ, 2×3 grid,
  // 4 requests, 3 h flexibility) — denser than the randomized sweep above.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 3;
  params.star_leaves = 2;
  params.num_requests = 4;
  params.flexibility = 3.0;
  for (int seed = 0; seed <= 1; ++seed) {
    params.seed = static_cast<unsigned>(seed);
    const net::TvnepInstance instance = workload::generate_workload(params);
    const auto formulation =
        core::build_formulation(instance, ModelKind::kCSigma, {});
    expect_cuts_valid(formulation->model(),
                      "bench cell seed " + std::to_string(seed));
  }
}

TEST(CutEquivalence, CutsOnMatchesCutsOffWithPresolve) {
  // The production configuration (presolve on, cuts on, rc fixing on) must
  // reach the same objective as the plain solver on every instance of the
  // randomized grid — the invariant CI's cut-equivalence job checks at
  // fig3 scale.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = 3;
  for (const ModelKind kind :
       {ModelKind::kDelta, ModelKind::kSigma, ModelKind::kCSigma}) {
    for (const double flex : {0.0, 1.0}) {
      for (int seed = 1; seed <= 3; ++seed) {
        params.seed = static_cast<unsigned>(seed);
        params.flexibility = flex;
        const net::TvnepInstance instance =
            workload::generate_workload(params);
        const auto formulation = core::build_formulation(instance, kind, {});
        const MipResult reference =
            solve_plain(formulation->model(), /*presolve=*/true);
        MipSolver solver(MipOptions{});
        const MipResult with_cuts = solver.solve(formulation->model());
        ASSERT_EQ(with_cuts.status, reference.status)
            << core::to_string(kind) << " flex " << flex << " seed " << seed;
        if (reference.status != MipStatus::kOptimal) continue;
        EXPECT_NEAR(with_cuts.objective, reference.objective, 1e-6)
            << core::to_string(kind) << " flex " << flex << " seed " << seed;
      }
    }
  }
}

TEST(RcFixing, NeverFixesAwayTheOptimum) {
  // Reduced-cost fixing alone (cuts off) must preserve the optimum and its
  // objective on the randomized grid; rc_fixed is telemetry-only here.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = 3;
  params.flexibility = 1.0;
  for (const ModelKind kind :
       {ModelKind::kDelta, ModelKind::kSigma, ModelKind::kCSigma}) {
    for (int seed = 1; seed <= 3; ++seed) {
      params.seed = static_cast<unsigned>(seed);
      const net::TvnepInstance instance = workload::generate_workload(params);
      const auto formulation = core::build_formulation(instance, kind, {});
      const MipResult reference =
          solve_plain(formulation->model(), /*presolve=*/true);

      MipOptions options;
      options.cut_rounds = 0;
      options.rc_fixing = true;
      MipSolver solver(options);
      const MipResult fixed = solver.solve(formulation->model());
      ASSERT_EQ(fixed.status, reference.status)
          << core::to_string(kind) << " seed " << seed;
      if (reference.status != MipStatus::kOptimal) continue;
      EXPECT_NEAR(fixed.objective, reference.objective, 1e-6)
          << core::to_string(kind) << " seed " << seed;
    }
  }
}

TEST(CutValidity, GreedyStepWithPinnedFractionalTimes) {
  // Regression mirror of ServeReopt.BackgroundReoptStrictlyImprovesAdmission:
  // a greedy-step cΣ model whose pinned commits sit at fractional times and
  // whose candidate window opens at 6.5. The step MIP must accept the
  // candidate with cuts on exactly as it does with cuts off.
  net::SubstrateNetwork substrate;
  substrate.add_node(10.0, "A");
  substrate.add_node(10.0, "B");
  substrate.add_node(10.0, "C");
  substrate.add_link(0, 1, 1.0);
  substrate.add_link(1, 2, 1.0);

  auto line_request = [](const std::string& name, double t_s, double t_e,
                         double d, int nodes,
                         std::vector<std::pair<int, int>> links) {
    net::VnetRequest request(name);
    for (int v = 0; v < nodes; ++v) request.add_node(1.0);
    for (const auto& [from, to] : links) request.add_link(from, to, 1.0);
    request.set_temporal(t_s, t_e, d);
    return request;
  };

  net::TvnepInstance working(substrate, 0.0);
  std::vector<int> force_accept;
  // The engine's component for the candidate window [6.5, 9] is the single
  // post-reopt commit R2, pinned to its installed schedule.
  net::VnetRequest r2 = line_request("R2", 6.0, 9.0, 3.0, 2, {{0, 1}});
  force_accept.push_back(
      working.add_request(std::move(r2), std::vector<int>{0, 1}));
  // The candidate: window [6.5, 9], duration 2, over L2 only.
  const int target = working.add_request(
      line_request("R3", 6.5, 9.0, 2.0, 2, {{0, 1}}),
      std::vector<int>{1, 2});
  working.fit_horizon();

  // The cΣ step MIP (the greedy step's test oracle), with and without cuts.
  core::SolveParams plain_params;
  plain_params.build.objective = core::ObjectiveKind::kGreedyStep;
  plain_params.build.greedy_target = target;
  plain_params.build.force_accept = force_accept;
  core::SolveParams cut_params = plain_params;
  plain_params.mip.cut_rounds = 0;
  plain_params.mip.rc_fixing = false;
  const core::TvnepSolveResult plain =
      core::solve(working, ModelKind::kCSigma, plain_params);
  ASSERT_TRUE(plain.has_solution);
  const core::TvnepSolveResult with_cuts =
      core::solve(working, ModelKind::kCSigma, cut_params);
  ASSERT_TRUE(with_cuts.has_solution);
  const auto accepted = [&](const core::TvnepSolveResult& r) {
    return r.solution.requests[static_cast<std::size_t>(target)].accepted;
  };
  EXPECT_TRUE(accepted(plain));
  EXPECT_EQ(accepted(with_cuts), accepted(plain));
  EXPECT_NEAR(with_cuts.objective, plain.objective, 1e-6);
}

TEST(CutValidity, PolishedIncumbentLandsExactlyOnScheduleBoundaries) {
  // Regression for the incumbent-polish step: an incumbent found on the
  // cut-augmented LP carries O(1e-14) noise on its continuous values
  // (cut rows participate in the basis LU), and the admission engine's
  // strict interval-overlap comparisons turn that noise into phantom
  // conflicts between adjacent commits. The solver must report the
  // clean cut-free vertex: back-to-back schedules meet EXACTLY at their
  // shared boundary, bit for bit, as they do with cuts off.
  net::SubstrateNetwork substrate;
  substrate.add_node(10.0, "A");
  substrate.add_node(10.0, "B");
  substrate.add_node(10.0, "C");
  substrate.add_link(0, 1, 1.0);
  substrate.add_link(1, 2, 1.0);

  auto line_request = [](const std::string& name, double t_s, double t_e,
                         double d, int nodes,
                         std::vector<std::pair<int, int>> links) {
    net::VnetRequest request(name);
    for (int v = 0; v < nodes; ++v) request.add_node(1.0);
    for (const auto& [from, to] : links) request.add_link(from, to, 1.0);
    request.set_temporal(t_s, t_e, d);
    return request;
  };

  // The serve reoptimizer's instance for its swap scenario: C1 is a
  // running commit pinned to [0, 6]; R1 and R2 are movable inside their
  // original windows. Max-earliness packs them back to back on link L1:
  // C1 [0, 6], R2 [6, 9], R1 [9, 11].
  net::TvnepInstance instance(substrate, 0.0);
  instance.add_request(line_request("C1", 0.0, 6.0, 6.0, 2, {{0, 1}}),
                       std::vector<int>{0, 1});
  instance.add_request(
      line_request("R1", 0.2, 20.0, 2.0, 3, {{0, 1}, {1, 2}}),
      std::vector<int>{0, 1, 2});
  instance.add_request(line_request("R2", 0.4, 11.0, 3.0, 2, {{0, 1}}),
                       std::vector<int>{0, 1});
  instance.fit_horizon();

  core::SolveParams params;
  params.build.objective = core::ObjectiveKind::kMaxEarliness;
  const core::TvnepSolveResult solved =
      core::solve(instance, ModelKind::kCSigma, params);
  ASSERT_TRUE(solved.has_solution);
  EXPECT_EQ(solved.status, MipStatus::kOptimal);

  const auto& requests = solved.solution.requests;
  ASSERT_EQ(requests.size(), 3u);
  for (const auto& emb : requests) ASSERT_TRUE(emb.accepted);
  // EXPECT_EQ on doubles on purpose: a tolerance would wave the 1e-14
  // noise through, and the downstream comparisons have none.
  EXPECT_EQ(requests[0].start, 0.0);
  EXPECT_EQ(requests[0].end, 6.0);
  EXPECT_EQ(requests[2].start, 6.0);
  EXPECT_EQ(requests[2].end, 9.0);
  EXPECT_EQ(requests[1].start, 9.0);
  EXPECT_EQ(requests[1].end, 11.0);
}

// Satellite regression: B&B termination must evaluate the SAME normalized
// gap as MipResult::gap() reports. A large objective constant makes the
// raw bound difference (0.5) tiny relative to the objective; the solver
// must stop at the root with a within-tolerance gap instead of branching
// to exactness.
TEST(GapTermination, NormalizedGapStopsAtRootUnderLargeConstant) {
  // min 1e7 + x1 + x2, x1 + x2 >= 0.5, binary. LP bound 1e7 + 0.5,
  // incumbent (1, 0) at 1e7 + 1: relative gap 0.5 / (1e7 + 1) ~= 5e-8,
  // within the default 1e-6 tolerance — no branching needed.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  m.add_constr(LinExpr(x1) + 1.0 * x2 >= 0.5);
  m.set_objective(Sense::kMinimize, LinExpr(x1) + 1.0 * x2 + 1e7);

  MipOptions options;
  options.presolve = false;   // coefficient tightening would round the row
  options.cut_rounds = 0;     // a GMI round would integralize the root too
  MipSolver solver(options);
  const MipResult r = solver.solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1e7 + 1.0, 1e-5);
  // The root's children were never solved: the loop-top gap check fired.
  EXPECT_LE(r.nodes, 1);
  EXPECT_GT(r.objective - r.best_bound, 1e-9);  // bound NOT raw-converged
  EXPECT_LE(r.gap(), 1e-6);                     // but normalized-converged
}

TEST(GapTermination, BranchesToExactnessUnderSmallConstant) {
  // Same model with a 1e4 constant: relative gap 0.5 / (1e4 + 1) ~= 5e-5
  // exceeds the tolerance, so the solver must branch and prove exactness.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  m.add_constr(LinExpr(x1) + 1.0 * x2 >= 0.5);
  m.set_objective(Sense::kMinimize, LinExpr(x1) + 1.0 * x2 + 1e4);

  MipOptions options;
  options.presolve = false;
  options.cut_rounds = 0;
  MipSolver solver(options);
  const MipResult r = solver.solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1e4 + 1.0, 1e-7);
  EXPECT_GT(r.nodes, 1);
  EXPECT_NEAR(r.best_bound, r.objective, 1e-7);
  EXPECT_NEAR(r.gap(), 0.0, 1e-12);
}

}  // namespace
}  // namespace tvnep::mip
