// The parallel sweep engine's guarantees: grid-ordered deterministic
// outcomes identical to the serial run, the sweep's solver flags reaching
// every solve, serialized announce callbacks, and per-cell failure
// isolation (a throwing or numerically failing cell never takes its
// siblings down).
#include "eval/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

namespace tvnep::eval {
namespace {

SweepConfig tiny_config(int threads) {
  SweepConfig config;
  config.base.num_requests = 2;
  config.base.grid_rows = 2;
  config.base.grid_cols = 2;
  config.base.star_leaves = 1;
  config.flexibilities = {0.0, 1.0};
  config.seeds = 2;
  // Generous enough that no cell ever hits it: the search path (and with
  // it nodes/pivots) must not depend on scheduling noise.
  config.time_limit = 60.0;
  config.threads = threads;
  return config;
}

// Slot `cell` holds the solve of flexibility index cell / seeds and seed
// cell % seeds, and every cell is solved exactly once. The override tags
// each result with its instance's first window, which the test regenerates.
TEST(RunModelSweep, EnumeratesGridFlexibilityMajor) {
  SweepConfig config = tiny_config(4);
  std::atomic<int> solves{0};
  config.solve_override = [&](const net::TvnepInstance& instance,
                              core::ModelKind, const core::SolveParams&) {
    ++solves;
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kOptimal;
    r.objective = instance.request(0).earliest_start();
    r.best_bound = instance.request(0).latest_end();
    return r;
  };
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  EXPECT_EQ(solves.load(), 4);
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t cell = 0; cell < outcomes.size(); ++cell) {
    SCOPED_TRACE(cell);
    const double flexibility = config.flexibilities[cell / 2];
    const int seed = static_cast<int>(cell % 2);
    EXPECT_EQ(outcomes[cell].flexibility, flexibility);
    EXPECT_EQ(outcomes[cell].seed, seed);
    workload::WorkloadParams params = config.base;
    params.seed = static_cast<std::uint64_t>(seed) + 1;
    const net::TvnepInstance expected =
        workload::generate_workload_with_flexibility(params, flexibility);
    EXPECT_EQ(outcomes[cell].result.objective,
              expected.request(0).earliest_start());
    EXPECT_EQ(outcomes[cell].result.best_bound,
              expected.request(0).latest_end());
  }
}

// Every solver flag of the sweep reaches the params a solve_override
// receives — the seam the objectives experiment and abl_relaxation run
// their per-cell work through.
TEST(RunModelSweep, SolveOverrideSeesTheSweepSolverOptions) {
  SweepConfig config = tiny_config(2);
  config.mip_cuts = false;
  config.rc_fixing = false;
  config.lp_scaling = false;
  config.lp_fault_period = 40;
  config.lp_fault_burst = 2;
  config.cell_timeout = 60.0;
  std::atomic<int> checked{0};
  config.solve_override = [&](const net::TvnepInstance&, core::ModelKind,
                              const core::SolveParams& params) {
    EXPECT_EQ(params.mip.cut_rounds, 0);
    EXPECT_FALSE(params.mip.rc_fixing);
    EXPECT_FALSE(params.mip.lp.scaling);
    EXPECT_TRUE(static_cast<bool>(params.mip.lp.fault_hook));
    EXPECT_NE(params.mip.cancel, nullptr);  // the watchdog's flag
    EXPECT_EQ(params.time_limit_seconds, 60.0);
    ++checked;
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kOptimal;
    return r;
  };
  run_model_sweep(config, core::ModelKind::kCSigma);
  EXPECT_EQ(checked.load(), 4);

  // Without the flags the solver keeps its defaults and runs unwatched.
  SweepConfig plain = tiny_config(2);
  plain.solve_override = [&](const net::TvnepInstance&, core::ModelKind,
                             const core::SolveParams& params) {
    EXPECT_EQ(params.mip.cut_rounds, mip::MipOptions{}.cut_rounds);
    EXPECT_TRUE(params.mip.rc_fixing);
    EXPECT_TRUE(params.mip.lp.scaling);
    EXPECT_FALSE(static_cast<bool>(params.mip.lp.fault_hook));
    EXPECT_EQ(params.mip.cancel, nullptr);
    ++checked;
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kOptimal;
    return r;
  };
  run_model_sweep(plain, core::ModelKind::kCSigma);
  EXPECT_EQ(checked.load(), 8);
}

TEST(RunModelSweep, ParallelMatchesSerialExactly) {
  const auto serial =
      run_model_sweep(tiny_config(1), core::ModelKind::kCSigma);
  const auto parallel =
      run_model_sweep(tiny_config(4), core::ModelKind::kCSigma);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 4u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].flexibility, parallel[i].flexibility);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].failed, parallel[i].failed);
    EXPECT_EQ(serial[i].result.status, parallel[i].result.status);
    EXPECT_EQ(serial[i].result.has_solution, parallel[i].result.has_solution);
    EXPECT_EQ(serial[i].result.objective, parallel[i].result.objective);
    EXPECT_EQ(serial[i].result.best_bound, parallel[i].result.best_bound);
    EXPECT_EQ(serial[i].result.nodes, parallel[i].result.nodes);
    EXPECT_EQ(serial[i].result.lp_pivots, parallel[i].result.lp_pivots);
    EXPECT_EQ(serial[i].result.model_vars, parallel[i].result.model_vars);
    EXPECT_EQ(serial[i].result.model_constraints,
              parallel[i].result.model_constraints);
    EXPECT_GT(parallel[i].wall_seconds, 0.0);
  }
}

TEST(RunModelSweep, AnnounceSeesEveryCellOnce) {
  SweepConfig config = tiny_config(4);
  config.solve_override = [](const net::TvnepInstance&, core::ModelKind,
                             const core::SolveParams&) {
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kOptimal;
    return r;
  };
  // The runner serializes announce; no locking needed in the callback.
  std::vector<std::pair<double, int>> announced;
  std::size_t last_completed = 0;
  std::size_t announced_total = 0;
  const auto outcomes = run_model_sweep(
      config, core::ModelKind::kCSigma,
      [&](const ScenarioOutcome& o, const SweepProgress& progress) {
        announced.emplace_back(o.flexibility, o.seed);
        // Progress counts up by one per announce, against a fixed total.
        EXPECT_EQ(progress.completed, last_completed + 1);
        EXPECT_GE(progress.eta_seconds, 0.0);
        last_completed = progress.completed;
        announced_total = progress.total;
      });
  EXPECT_EQ(announced.size(), outcomes.size());
  EXPECT_EQ(announced_total, outcomes.size());
  EXPECT_EQ(last_completed, outcomes.size());
  std::sort(announced.begin(), announced.end());
  for (std::size_t i = 1; i < announced.size(); ++i)
    EXPECT_NE(announced[i - 1], announced[i]);  // each cell exactly once
}

TEST(RunModelSweep, ThrowingCellDoesNotLoseSiblings) {
  SweepConfig config = tiny_config(4);
  std::atomic<bool> thrown{false};
  config.solve_override = [&](const net::TvnepInstance&, core::ModelKind,
                              const core::SolveParams&)
      -> core::TvnepSolveResult {
    if (!thrown.exchange(true)) throw std::runtime_error("cell exploded");
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kOptimal;
    return r;
  };
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  ASSERT_EQ(outcomes.size(), 4u);
  int failures = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    // Grid order survives regardless of which worker hit the throw.
    EXPECT_EQ(outcomes[i].flexibility, i < 2 ? 0.0 : 1.0);
    EXPECT_EQ(outcomes[i].seed, static_cast<int>(i % 2));
    if (outcomes[i].failed) {
      ++failures;
      EXPECT_EQ(outcomes[i].error, "cell exploded");
    } else {
      EXPECT_EQ(outcomes[i].result.status, mip::MipStatus::kOptimal);
    }
  }
  EXPECT_EQ(failures, 1);
}

TEST(RunModelSweep, NumericalFailureMarksCellFailed) {
  SweepConfig config = tiny_config(2);
  config.solve_override = [](const net::TvnepInstance&, core::ModelKind,
                             const core::SolveParams&) {
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kNumericalFailure;
    return r;
  };
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.failed);
    EXPECT_FALSE(o.error.empty());
  }
}

TEST(RunModelSweep, DegradedAnytimeResultIsKeptNotFailed) {
  SweepConfig config = tiny_config(2);
  config.solve_override = [](const net::TvnepInstance&, core::ModelKind,
                             const core::SolveParams&) {
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kNumericalLimit;
    r.has_solution = true;
    r.objective = 3.0;
    r.numerical_drops = 2;
    return r;
  };
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.failed);
    EXPECT_TRUE(o.error.empty());
    EXPECT_FALSE(o.failure_reason.empty());
    EXPECT_EQ(o.result.objective, 3.0);  // the incumbent survives
  }
}

TEST(RunModelSweep, SurvivedDropsRecordAReasonOnCleanStatuses) {
  SweepConfig config = tiny_config(2);
  config.solve_override = [](const net::TvnepInstance&, core::ModelKind,
                             const core::SolveParams&) {
    core::TvnepSolveResult r;
    r.status = mip::MipStatus::kOptimal;
    r.has_solution = true;
    r.numerical_drops = 1;  // dominated drops: optimality unaffected
    return r;
  };
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.failed);
    EXPECT_FALSE(o.failure_reason.empty());
  }
}

TEST(RunModelSweep, FaultInjectedSweepStillSolvesEveryCell) {
  // End-to-end: real solves with a per-cell fault hook active. The ladder
  // must absorb the injected failures in every cell, deterministically.
  SweepConfig config = tiny_config(2);
  config.lp_fault_period = 40;
  config.lp_fault_burst = 2;
  const auto outcomes = run_model_sweep(config, core::ModelKind::kCSigma);
  ASSERT_EQ(outcomes.size(), 4u);
  const auto clean = run_model_sweep(tiny_config(2), core::ModelKind::kCSigma);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_FALSE(outcomes[i].failed) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result.status, mip::MipStatus::kOptimal);
    EXPECT_GT(outcomes[i].result.lp_recoveries, 0);
    // Recovery changes the path, never the answer.
    EXPECT_NEAR(outcomes[i].result.objective, clean[i].result.objective,
                1e-6);
  }
}

TEST(RunModelSweep, ScalingOffSweepMatchesScalingOn) {
  SweepConfig off = tiny_config(2);
  off.lp_scaling = false;
  const auto without = run_model_sweep(off, core::ModelKind::kCSigma);
  const auto with = run_model_sweep(tiny_config(2), core::ModelKind::kCSigma);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_FALSE(without[i].failed);
    EXPECT_EQ(without[i].result.status, with[i].result.status);
    EXPECT_NEAR(without[i].result.objective, with[i].result.objective, 1e-6);
  }
}

TEST(RunGreedySweep, ParallelMatchesSerial) {
  const auto serial = run_greedy_sweep(tiny_config(1));
  const auto parallel = run_greedy_sweep(tiny_config(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].flexibility, parallel[i].flexibility);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].failed, parallel[i].failed);
    EXPECT_EQ(serial[i].result.accepted, parallel[i].result.accepted);
    EXPECT_EQ(serial[i].revenue, parallel[i].revenue);
    EXPECT_EQ(serial[i].result.complete, parallel[i].result.complete);
    ASSERT_EQ(serial[i].result.solution.requests.size(),
              parallel[i].result.solution.requests.size());
    for (std::size_t r = 0; r < serial[i].result.solution.requests.size();
         ++r)
      EXPECT_EQ(serial[i].result.solution.requests[r].accepted,
                parallel[i].result.solution.requests[r].accepted);
  }
}

}  // namespace
}  // namespace tvnep::eval
