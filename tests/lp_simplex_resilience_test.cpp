// Numerical-resilience tests: geometric-mean scaling on ill-conditioned
// LPs and the staged recovery ladder driven through the deterministic
// fault-injection seam (SimplexOptions::fault_hook).
//
// The ladder tests rely on an invariant of solve(): a solve attempt that
// fails numerically consumes exactly one failing hook consultation (both
// pivot loops consult the hook before they can detect optimality), so a
// hook that fails its first k calls exercises exactly the first k ladder
// rungs — the initial attempt plus rungs 1..k-1 each eat one failure and
// the k-th attempt succeeds.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "lp/simplex.hpp"
#include "support/rng.hpp"

namespace tvnep::lp {
namespace {

// Hook failing its first `k` consultations, then passing forever.
std::function<bool(long)> fail_first(int k) {
  auto calls = std::make_shared<long>(0);
  return [calls, k](long) { return (*calls)++ < static_cast<long>(k); };
}

// A small fixed LP with a unique known optimum:
//   min -x0 - 2 x1   s.t.  x0 + x1 <= 4,  x1 <= 3,  0 <= x <= 10
// Optimum at (1, 3) with objective -7.
Problem make_reference_lp() {
  Problem p;
  p.add_column(0.0, 10.0, -1.0);
  p.add_column(0.0, 10.0, -2.0);
  p.add_row(-kInfinity, 4.0, {{0, 1.0}, {1, 1.0}});
  p.add_row(-kInfinity, 3.0, {{1, 1.0}});
  p.finalize();
  return p;
}

struct IllConditionedLp {
  Problem problem;
  int n = 0;
  int m = 0;
};

// A random LP whose rows and columns are stretched by factors spanning
// 1e-6..1e6 — the regime equilibration exists for. Bounds/costs follow the
// stretch so the instance stays feasible and bounded.
IllConditionedLp make_ill_conditioned_lp(Rng& rng) {
  IllConditionedLp out;
  out.n = static_cast<int>(rng.uniform_int(2, 5));
  out.m = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<double> col_mag(static_cast<std::size_t>(out.n));
  for (int j = 0; j < out.n; ++j) {
    const int e = static_cast<int>(rng.uniform_int(-6, 6));
    col_mag[static_cast<std::size_t>(j)] = std::pow(10.0, e);
  }
  for (int j = 0; j < out.n; ++j) {
    const double mag = col_mag[static_cast<std::size_t>(j)];
    const double lo = static_cast<double>(rng.uniform_int(-2, 1)) * mag;
    const double hi = lo + static_cast<double>(rng.uniform_int(1, 4)) * mag;
    const double cost =
        static_cast<double>(rng.uniform_int(-3, 3)) / mag;
    out.problem.add_column(lo, hi, cost);
  }
  for (int i = 0; i < out.m; ++i) {
    const double row_mag =
        std::pow(10.0, static_cast<double>(rng.uniform_int(-6, 6)));
    std::vector<std::pair<int, double>> coeffs;
    double slack = 0.0;  // row upper bound that keeps the box feasible
    for (int j = 0; j < out.n; ++j) {
      const double c = static_cast<double>(rng.uniform_int(-3, 3));
      if (c == 0.0) continue;
      const double scaled =
          c * row_mag / col_mag[static_cast<std::size_t>(j)];
      coeffs.emplace_back(j, scaled);
      const auto& col = out.problem.column(j);
      slack += std::max(scaled * col.lower, scaled * col.upper);
    }
    if (coeffs.empty()) continue;
    out.problem.add_row(-kInfinity, slack, coeffs);
  }
  out.problem.finalize();
  return out;
}

bool solution_feasible(const Problem& problem,
                       const std::vector<double>& x) {
  for (int j = 0; j < problem.num_columns(); ++j) {
    const auto& col = problem.column(j);
    const double scale = std::max(1.0, std::fabs(col.upper));
    if (x[static_cast<std::size_t>(j)] < col.lower - 1e-6 * scale)
      return false;
    if (x[static_cast<std::size_t>(j)] > col.upper + 1e-6 * scale)
      return false;
  }
  for (int i = 0; i < problem.matrix().rows(); ++i) {
    double activity = 0.0;
    double magnitude = 1.0;
    for (const auto& entry : problem.matrix().row(i)) {
      activity += entry.value * x[static_cast<std::size_t>(entry.index)];
      magnitude = std::max(
          magnitude,
          std::fabs(entry.value * x[static_cast<std::size_t>(entry.index)]));
    }
    if (activity < problem.row(i).lower - 1e-6 * magnitude) return false;
    if (activity > problem.row(i).upper + 1e-6 * magnitude) return false;
  }
  return true;
}

TEST(SimplexScaling, MatchesUnscaledOptimaOnIllConditionedLps) {
  Rng rng(4242);
  int compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const IllConditionedLp lp = make_ill_conditioned_lp(rng);

    SimplexOptions scaled_opts;
    scaled_opts.scaling = true;
    Simplex scaled(lp.problem, scaled_opts);
    const SolveStatus scaled_status = scaled.solve();

    SimplexOptions unscaled_opts;
    unscaled_opts.scaling = false;
    Simplex unscaled(lp.problem, unscaled_opts);
    const SolveStatus unscaled_status = unscaled.solve();

    // The unscaled solve is allowed to be the weaker one on this regime;
    // whenever it does find the optimum, scaling must agree with it.
    if (unscaled_status != SolveStatus::kOptimal) continue;
    ASSERT_EQ(scaled_status, SolveStatus::kOptimal) << "trial " << trial;
    const double reference = unscaled.objective();
    const double tol = 1e-6 * std::max(1.0, std::fabs(reference));
    EXPECT_NEAR(scaled.objective(), reference, tol) << "trial " << trial;
    EXPECT_TRUE(solution_feasible(lp.problem, scaled.primal_solution()))
        << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 100);
}

TEST(SimplexScaling, SolutionAndDualsComeBackInOriginalUnits) {
  // Column units differ by 1e8; the optimum is still (1, 3)-shaped after
  // stretching: min -x0 - 2e4*x1 s.t. x0 + 1e4*x1 <= 4, 1e4*x1 <= 3.
  Problem p;
  p.add_column(0.0, 10.0, -1.0);
  p.add_column(0.0, 1e-3, -2e4);
  p.add_row(-kInfinity, 4.0, {{0, 1.0}, {1, 1e4}});
  p.add_row(-kInfinity, 3.0, {{1, 1e4}});
  p.finalize();

  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -7.0, 1e-8);
  EXPECT_NEAR(s.value(0), 1.0, 1e-8);
  EXPECT_NEAR(s.value(1), 3e-4, 1e-12);
  // Duals in original row units: y = (-1, -1) for rows (<=4, <=3).
  EXPECT_NEAR(s.dual_value(0), -1.0, 1e-8);
  EXPECT_NEAR(s.dual_value(1), -1.0, 1e-8);
  // Bound queries round-trip through the scaling unchanged.
  EXPECT_DOUBLE_EQ(s.working_lower(1), 0.0);
  EXPECT_DOUBLE_EQ(s.working_upper(1), 1e-3);
}

TEST(SimplexScaling, SetCostAndSetBoundsOperateInOriginalUnits) {
  Problem p;
  p.add_column(0.0, 1e6, -1e-6);
  p.add_column(0.0, 2.0, 0.0);
  p.add_row(-kInfinity, 1e6, {{0, 1.0}, {1, 1e5}});
  p.finalize();

  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -1.0, 1e-9);

  // Flip the second column into the objective and cap the first.
  s.set_cost(1, -10.0);
  s.set_bounds(0, 0.0, 0.0);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -20.0, 1e-9);
  EXPECT_NEAR(s.value(1), 2.0, 1e-9);
}

// --- Recovery-ladder tests --------------------------------------------

struct LadderOutcome {
  SolveStatus status = SolveStatus::kNumericalFailure;
  SolveStats stats;
  double objective = 0.0;
};

LadderOutcome run_ladder(int failures, bool recovery = true) {
  const Problem p = make_reference_lp();
  SimplexOptions opts;
  opts.recovery = recovery;
  opts.fault_hook = fail_first(failures);
  Simplex s(p, opts);
  LadderOutcome out;
  out.status = s.solve();
  out.stats = s.stats();
  out.objective = s.objective();
  return out;
}

TEST(SimplexRecovery, FirstFailureIsClearedByRefactorize) {
  const LadderOutcome out = run_ladder(1);
  EXPECT_EQ(out.status, SolveStatus::kOptimal);
  EXPECT_NEAR(out.objective, -7.0, 1e-9);
  EXPECT_EQ(out.stats.recover_refactorize, 1);
  EXPECT_EQ(out.stats.recover_bland, 0);
  EXPECT_EQ(out.stats.recover_perturb, 0);
  EXPECT_EQ(out.stats.recover_cold, 0);
  EXPECT_EQ(out.stats.recoveries(), 1);
}

TEST(SimplexRecovery, SecondFailureEscalatesToBland) {
  const LadderOutcome out = run_ladder(2);
  EXPECT_EQ(out.status, SolveStatus::kOptimal);
  EXPECT_NEAR(out.objective, -7.0, 1e-9);
  EXPECT_EQ(out.stats.recover_refactorize, 1);
  EXPECT_EQ(out.stats.recover_bland, 1);
  EXPECT_EQ(out.stats.recover_perturb, 0);
  EXPECT_EQ(out.stats.recover_cold, 0);
}

TEST(SimplexRecovery, ThirdFailureEscalatesToPerturbation) {
  const LadderOutcome out = run_ladder(3);
  EXPECT_EQ(out.status, SolveStatus::kOptimal);
  EXPECT_NEAR(out.objective, -7.0, 1e-9);
  EXPECT_EQ(out.stats.recover_refactorize, 1);
  EXPECT_EQ(out.stats.recover_bland, 1);
  EXPECT_EQ(out.stats.recover_perturb, 1);
  EXPECT_EQ(out.stats.recover_cold, 0);
}

TEST(SimplexRecovery, FourthFailureEscalatesToColdRestart) {
  const LadderOutcome out = run_ladder(4);
  EXPECT_EQ(out.status, SolveStatus::kOptimal);
  EXPECT_NEAR(out.objective, -7.0, 1e-9);
  EXPECT_EQ(out.stats.recover_refactorize, 1);
  EXPECT_EQ(out.stats.recover_bland, 1);
  EXPECT_EQ(out.stats.recover_perturb, 1);
  EXPECT_EQ(out.stats.recover_cold, 1);
}

TEST(SimplexRecovery, ExhaustedLadderReportsNumericalFailure) {
  const LadderOutcome out = run_ladder(1000);
  EXPECT_EQ(out.status, SolveStatus::kNumericalFailure);
  EXPECT_EQ(out.stats.recover_refactorize, 1);
  EXPECT_EQ(out.stats.recover_bland, 1);
  EXPECT_EQ(out.stats.recover_perturb, 1);
  EXPECT_EQ(out.stats.recover_cold, 1);
  EXPECT_EQ(out.stats.recoveries(), 4);
}

TEST(SimplexRecovery, DisabledRecoverySurfacesTheRawFailure) {
  const LadderOutcome out = run_ladder(1, /*recovery=*/false);
  EXPECT_EQ(out.status, SolveStatus::kNumericalFailure);
  EXPECT_EQ(out.stats.recoveries(), 0);
}

TEST(SimplexRecovery, StatsResetBetweenSolves) {
  const Problem p = make_reference_lp();
  SimplexOptions opts;
  opts.fault_hook = fail_first(1);
  Simplex s(p, opts);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  ASSERT_EQ(s.stats().recoveries(), 1);
  // The hook has burned its failure; the next solve must be clean.
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_EQ(s.stats().recoveries(), 0);
  EXPECT_NEAR(s.objective(), -7.0, 1e-9);
}

TEST(SimplexRecovery, PerturbRungRestoresWorkingBounds) {
  const Problem p = make_reference_lp();
  SimplexOptions opts;
  opts.fault_hook = fail_first(3);  // rung 3 (perturb) clears the failure
  Simplex s(p, opts);
  s.set_bounds(0, 0.0, 0.5);  // binds: unconstrained optimum has x0 = 1
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  ASSERT_EQ(s.stats().recover_perturb, 1);
  // The perturbation must not leak into the working bounds or the
  // reported solution.
  EXPECT_DOUBLE_EQ(s.working_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(s.working_upper(0), 0.5);
  EXPECT_LE(s.value(0), 0.5 + 1e-9);
  EXPECT_NEAR(s.objective(), -6.5, 1e-8);  // x = (0.5, 3)
}

TEST(SimplexRecovery, WarmStartedResolveRecoversToo) {
  // Fail the first consultation of the *second* solve: the warm dual
  // attempt dies and the ladder must still land on the right optimum.
  const Problem p = make_reference_lp();
  auto calls = std::make_shared<long>(0);
  auto fail_at = std::make_shared<long>(-1);
  SimplexOptions opts;
  opts.fault_hook = [calls, fail_at](long) {
    const long c = (*calls)++;
    return *fail_at >= 0 && c == *fail_at;
  };
  Simplex s(p, opts);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  *fail_at = *calls;  // next consultation fails
  s.set_bounds(1, 0.0, 1.0);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_GE(s.stats().recoveries(), 1);
  EXPECT_NEAR(s.objective(), -5.0, 1e-8);  // x = (3, 1)
}

// --- Basis-update fault seam ------------------------------------------
//
// SimplexOptions::basis_update_fault_hook makes the post-pivot eta update
// report failure, driving the simplex down its refactorize-instead path —
// the same path a genuine Forrest-Tomlin/eta refusal (tiny pivot, budget
// exhausted, runaway eta fill) takes.

TEST(SimplexBasisUpdateFault, RefusedUpdateFallsBackToRefactorize) {
  const Problem p = make_reference_lp();
  SimplexOptions opts;
  opts.basis_update_fault_hook = fail_first(1);
  Simplex s(p, opts);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -7.0, 1e-9);
  // The refusal is absorbed below the recovery ladder: the update's
  // refactorization fallback clears it without a failed attempt.
  EXPECT_GE(s.stats().refactorizations, 1);
  EXPECT_EQ(s.stats().recoveries(), 0);
}

TEST(SimplexBasisUpdateFault, EveryUpdateRefusedStillSolves) {
  const Problem p = make_reference_lp();
  SimplexOptions opts;
  opts.basis_update_fault_hook = [](long) { return true; };
  Simplex s(p, opts);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -7.0, 1e-9);
  EXPECT_EQ(s.stats().basis_updates, 0);  // no update ever succeeded
  EXPECT_GE(s.stats().refactorizations, 1);
}

TEST(SimplexBasisUpdateFault, FaultedSolveMatchesCleanOnRandomLps) {
  Rng rng(515);
  int compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const IllConditionedLp lp = make_ill_conditioned_lp(rng);
    Simplex clean(lp.problem);
    if (clean.solve() != SolveStatus::kOptimal) continue;
    SimplexOptions opts;
    opts.basis_update_fault_hook = fail_first(
        static_cast<int>(rng.uniform_int(1, 5)));
    Simplex faulted(lp.problem, opts);
    ASSERT_EQ(faulted.solve(), SolveStatus::kOptimal) << "trial " << trial;
    const double tol = 1e-6 * std::max(1.0, std::fabs(clean.objective()));
    EXPECT_NEAR(faulted.objective(), clean.objective(), tol)
        << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 15);
}

TEST(SimplexBasisUpdateFault, TinyUpdateBudgetForcesGenuineRefusals) {
  // refactor_interval = 1 exhausts the sparse backend's eta budget after
  // one absorbed update, so the genuine (non-hook) refusal path runs on
  // every later pivot.
  const Problem p = make_reference_lp();
  SimplexOptions opts;
  opts.refactor_interval = 1;
  Simplex s(p, opts);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -7.0, 1e-9);
  EXPECT_LE(s.stats().basis_updates, 1 + s.stats().refactorizations);
}

TEST(SimplexRecovery, LadderHandlesGenuineIllConditioning) {
  // Random ill-conditioned instances with injected faults on top: the
  // recovered optimum must match a clean solve of the same instance.
  Rng rng(2026);
  int recovered = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const IllConditionedLp lp = make_ill_conditioned_lp(rng);
    Simplex clean(lp.problem);
    if (clean.solve() != SolveStatus::kOptimal) continue;

    SimplexOptions opts;
    opts.fault_hook = fail_first(static_cast<int>(rng.uniform_int(1, 4)));
    Simplex faulted(lp.problem, opts);
    ASSERT_EQ(faulted.solve(), SolveStatus::kOptimal) << "trial " << trial;
    ASSERT_GE(faulted.stats().recoveries(), 1) << "trial " << trial;
    const double tol =
        1e-6 * std::max(1.0, std::fabs(clean.objective()));
    EXPECT_NEAR(faulted.objective(), clean.objective(), tol)
        << "trial " << trial;
    ++recovered;
  }
  EXPECT_GT(recovered, 30);
}

}  // namespace
}  // namespace tvnep::lp
