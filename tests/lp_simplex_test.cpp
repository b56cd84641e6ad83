// Hand-crafted LP cases with known optima, covering: maximizing/minimizing,
// equality rows, ranged rows, free variables, bound flips, infeasibility,
// unboundedness, warm restarts after bound changes (the branch-and-bound
// access pattern), and degenerate problems.
#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace tvnep::lp {
namespace {

TEST(Simplex, TrivialBoundsOnlyMinimize) {
  Problem p;
  p.add_column(1.0, 4.0, 2.0, "x");  // min 2x → x = 1
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), 2.0, 1e-8);
  EXPECT_NEAR(s.value(0), 1.0, 1e-8);
}

TEST(Simplex, TrivialBoundsOnlyNegativeCost) {
  Problem p;
  p.add_column(1.0, 4.0, -2.0, "x");  // min -2x → x = 4
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(0), 4.0, 1e-8);
  EXPECT_NEAR(s.objective(), -8.0, 1e-8);
}

TEST(Simplex, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Known optimum (Dantzig's example): x = 2, y = 6, obj = 36.
  Problem p;
  const int x = p.add_column(0.0, kInfinity, -3.0, "x");
  const int y = p.add_column(0.0, kInfinity, -5.0, "y");
  p.add_row(-kInfinity, 4.0, {{x, 1.0}});
  p.add_row(-kInfinity, 12.0, {{y, 2.0}});
  p.add_row(-kInfinity, 18.0, {{x, 3.0}, {y, 2.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -36.0, 1e-7);
  EXPECT_NEAR(s.value(x), 2.0, 1e-7);
  EXPECT_NEAR(s.value(y), 6.0, 1e-7);
}

TEST(Simplex, EqualityRow) {
  // min x + y s.t. x + y = 3, 0 <= x <= 2, 0 <= y <= 2.
  Problem p;
  const int x = p.add_column(0.0, 2.0, 1.0);
  const int y = p.add_column(0.0, 2.0, 1.0);
  p.add_row(3.0, 3.0, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), 3.0, 1e-8);
  EXPECT_NEAR(s.value(x) + s.value(y), 3.0, 1e-8);
}

TEST(Simplex, RangedRow) {
  // min x s.t. 2 <= x + y <= 5, 0 <= x,y <= 10, cost y = 0.
  Problem p;
  const int x = p.add_column(0.0, 10.0, 1.0);
  const int y = p.add_column(0.0, 10.0, 0.0);
  p.add_row(2.0, 5.0, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), 0.0, 1e-8);
  EXPECT_GE(s.value(y), 2.0 - 1e-8);
}

TEST(Simplex, FreeVariable) {
  // min x s.t. x >= -7 via row (free column).
  Problem p;
  const int x = p.add_column(-kInfinity, kInfinity, 1.0);
  p.add_row(-7.0, kInfinity, {{x, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), -7.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  // x <= 1 and x >= 2 simultaneously.
  Problem p;
  const int x = p.add_column(0.0, kInfinity, 0.0);
  p.add_row(-kInfinity, 1.0, {{x, 1.0}});
  p.add_row(2.0, kInfinity, {{x, 1.0}});
  p.finalize();
  Simplex s(p);
  EXPECT_EQ(s.solve(), SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualPair) {
  Problem p;
  const int x = p.add_column(0.0, 10.0, 0.0);
  const int y = p.add_column(0.0, 10.0, 0.0);
  p.add_row(4.0, 4.0, {{x, 1.0}, {y, 1.0}});
  p.add_row(9.0, 9.0, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  EXPECT_EQ(s.solve(), SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x with x >= 0 unconstrained above.
  Problem p;
  const int x = p.add_column(0.0, kInfinity, -1.0);
  p.add_row(0.0, kInfinity, {{x, 1.0}});
  p.finalize();
  Simplex s(p);
  EXPECT_EQ(s.solve(), SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeLowerBoundsRhs) {
  // min x + y s.t. x + y >= -4, bounds [-10, 10]: optimum -4.
  Problem p;
  const int x = p.add_column(-10.0, 10.0, 1.0);
  const int y = p.add_column(-10.0, 10.0, 1.0);
  p.add_row(-4.0, kInfinity, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -4.0, 1e-8);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple redundant constraints through the same vertex.
  Problem p;
  const int x = p.add_column(0.0, kInfinity, -1.0);
  const int y = p.add_column(0.0, kInfinity, -1.0);
  p.add_row(-kInfinity, 2.0, {{x, 1.0}, {y, 1.0}});
  p.add_row(-kInfinity, 2.0, {{x, 1.0}, {y, 1.0}});
  p.add_row(-kInfinity, 4.0, {{x, 2.0}, {y, 2.0}});
  p.add_row(-kInfinity, 1.0, {{x, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -2.0, 1e-8);
}

TEST(Simplex, WarmRestartAfterBoundTightening) {
  // The branch-and-bound access pattern: solve, tighten a bound, re-solve.
  Problem p;
  const int x = p.add_column(0.0, 1.0, -1.0);
  const int y = p.add_column(0.0, 1.0, -1.0);
  p.add_row(-kInfinity, 1.5, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -1.5, 1e-8);

  s.set_bounds(x, 0.0, 0.0);  // "branch x = 0"
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -1.0, 1e-8);
  EXPECT_NEAR(s.value(x), 0.0, 1e-8);
  EXPECT_TRUE(s.stats().warm_started);

  s.set_bounds(x, 1.0, 1.0);  // "branch x = 1"
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -1.5, 1e-8);
  EXPECT_NEAR(s.value(y), 0.5, 1e-8);

  s.reset_bounds();
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -1.5, 1e-8);
}

TEST(Simplex, DualFinishesDualInfeasibleWarmStart) {
  // min -2x - y, x + y <= 1.5, x,y in [0,1] → x=1 (at upper), y=0.5.
  Problem p;
  const int x = p.add_column(0.0, 1.0, -2.0);
  const int y = p.add_column(0.0, 1.0, -1.0);
  p.add_row(-kInfinity, 1.5, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -2.5, 1e-8);
  EXPECT_FALSE(s.stats().warm_started);
  EXPECT_FALSE(s.stats().dual_fallback);

  // Flipping x's cost to strongly positive makes the at-upper x dual
  // infeasible. The dual moves it to its lower bound and finishes.
  s.set_cost(x, 100.0);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -1.0, 1e-8);  // x=0, y=1
  EXPECT_TRUE(s.stats().warm_started);
  EXPECT_FALSE(s.stats().dual_fallback);
  EXPECT_EQ(s.stats().phase1_iterations, 0);
}

TEST(Simplex, DualRepairsBoxedFlipAndCostShiftInOneStart) {
  // min -2x - y + z, x + y <= 1.5, y + z <= 2, x,y in [0,1], z >= 0
  // → x=1 (at upper), y=0.5, z=0 (at lower, unboxed).
  Problem p;
  const int x = p.add_column(0.0, 1.0, -2.0);
  const int y = p.add_column(0.0, 1.0, -1.0);
  const int z = p.add_column(0.0, kInfinity, 1.0);
  p.add_row(-kInfinity, 1.5, {{x, 1.0}, {y, 1.0}});
  p.add_row(-kInfinity, 2.0, {{y, 1.0}, {z, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -2.5, 1e-8);
  ASSERT_EQ(s.variable_status(x), VarStatus::kAtUpper);
  ASSERT_EQ(s.variable_status(z), VarStatus::kAtLower);

  // Both nonbasics turn dual infeasible at once: boxed x is flipped to
  // its lower bound, unboxed z gets a cost shift. The shift is removed
  // again, so z must still enter: min 100x - y - 3z → x=0, y=0, z=2.
  s.set_cost(x, 100.0);
  s.set_cost(z, -3.0);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_TRUE(s.stats().warm_started);
  EXPECT_FALSE(s.stats().dual_fallback);
  EXPECT_EQ(s.stats().phase1_iterations, 0);
  EXPECT_NEAR(s.objective(), -6.0, 1e-8);
  EXPECT_NEAR(s.value(x), 0.0, 1e-8);
  EXPECT_NEAR(s.value(y), 0.0, 1e-8);
  EXPECT_NEAR(s.value(z), 2.0, 1e-8);
}

TEST(Simplex, PerturbedDualOptimumIsCleanedUpByPrimal) {
  // min (1000 + 1e-5) j - 1000 t + (1000 + 2e-5) k, t - j - k = 1, all in
  // [0, 10] → j = k = 0, t = 1, with reduced costs d_j = 1e-5 and
  // d_k = 2e-5. Raising t's lower bound to 2 makes the dual pick between
  // j and k. The cost perturbation is about 5e-4 on both, larger than
  // their gap, and it is larger on j (the per-column factor comes from a
  // hash of the index), so the perturbed dual enters k. Without the
  // perturbation k is 1e-5 worse, so the primal cleanup must pivot j in.
  Problem p;
  const int j = p.add_column(0.0, 10.0, 1000.0 + 1e-5);
  const int t = p.add_column(0.0, 10.0, -1000.0);
  const int k = p.add_column(0.0, 10.0, 1000.0 + 2e-5);
  p.add_row(1.0, 1.0, {{t, 1.0}, {j, -1.0}, {k, -1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  ASSERT_NEAR(s.value(t), 1.0, 1e-9);

  s.set_bounds(t, 2.0, 10.0);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_TRUE(s.stats().warm_started);
  EXPECT_FALSE(s.stats().dual_fallback);
  EXPECT_GE(s.stats().dual_iterations, 1);
  EXPECT_GE(s.stats().phase2_iterations, 1);  // the cleanup pivot
  EXPECT_NEAR(s.value(j), 1.0, 1e-9);
  EXPECT_NEAR(s.value(k), 0.0, 1e-9);
  EXPECT_NEAR(s.objective(), -2000.0 + 1000.0 + 1e-5, 1e-9);
}

TEST(Simplex, IdenticalSolversPivotIdentically) {
  // The cost perturbation comes from the variable index, not from any
  // random state: two solvers given the same problem and the same bound
  // sequence take the same pivots and reach bit-identical objectives.
  Problem p;
  const int n = 24;
  for (int j = 0; j < n; ++j)
    p.add_column(0.0, 1.0 + (j % 3), -1.0 - (j % 5));
  for (int i = 0; i < 10; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < n; ++j)
      if ((i * 7 + j * 3) % 4 != 0) coeffs.emplace_back(j, 1.0 + (i + j) % 4);
    p.add_row(-kInfinity, 6.0 + i, coeffs);
  }
  p.finalize();
  Simplex a(p);
  Simplex b(p);
  long dual_iterations = 0;
  for (int step = 0; step < 12; ++step) {
    if (step > 0) {
      const int j = (step * 5) % n;
      const double v = static_cast<double>(step % 2);
      a.set_bounds(j, v, v);
      b.set_bounds(j, v, v);
    }
    const SolveStatus sa = a.solve();
    ASSERT_EQ(sa, b.solve()) << "step " << step;
    EXPECT_EQ(a.total_pivots(), b.total_pivots()) << "step " << step;
    EXPECT_EQ(a.stats().dual_iterations, b.stats().dual_iterations);
    dual_iterations += a.stats().dual_iterations;
    if (sa == SolveStatus::kOptimal) {
      EXPECT_EQ(a.objective(), b.objective()) << "step " << step;
    }
  }
  EXPECT_GT(dual_iterations, 0);
}

TEST(Simplex, SeedBasisWarmStartsOrLeavesTheSolverCold) {
  // min -2x - y, x + y <= 1.5, x,y in [0,1] → x=1, y=0.5.
  Problem p;
  const int x = p.add_column(0.0, 1.0, -2.0);
  const int y = p.add_column(0.0, 1.0, -1.0);
  p.add_row(-kInfinity, 1.5, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex solved(p);
  ASSERT_EQ(solved.solve(), SolveStatus::kOptimal);
  std::vector<VarStatus> status;
  for (int v = 0; v < solved.num_total_vars(); ++v)
    status.push_back(solved.variable_status(v));

  // The optimal basis of another solver: the warm dual has nothing to do.
  Simplex seeded(p);
  ASSERT_TRUE(seeded.seed_basis(status));
  ASSERT_EQ(seeded.solve(), SolveStatus::kOptimal);
  EXPECT_TRUE(seeded.stats().warm_started);
  EXPECT_EQ(seeded.total_pivots(), 0);
  EXPECT_NEAR(seeded.objective(), -2.5, 1e-8);

  // A status that does not mark exactly m variables basic is refused;
  // the solver then starts cold and still solves.
  std::vector<VarStatus> wrong(status.size(), VarStatus::kBasic);
  Simplex cold(p);
  EXPECT_FALSE(cold.seed_basis(wrong));
  ASSERT_EQ(cold.solve(), SolveStatus::kOptimal);
  EXPECT_FALSE(cold.stats().warm_started);
  EXPECT_NEAR(cold.objective(), -2.5, 1e-8);
}

TEST(Simplex, WarmRestartDetectsChildInfeasibility) {
  Problem p;
  const int x = p.add_column(0.0, 1.0, -1.0);
  const int y = p.add_column(0.0, 1.0, -1.0);
  p.add_row(1.8, kInfinity, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  s.set_bounds(x, 0.0, 0.0);
  s.set_bounds(y, 0.0, 0.0);
  EXPECT_EQ(s.solve(), SolveStatus::kInfeasible);
  s.reset_bounds();
  EXPECT_EQ(s.solve(), SolveStatus::kOptimal);
}

TEST(Simplex, FixedVariablesRespected) {
  Problem p;
  const int x = p.add_column(2.0, 2.0, 1.0);
  const int y = p.add_column(0.0, 5.0, 1.0);
  p.add_row(3.0, kInfinity, {{x, 1.0}, {y, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), 2.0, 1e-9);
  EXPECT_NEAR(s.value(y), 1.0, 1e-8);
}

TEST(Simplex, EmptyProblemNoRows) {
  Problem p;
  p.add_column(0.0, 3.0, -1.0);
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -3.0, 1e-9);
}

TEST(Simplex, AccuracySweepKeyedOnIterationsNotLifetimePivots) {
  // A bound-flip-heavy LP: 600 columns each travel 0 → 1 without any
  // basic variable blocking, so nearly every iteration is a bound flip
  // and the lifetime pivot count stays parked near zero. The periodic
  // accuracy sweep must be keyed on the per-solve iteration counter:
  // the old total_pivots_-keyed gate sat at 0 % 512 == 0 throughout and
  // re-ran the sweep on every single bound flip.
  Problem p;
  const int n = 600;
  for (int j = 0; j < n; ++j) p.add_column(0.0, 1.0, -1.0);
  std::vector<std::pair<int, double>> coeffs;
  for (int j = 0; j < n; ++j) coeffs.emplace_back(j, 1.0);
  p.add_row(-kInfinity, 2.0 * n, coeffs);  // never binding
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective(), -static_cast<double>(n), 1e-6);
  EXPECT_GE(s.stats().phase2_iterations, n);  // one flip per column
  EXPECT_LE(s.total_pivots(), 8);
  // 600-ish iterations → exactly one 512-boundary crossed.
  EXPECT_GE(s.stats().accuracy_sweeps, 1);
  EXPECT_LE(s.stats().accuracy_sweeps, 3);
}

TEST(Simplex, DualValuesOnActiveRow) {
  // min -x with x <= 5 (row): dual reflects the binding row.
  Problem p;
  const int x = p.add_column(0.0, kInfinity, -1.0);
  p.add_row(-kInfinity, 5.0, {{x, 1.0}});
  p.finalize();
  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), 5.0, 1e-8);
  EXPECT_NEAR(std::fabs(s.dual_value(0)), 1.0, 1e-7);
}

}  // namespace
}  // namespace tvnep::lp
