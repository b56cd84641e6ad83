// Optimality certificates: every kOptimal answer of the simplex is checked
// on its own terms instead of against a second implementation. A point is
// certified optimal when, within 1e-6,
//   * it is primal feasible (column bounds and row ranges);
//   * each column's reduced cost d_j = c_j - y.A_j has the sign its
//     position allows: >= 0 at the lower bound, <= 0 at the upper bound,
//     0 strictly between;
//   * each row dual y_i has the sign of its active row bound: >= 0 only
//     at the row's lower bound, <= 0 only at its upper bound, 0 otherwise;
//   * the primal objective c.x equals the dual objective, the sum of every
//     nonzero multiplier times the bound it is active at.
// The families are random LPs, a degenerate and a rank-deficient LP, fixed
// columns, the LP relaxations of the Δ/Σ/cΣ TVNEP models, and warm-started
// bound-tightening sequences (each step also matched to a cold solve), on
// random LPs and on the cΣ relaxation of a sweep cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "lp/simplex.hpp"
#include "mip/model.hpp"
#include "support/rng.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::lp {
namespace {

constexpr double kTol = 1e-6;

// |value - bound| within kTol, relative to the bound's magnitude.
bool at(double value, double bound) {
  return std::isfinite(bound) &&
         std::fabs(value - bound) <= kTol * std::max(1.0, std::fabs(bound));
}

// The contribution of one multiplier to the dual objective: the bound it
// is active at, or the primal value itself when the multiplier is zero
// within tolerance (its term then closes the gap by construction).
double dual_term(double multiplier, double value, double lower,
                 double upper) {
  if (multiplier > kTol) return multiplier * lower;
  if (multiplier < -kTol) return multiplier * upper;
  return multiplier * value;
}

// Column bounds a solve ran under (the working bounds of a warm solver).
struct Bounds {
  std::vector<double> lower;
  std::vector<double> upper;
};

Bounds original_bounds(const Problem& p) {
  Bounds b;
  for (int j = 0; j < p.num_columns(); ++j) {
    b.lower.push_back(p.column(j).lower);
    b.upper.push_back(p.column(j).upper);
  }
  return b;
}

// Certifies the optimal point `s` holds for `p` under `bounds`.
void expect_certified(const Problem& p, const Simplex& s,
                      const Bounds& bounds, const std::string& what) {
  const int n = p.num_columns();
  const int m = p.num_rows();
  const std::vector<double> x = s.primal_solution();
  ASSERT_EQ(x.size(), static_cast<std::size_t>(n)) << what;

  std::vector<double> y(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) y[static_cast<std::size_t>(i)] = s.dual_value(i);
  std::vector<double> d(static_cast<std::size_t>(n));
  double primal_objective = 0.0;
  for (int j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    d[uj] = p.column(j).cost;
    primal_objective += p.column(j).cost * x[uj];
  }
  const auto& matrix = p.matrix();
  for (int i = 0; i < m; ++i)
    for (const auto& e : matrix.row(i))
      d[static_cast<std::size_t>(e.index)] -=
          y[static_cast<std::size_t>(i)] * e.value;
  EXPECT_NEAR(s.objective(), primal_objective,
              kTol * std::max(1.0, std::fabs(primal_objective)))
      << what;

  double dual_objective = 0.0;
  for (int j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    const double lo = bounds.lower[uj];
    const double hi = bounds.upper[uj];
    const std::string col = what + " column " + std::to_string(j);
    EXPECT_GE(x[uj], lo - kTol * std::max(1.0, std::fabs(lo))) << col;
    EXPECT_LE(x[uj], hi + kTol * std::max(1.0, std::fabs(hi))) << col;
    const bool at_lower = at(x[uj], lo);
    const bool at_upper = at(x[uj], hi);
    if (at_lower && !at_upper) {
      EXPECT_GE(d[uj], -kTol) << col;
    } else if (at_upper && !at_lower) {
      EXPECT_LE(d[uj], kTol) << col;
    } else if (!at_lower && !at_upper) {
      EXPECT_LE(std::fabs(d[uj]), kTol) << col;
    }
    dual_objective += dual_term(d[uj], x[uj], lo, hi);
  }
  for (int i = 0; i < m; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    double activity = 0.0;
    for (const auto& e : matrix.row(i))
      activity += e.value * x[static_cast<std::size_t>(e.index)];
    const double lo = p.row(i).lower;
    const double hi = p.row(i).upper;
    const std::string row = what + " row " + std::to_string(i);
    EXPECT_GE(activity, lo - kTol * std::max(1.0, std::fabs(lo))) << row;
    EXPECT_LE(activity, hi + kTol * std::max(1.0, std::fabs(hi))) << row;
    if (y[ui] > kTol) {
      EXPECT_TRUE(at(activity, lo)) << row << " y=" << y[ui];
    } else if (y[ui] < -kTol) {
      EXPECT_TRUE(at(activity, hi)) << row << " y=" << y[ui];
    }
    dual_objective += dual_term(y[ui], activity, lo, hi);
  }
  EXPECT_NEAR(primal_objective, dual_objective,
              kTol * std::max(1.0, std::fabs(primal_objective)))
      << what;
}

// Solves `p` cold; certifies the answer when it is optimal. Returns the
// status.
SolveStatus solve_and_certify(const Problem& p, const std::string& what) {
  Simplex s(p);
  const SolveStatus status = s.solve();
  if (status == SolveStatus::kOptimal)
    expect_certified(p, s, original_bounds(p), what);
  return status;
}

Problem random_lp(Rng& rng, int n, int m) {
  Problem p;
  for (int j = 0; j < n; ++j) {
    const double lo = static_cast<double>(rng.uniform_int(-3, 1));
    const double hi = lo + static_cast<double>(rng.uniform_int(0, 4));
    p.add_column(lo, hi, static_cast<double>(rng.uniform_int(-3, 3)));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < n; ++j) {
      const double c = static_cast<double>(rng.uniform_int(-3, 3));
      if (c != 0.0) coeffs.emplace_back(j, c);
    }
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const double b = static_cast<double>(rng.uniform_int(-4, 6));
    if (kind == 0) p.add_row(-kInfinity, b, coeffs);
    else if (kind == 1) p.add_row(b, kInfinity, coeffs);
    else p.add_row(b, b, coeffs);
  }
  p.finalize();
  return p;
}

TEST(SimplexCertificate, RandomLpsAreCertifiedOptimal) {
  Rng rng(4242);
  int optimal = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 8));
    const int m = static_cast<int>(rng.uniform_int(1, 6));
    const Problem p = random_lp(rng, n, m);
    if (solve_and_certify(p, "trial " + std::to_string(trial)) ==
        SolveStatus::kOptimal)
      ++optimal;
  }
  EXPECT_GT(optimal, 60);  // the generator must exercise the optimal path
}

TEST(SimplexCertificate, DegenerateLpIsCertifiedOptimal) {
  // Heavily degenerate: the optimal vertex is over-determined (every row
  // is tight there and duplicated), so the basis walks through many
  // zero-step pivots before terminating.
  Problem p;
  for (int j = 0; j < 4; ++j) p.add_column(0.0, 10.0, -1.0);
  for (int rep = 0; rep < 3; ++rep) {
    p.add_row(-kInfinity, 4.0, {{0, 1.0}, {1, 1.0}});
    p.add_row(-kInfinity, 4.0, {{1, 1.0}, {2, 1.0}});
    p.add_row(-kInfinity, 4.0, {{2, 1.0}, {3, 1.0}});
    p.add_row(-kInfinity, 4.0, {{3, 1.0}, {0, 1.0}});
  }
  p.finalize();
  ASSERT_EQ(solve_and_certify(p, "degenerate"), SolveStatus::kOptimal);
}

TEST(SimplexCertificate, RankDeficientRowsAreCertifiedOptimal) {
  // Row 2 = row 0 + row 1: any basis holding the three rows' structural
  // complements is singular, so factorization must steer around the
  // dependency.
  Problem p;
  for (int j = 0; j < 3; ++j) p.add_column(0.0, 5.0, -1.0);
  p.add_row(-kInfinity, 6.0, {{0, 1.0}, {1, 2.0}});
  p.add_row(-kInfinity, 5.0, {{1, -1.0}, {2, 1.0}});
  p.add_row(-kInfinity, 11.0, {{0, 1.0}, {1, 1.0}, {2, 1.0}});
  p.finalize();
  ASSERT_EQ(solve_and_certify(p, "rank-deficient"), SolveStatus::kOptimal);
}

TEST(SimplexCertificate, FixedColumnsAreCertifiedOptimal) {
  // Half the columns fixed (lb == ub), which pricing never scans: once in
  // the input, and once by set_bounds on a warm solver, the way branch and
  // bound fixes a column. Row 0 binds in both optima.
  Problem p;
  for (int j = 0; j < 6; ++j) {
    const bool fixed = j % 2 == 1;
    p.add_column(fixed ? 1.0 : 0.0, fixed ? 1.0 : 4.0, j % 3 == 0 ? -2.0 : 1.0);
  }
  p.add_row(-kInfinity, 6.0,
            {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}, {5, 1.0}});
  p.add_row(2.0, kInfinity, {{0, 1.0}, {2, 1.0}, {4, 1.0}});
  p.finalize();
  ASSERT_EQ(solve_and_certify(p, "input-fixed"), SolveStatus::kOptimal);

  Simplex s(p);
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  Bounds bounds = original_bounds(p);
  for (const auto& [j, value] : {std::pair{2, 1.0}, std::pair{4, 0.0}}) {
    s.set_bounds(j, value, value);
    bounds.lower[static_cast<std::size_t>(j)] = value;
    bounds.upper[static_cast<std::size_t>(j)] = value;
  }
  ASSERT_EQ(s.solve(), SolveStatus::kOptimal);
  expect_certified(p, s, bounds, "branch-fixed");
}

TEST(SimplexCertificate, TvnepRelaxationsAreCertifiedOptimal) {
  // LP relaxations of real grid/star TVNEP models — the workload the node
  // LPs actually see, big-M time-linking rows included. Eight requests on
  // four nodes overbook the substrate, so capacity rows bind and carry
  // row duals for the certificate to check.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = 8;
  params.seed = 5;
  params.flexibility = 1.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  for (const core::ModelKind kind :
       {core::ModelKind::kDelta, core::ModelKind::kSigma,
        core::ModelKind::kCSigma}) {
    const auto formulation = core::build_formulation(instance, kind, {});
    std::vector<bool> is_integer;
    const Problem p = formulation->model().to_lp(&is_integer);
    EXPECT_EQ(solve_and_certify(p, core::to_string(kind)),
              SolveStatus::kOptimal);
  }
}

TEST(SimplexCertificate, WarmStartSequencesMatchColdSolves) {
  // A branch-and-bound-style sequence of bound tightenings on one warm
  // solver: every step must give the status and objective of a cold solver
  // on the same bounds, and its optimal points must be certified.
  Rng rng(31);
  int optimal = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 7));
    const int m = static_cast<int>(rng.uniform_int(2, 5));
    const Problem p = random_lp(rng, n, m);
    Simplex warm(p);
    Bounds bounds = original_bounds(p);
    for (int step = 0; step < 12; ++step) {
      const std::string what =
          "trial " + std::to_string(trial) + " step " + std::to_string(step);
      const int j = static_cast<int>(rng.uniform_int(0, n - 1));
      const double lo = p.column(j).lower;
      const double hi = p.column(j).upper;
      double a = lo + (hi - lo) * rng.uniform01();
      double b = lo + (hi - lo) * rng.uniform01();
      if (a > b) std::swap(a, b);
      if (rng.uniform01() < 0.25) {
        warm.reset_bounds();
        bounds = original_bounds(p);
      } else {
        warm.set_bounds(j, a, b);
        bounds.lower[static_cast<std::size_t>(j)] = a;
        bounds.upper[static_cast<std::size_t>(j)] = b;
      }
      Simplex cold(p);
      for (int k = 0; k < n; ++k)
        cold.set_bounds(k, bounds.lower[static_cast<std::size_t>(k)],
                        bounds.upper[static_cast<std::size_t>(k)]);
      const SolveStatus ws = warm.solve();
      const SolveStatus cs = cold.solve();
      ASSERT_EQ(ws, cs) << what << ": warm=" << to_string(ws)
                        << " cold=" << to_string(cs);
      if (ws != SolveStatus::kOptimal) continue;
      ++optimal;
      EXPECT_NEAR(warm.objective(), cold.objective(), kTol) << what;
      expect_certified(p, warm, bounds, what);
    }
  }
  EXPECT_GT(optimal, 0);
}

TEST(SimplexCertificate, WarmStartSequencesMatchColdSolvesOnCSigmaCell) {
  // The cΣ relaxation of a sweep cell (3x4 grid, six three-leaf stars,
  // seed 1, flexibility 2) under random branch-and-bound bounds: fix a
  // fractional integer column of the last optimum down or up, and start
  // over from the original bounds when a branch turns infeasible. Every
  // warm solve must match a cold solve, be certified, and be finished by
  // the dual without its iteration guard.
  workload::WorkloadParams params;
  params.grid_rows = 3;
  params.grid_cols = 4;
  params.star_leaves = 3;
  params.num_requests = 6;
  params.seed = 1;
  params.flexibility = 2.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  const auto formulation =
      core::build_formulation(instance, core::ModelKind::kCSigma, {});
  std::vector<bool> is_integer;
  const Problem p = formulation->model().to_lp(&is_integer);
  Rng rng(7);
  Simplex warm(p);
  Bounds bounds = original_bounds(p);
  int optimal = 0;
  int warm_solves = 0;
  for (int step = 0; step < 24; ++step) {
    const std::string what = "cSigma step " + std::to_string(step);
    const SolveStatus ws = warm.solve();
    if (step > 0) {
      Simplex cold(p);
      for (int j = 0; j < p.num_columns(); ++j)
        cold.set_bounds(j, bounds.lower[static_cast<std::size_t>(j)],
                        bounds.upper[static_cast<std::size_t>(j)]);
      const SolveStatus cs = cold.solve();
      ASSERT_EQ(ws, cs) << what << ": warm=" << to_string(ws)
                        << " cold=" << to_string(cs);
      ASSERT_TRUE(warm.stats().warm_started) << what;
      ++warm_solves;
      if (ws == SolveStatus::kOptimal) {
        EXPECT_NEAR(warm.objective(), cold.objective(),
                    kTol * std::max(1.0, std::fabs(cold.objective())))
            << what;
      }
    }
    EXPECT_FALSE(warm.stats().dual_fallback) << what;
    std::vector<int> fractional;
    if (ws == SolveStatus::kOptimal) {
      ++optimal;
      expect_certified(p, warm, bounds, what);
      const std::vector<double> x = warm.primal_solution();
      for (int j = 0; j < p.num_columns(); ++j) {
        const double v = x[static_cast<std::size_t>(j)];
        if (is_integer[static_cast<std::size_t>(j)] &&
            std::fabs(v - std::round(v)) > 1e-6)
          fractional.push_back(j);
      }
    }
    if (fractional.empty()) {
      warm.reset_bounds();
      bounds = original_bounds(p);
      continue;
    }
    const int j = fractional[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(fractional.size()) - 1))];
    const double v = warm.primal_solution()[static_cast<std::size_t>(j)];
    auto& lo = bounds.lower[static_cast<std::size_t>(j)];
    auto& hi = bounds.upper[static_cast<std::size_t>(j)];
    if (rng.uniform01() < 0.5) hi = std::floor(v);
    else lo = std::ceil(v);
    warm.set_bounds(j, lo, hi);
  }
  EXPECT_GT(optimal, 12);
  EXPECT_EQ(warm_solves, 23);
}

}  // namespace
}  // namespace tvnep::lp
