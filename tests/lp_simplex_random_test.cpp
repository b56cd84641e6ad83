// Property tests: the simplex against a brute-force vertex enumerator.
//
// Every variable is box-bounded, so the feasible region (if nonempty) is a
// polytope and the optimum is attained at a vertex. A vertex is the unique
// solution of n tight constraints chosen from {x_j = lo_j, x_j = up_j,
// a_i.x = rlo_i, a_i.x = rup_i}; enumerating all n-subsets and keeping the
// feasible ones yields the exact optimum to compare against.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "linalg/lu.hpp"
#include "lp/simplex.hpp"
#include "support/rng.hpp"

namespace tvnep::lp {
namespace {

struct RandomLp {
  Problem problem;
  int n = 0;
  int m = 0;
};

RandomLp make_random_lp(Rng& rng) {
  RandomLp out;
  out.n = static_cast<int>(rng.uniform_int(1, 4));
  out.m = static_cast<int>(rng.uniform_int(0, 3));
  for (int j = 0; j < out.n; ++j) {
    const double lo = static_cast<double>(rng.uniform_int(-3, 1));
    const double hi = lo + static_cast<double>(rng.uniform_int(0, 4));
    const double cost = static_cast<double>(rng.uniform_int(-3, 3));
    out.problem.add_column(lo, hi, cost);
  }
  for (int i = 0; i < out.m; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < out.n; ++j) {
      const double c = static_cast<double>(rng.uniform_int(-3, 3));
      if (c != 0.0) coeffs.emplace_back(j, c);
    }
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const double b = static_cast<double>(rng.uniform_int(-4, 6));
    if (kind == 0) out.problem.add_row(-kInfinity, b, coeffs);
    else if (kind == 1) out.problem.add_row(b, kInfinity, coeffs);
    else out.problem.add_row(b, b, coeffs);
  }
  out.problem.finalize();
  return out;
}

bool point_feasible(const RandomLp& lp, const std::vector<double>& x,
                    double tol) {
  for (int j = 0; j < lp.n; ++j) {
    const auto& col = lp.problem.column(j);
    if (x[static_cast<std::size_t>(j)] < col.lower - tol) return false;
    if (x[static_cast<std::size_t>(j)] > col.upper + tol) return false;
  }
  for (int i = 0; i < lp.m; ++i) {
    double activity = 0.0;
    for (const auto& entry : lp.problem.matrix().row(i))
      activity += entry.value * x[static_cast<std::size_t>(entry.index)];
    if (activity < lp.problem.row(i).lower - tol) return false;
    if (activity > lp.problem.row(i).upper + tol) return false;
  }
  return true;
}

double objective_of(const RandomLp& lp, const std::vector<double>& x) {
  double obj = 0.0;
  for (int j = 0; j < lp.n; ++j)
    obj += lp.problem.column(j).cost * x[static_cast<std::size_t>(j)];
  return obj;
}

// Exhaustive vertex enumeration. Returns the optimal objective or nullopt
// when no vertex is feasible (region empty).
std::optional<double> brute_force_optimum(const RandomLp& lp) {
  struct Plane {
    std::vector<double> a;  // length n
    double b;
  };
  std::vector<Plane> planes;
  for (int j = 0; j < lp.n; ++j) {
    std::vector<double> e(static_cast<std::size_t>(lp.n), 0.0);
    e[static_cast<std::size_t>(j)] = 1.0;
    planes.push_back({e, lp.problem.column(j).lower});
    planes.push_back({e, lp.problem.column(j).upper});
  }
  for (int i = 0; i < lp.m; ++i) {
    std::vector<double> a(static_cast<std::size_t>(lp.n), 0.0);
    for (const auto& entry : lp.problem.matrix().row(i))
      a[static_cast<std::size_t>(entry.index)] = entry.value;
    if (std::isfinite(lp.problem.row(i).lower))
      planes.push_back({a, lp.problem.row(i).lower});
    if (std::isfinite(lp.problem.row(i).upper))
      planes.push_back({a, lp.problem.row(i).upper});
  }

  std::optional<double> best;
  const int p = static_cast<int>(planes.size());
  std::vector<int> pick(static_cast<std::size_t>(lp.n));
  // Enumerate all n-subsets of planes via odometer.
  std::vector<int> idx(static_cast<std::size_t>(lp.n));
  for (int j = 0; j < lp.n; ++j) idx[static_cast<std::size_t>(j)] = j;
  if (lp.n > p) return best;
  for (;;) {
    linalg::DenseMatrix a(static_cast<std::size_t>(lp.n),
                          static_cast<std::size_t>(lp.n));
    std::vector<double> rhs(static_cast<std::size_t>(lp.n));
    for (int r = 0; r < lp.n; ++r) {
      const Plane& plane = planes[static_cast<std::size_t>(idx[static_cast<std::size_t>(r)])];
      for (int c = 0; c < lp.n; ++c)
        a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            plane.a[static_cast<std::size_t>(c)];
      rhs[static_cast<std::size_t>(r)] = plane.b;
    }
    if (auto lu = linalg::LuFactorization::factorize(a, 1e-9)) {
      lu->solve(rhs);
      bool sane = true;
      for (double v : rhs)
        if (!std::isfinite(v)) sane = false;
      if (sane && point_feasible(lp, rhs, 1e-7)) {
        const double obj = objective_of(lp, rhs);
        if (!best || obj < *best) best = obj;
      }
    }
    // Advance combination.
    int pos = lp.n - 1;
    while (pos >= 0 && idx[static_cast<std::size_t>(pos)] == p - lp.n + pos) --pos;
    if (pos < 0) break;
    ++idx[static_cast<std::size_t>(pos)];
    for (int r = pos + 1; r < lp.n; ++r)
      idx[static_cast<std::size_t>(r)] = idx[static_cast<std::size_t>(r - 1)] + 1;
  }
  return best;
}

TEST(SimplexRandom, MatchesBruteForceVertexEnumeration) {
  Rng rng(2024);
  int optimal_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    RandomLp lp = make_random_lp(rng);
    Simplex s(lp.problem);
    const SolveStatus status = s.solve();
    const std::optional<double> reference = brute_force_optimum(lp);
    if (reference) {
      ASSERT_EQ(status, SolveStatus::kOptimal)
          << "trial " << trial << ": brute force found optimum "
          << *reference << " but simplex returned " << to_string(status);
      EXPECT_NEAR(s.objective(), *reference, 1e-6) << "trial " << trial;
      const std::vector<double> x = s.primal_solution();
      EXPECT_TRUE(point_feasible(lp, x, 1e-6)) << "trial " << trial;
      ++optimal_count;
    } else {
      EXPECT_EQ(status, SolveStatus::kInfeasible) << "trial " << trial;
    }
  }
  // Sanity: the generator must produce a healthy mix of feasible cases.
  EXPECT_GT(optimal_count, 100);
}

TEST(SimplexRandom, WarmRestartMatchesColdSolve) {
  Rng rng(777);
  int checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomLp lp = make_random_lp(rng);
    Simplex warm(lp.problem);
    if (warm.solve() != SolveStatus::kOptimal) continue;

    // Tighten a random variable's bounds and re-solve warm vs cold.
    const int j = static_cast<int>(rng.uniform_int(0, lp.n - 1));
    const double lo = lp.problem.column(j).lower;
    const double hi = lp.problem.column(j).upper;
    const double new_lo = lo + (hi - lo) * 0.5;
    warm.set_bounds(j, new_lo, hi);
    const SolveStatus warm_status = warm.solve();

    Simplex cold(lp.problem);
    cold.set_bounds(j, new_lo, hi);
    const SolveStatus cold_status = cold.solve();

    ASSERT_EQ(warm_status, cold_status) << "trial " << trial;
    if (warm_status == SolveStatus::kOptimal) {
      EXPECT_NEAR(warm.objective(), cold.objective(), 1e-6)
          << "trial " << trial;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(SimplexRandom, RepeatedResolvesAreStable) {
  // Stress the warm-start path with a long random sequence of bound
  // changes on a single instance, comparing to cold solves throughout.
  Rng rng(99);
  RandomLp lp = make_random_lp(rng);
  while (lp.n < 3) lp = make_random_lp(rng);
  Simplex warm(lp.problem);
  for (int step = 0; step < 60; ++step) {
    const int j = static_cast<int>(rng.uniform_int(0, lp.n - 1));
    const double lo = lp.problem.column(j).lower;
    const double hi = lp.problem.column(j).upper;
    double a = lo + (hi - lo) * rng.uniform01();
    double b = lo + (hi - lo) * rng.uniform01();
    if (a > b) std::swap(a, b);
    if (rng.uniform01() < 0.3) warm.reset_bounds();
    else warm.set_bounds(j, a, b);

    Simplex cold(lp.problem);
    for (int k = 0; k < lp.n; ++k)
      cold.set_bounds(k, warm.working_lower(k), warm.working_upper(k));

    const SolveStatus ws = warm.solve();
    const SolveStatus cs = cold.solve();
    ASSERT_EQ(ws, cs) << "step " << step;
    if (ws == SolveStatus::kOptimal) {
      EXPECT_NEAR(warm.objective(), cold.objective(), 1e-6) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace tvnep::lp
