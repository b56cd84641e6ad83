#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/journal.hpp"

namespace tvnep::linalg {
namespace {

DenseMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  DenseMatrix a(n, n);
  std::uint64_t s = seed;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      a(r, c) = static_cast<double>(static_cast<std::int64_t>(s >> 20) % 1000) /
                100.0;
    }
  // Diagonal dominance not enforced: partial pivoting must handle it.
  return a;
}

TEST(Lu, SolvesIdentity) {
  auto lu = LuFactorization::factorize(DenseMatrix::identity(4));
  ASSERT_TRUE(lu.has_value());
  std::vector<double> b{1, 2, 3, 4};
  lu->solve(b);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 4.0);
}

TEST(Lu, SolveMatchesMultiply) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const DenseMatrix a = random_matrix(8, seed);
    auto lu = LuFactorization::factorize(a);
    ASSERT_TRUE(lu.has_value()) << "seed " << seed;
    std::vector<double> x_true(8);
    for (std::size_t i = 0; i < 8; ++i) x_true[i] = static_cast<double>(i) - 3.5;
    std::vector<double> b(8);
    a.multiply(x_true, b);
    lu->solve(b);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

TEST(Lu, SolveTransposedMatchesMultiplyTransposed) {
  const DenseMatrix a = random_matrix(6, 42);
  auto lu = LuFactorization::factorize(a);
  ASSERT_TRUE(lu.has_value());
  std::vector<double> x_true{1, -2, 3, -4, 5, -6};
  std::vector<double> b(6);
  a.multiply_transposed(x_true, b);
  lu->solve_transposed(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
}

TEST(Lu, DetectsSingularMatrix) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 2; a(1, 1) = 4; a(1, 2) = 6;  // row 1 = 2 * row 0
  a(2, 0) = 1; a(2, 1) = 0; a(2, 2) = 1;
  EXPECT_FALSE(LuFactorization::factorize(a).has_value());
}

TEST(Lu, RequiresPivotingMatrix) {
  // Zero on the initial diagonal: fails without partial pivoting.
  DenseMatrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 1;
  auto lu = LuFactorization::factorize(a);
  ASSERT_TRUE(lu.has_value());
  std::vector<double> b{2.0, 3.0};  // solution x = (1, 2)
  lu->solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Lu, SingularFailureIsStructured) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 2; a(1, 1) = 4; a(1, 2) = 6;  // row 1 = 2 * row 0
  a(2, 0) = 1; a(2, 1) = 0; a(2, 2) = 1;
  LuFailure failure;
  EXPECT_FALSE(LuFactorization::factorize(a, 1e-12, &failure).has_value());
  // The dependent rows survive the first two eliminations; the breakdown
  // is at the last stage, with the best remaining pivot below threshold.
  EXPECT_EQ(failure.stage, 2u);
  EXPECT_GT(failure.threshold, 0.0);
  EXPECT_LT(failure.pivot_magnitude, failure.threshold);
}

TEST(Lu, RelativePivotToleranceRejectsNearSingular) {
  // Two nearly parallel rows at a huge scale: elimination leaves a pivot
  // of 512, which an absolute tolerance of 1e-12 would happily accept but
  // which is ~1e-14 of amax — numerically the matrix is singular at this
  // scale, and kRelativePivotTol (1e-13) must reject it.
  DenseMatrix a(2, 2);
  a(0, 0) = 1e16; a(0, 1) = 1e16;
  a(1, 0) = 1e16; a(1, 1) = 1e16 + 512.0;
  LuFailure failure;
  EXPECT_FALSE(LuFactorization::factorize(a, 1e-12, &failure).has_value());
  EXPECT_EQ(failure.stage, 1u);
  EXPECT_GE(failure.threshold, kRelativePivotTol * 1e16);
  EXPECT_NEAR(failure.pivot_magnitude, 512.0, 1e-6);
}

// ---- SparseLuBasis ------------------------------------------------------

// Diagonally dominant tridiagonal basis: always factorizable, sparse.
BasisColumns tridiagonal_basis(int m) {
  BasisColumns b(m);
  for (int c = 0; c < m; ++c) {
    b.begin_column();
    b.add(c, 4.0 + 0.1 * c);
    if (c > 0) b.add(c - 1, 1.0);
    if (c + 1 < m) b.add(c + 1, -1.0);
  }
  return b;
}

// rhs = B * x for a column-assembled basis.
std::vector<double> basis_times(const BasisColumns& b,
                                const std::vector<double>& x) {
  std::vector<double> rhs(static_cast<std::size_t>(b.rows()), 0.0);
  for (int c = 0; c < b.cols(); ++c)
    for (const auto& e : b.column(c))
      rhs[static_cast<std::size_t>(e.index)] +=
          e.value * x[static_cast<std::size_t>(c)];
  return rhs;
}

// c = B^T * y (c indexed by basis position).
std::vector<double> basis_transpose_times(const BasisColumns& b,
                                          const std::vector<double>& y) {
  std::vector<double> out(static_cast<std::size_t>(b.cols()), 0.0);
  for (int c = 0; c < b.cols(); ++c)
    for (const auto& e : b.column(c))
      out[static_cast<std::size_t>(c)] +=
          e.value * y[static_cast<std::size_t>(e.index)];
  return out;
}

TEST(BasisFactorization, SparseFtranSolvesAgainstMultiply) {
  const int m = 12;
  const BasisColumns b = tridiagonal_basis(m);
  SparseLuBasis factor;
  ASSERT_TRUE(factor.factorize(b));
  EXPECT_EQ(factor.order(), m);
  std::vector<double> x_true(m);
  for (int i = 0; i < m; ++i) x_true[static_cast<std::size_t>(i)] = i - 5.5;
  std::vector<double> rhs = basis_times(b, x_true);
  factor.ftran(rhs);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(rhs[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-9);
}

TEST(BasisFactorization, SparseBtranSolvesAgainstTransposeMultiply) {
  const int m = 12;
  const BasisColumns b = tridiagonal_basis(m);
  SparseLuBasis factor;
  ASSERT_TRUE(factor.factorize(b));
  std::vector<double> y_true(m);
  for (int i = 0; i < m; ++i) y_true[static_cast<std::size_t>(i)] = 2.0 - i;
  std::vector<double> c = basis_transpose_times(b, y_true);
  factor.btran(c);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(c[static_cast<std::size_t>(i)],
                y_true[static_cast<std::size_t>(i)], 1e-9);
}

TEST(BasisFactorization, EtaUpdateMatchesRefactorization) {
  const int m = 8;
  const BasisColumns b = tridiagonal_basis(m);
  SparseLuBasis factor;
  ASSERT_TRUE(factor.factorize(b));
  EXPECT_EQ(factor.updates_since_factorize(), 0);

  // Replace basis position 3 with a new column a = e_2 + 2 e_3 + e_5.
  std::vector<double> new_col(m, 0.0);
  new_col[2] = 1.0; new_col[3] = 2.0; new_col[5] = 1.0;
  std::vector<double> alpha = new_col;
  factor.ftran(alpha);  // alpha = B^-1 a
  ASSERT_TRUE(factor.update(3, alpha));
  EXPECT_EQ(factor.updates_since_factorize(), 1);

  // The updated factorization must solve against the modified basis.
  BasisColumns modified(m);
  for (int c = 0; c < m; ++c) {
    modified.begin_column();
    if (c == 3) {
      for (int r = 0; r < m; ++r)
        if (new_col[static_cast<std::size_t>(r)] != 0.0)
          modified.add(r, new_col[static_cast<std::size_t>(r)]);
    } else {
      for (const auto& e : b.column(c)) modified.add(e.index, e.value);
    }
  }
  std::vector<double> x_true(m);
  for (int i = 0; i < m; ++i) x_true[static_cast<std::size_t>(i)] = 1.0 + i;
  std::vector<double> rhs = basis_times(modified, x_true);
  factor.ftran(rhs);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(rhs[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-9)
        << "position " << i;

  std::vector<double> y_true(m);
  for (int i = 0; i < m; ++i) y_true[static_cast<std::size_t>(i)] = i * 0.3;
  std::vector<double> c = basis_transpose_times(modified, y_true);
  factor.btran(c);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(c[static_cast<std::size_t>(i)],
                y_true[static_cast<std::size_t>(i)], 1e-9);
}

TEST(BasisFactorization, UpdateRefusedOnTinyPivot) {
  const int m = 6;
  const BasisColumns b = tridiagonal_basis(m);
  SparseLuBasis factor;
  ASSERT_TRUE(factor.factorize(b));
  std::vector<double> alpha(m, 0.5);
  alpha[2] = 1e-12;  // |alpha_r| below the update tolerance
  EXPECT_FALSE(factor.update(2, alpha));
}

TEST(BasisFactorization, UpdateRefusedWhenBudgetExhausted) {
  const int m = 6;
  const BasisColumns b = tridiagonal_basis(m);
  SparseLuBasis factor(/*max_updates=*/2);
  ASSERT_TRUE(factor.factorize(b));
  std::vector<double> alpha(m, 0.0);
  for (int k = 0; k < 2; ++k) {
    alpha.assign(static_cast<std::size_t>(m), 0.0);
    alpha[static_cast<std::size_t>(k)] = 2.0;  // harmless diagonal rescale
    ASSERT_TRUE(factor.update(k, alpha));
  }
  alpha.assign(static_cast<std::size_t>(m), 0.0);
  alpha[4] = 2.0;
  EXPECT_FALSE(factor.update(4, alpha));  // budget spent → refactorize
  EXPECT_EQ(factor.updates_since_factorize(), 2);
}

TEST(BasisFactorization, SingularBasisFailsWithStructuredFailure) {
  const int m = 4;
  BasisColumns b(m);
  for (int c = 0; c < m; ++c) {
    b.begin_column();
    b.add(1, 1.0);  // every column identical → rank 1
  }
  SparseLuBasis factor;
  LuFailure failure;
  failure.threshold = -1.0;
  EXPECT_FALSE(factor.factorize(b, &failure));
  EXPECT_GE(failure.threshold, 0.0);  // populated by the factorization
}

TEST(BasisFactorization, FillRatioReported) {
  const BasisColumns b = tridiagonal_basis(16);
  SparseLuBasis factor;
  ASSERT_TRUE(factor.factorize(b));
  EXPECT_GT(factor.fill_ratio(), 0.0);
  // Tridiagonal elimination in natural order causes no fill at all.
  EXPECT_LE(factor.fill_ratio(), 1.5);
}

// ---- Pinned factors ----------------------------------------------------
//
// The pivot search may be re-engineered but must keep the pivot sequence,
// so the factors, and with them every FTRAN/BTRAN bit, stay as they were.
// The literals below were recorded by the build that preceded the
// count-ordered candidate search (the one that scanned every column at
// every stage). A mismatch means the solver path changed.

// FNV-1a over the raw bits of B^-1 e_i and B^-T e_i for every i.
std::uint64_t solve_hash(const SparseLuBasis& factor) {
  const int m = factor.order();
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::vector<double> x(static_cast<std::size_t>(m));
  for (int pass = 0; pass < 2; ++pass)
    for (int i = 0; i < m; ++i) {
      std::fill(x.begin(), x.end(), 0.0);
      x[static_cast<std::size_t>(i)] = 1.0;
      if (pass == 0)
        factor.ftran(x);
      else
        factor.btran(x);
      hash = fnv1a(std::string(reinterpret_cast<const char*>(x.data()),
                               x.size() * sizeof(double)),
                   hash);
    }
  return hash;
}

// Linear congruential stream, fixed across platforms.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
  double unit() { return static_cast<double>(next() % 100000) / 100000.0; }
};

// The simplex's cold-start basis: one -1 slack per row.
BasisColumns all_slack_basis(int m) {
  BasisColumns b(m);
  for (int c = 0; c < m; ++c) {
    b.begin_column();
    b.add(c, -1.0);
  }
  return b;
}

// Slack and structural columns mixed the way a simplex basis mixes them,
// plus two planted rows whose elimination cancels an entry exactly, and an
// input entry below kDropTol that the first merge through its row drops.
BasisColumns mixed_basis(int m, std::uint64_t seed) {
  Lcg rng{seed};
  BasisColumns b(m);
  for (int c = 0; c < m; ++c) {
    b.begin_column();
    if (c == 0) {  // rows 0 and 1: row 1 = row 0 / 2 on columns 0 and 1
      b.add(0, 2.0);
      b.add(1, 1.0);
      b.add(4, 1.0);
      continue;
    }
    if (c == 1) {
      b.add(0, 4.0);
      b.add(1, 2.0);
      b.add(2, 1.5);
      continue;
    }
    if (c == 2) {
      b.add(1, 1e-15);
      b.add(2, 3.0);
      continue;
    }
    if (c == 3) {  // keeps rows 0 and 1 independent
      b.add(1, 0.5);
      b.add(3, -1.0);
      continue;
    }
    if (rng.next() % 10 < 4) {
      b.add(c, -1.0);
      continue;
    }
    b.add(c, 1.0 + 2.0 * rng.unit());
    const int extra = 1 + static_cast<int>(rng.next() % 4);
    for (int t = 0; t < extra; ++t) {
      const int r = static_cast<int>(rng.next() % static_cast<std::uint64_t>(m));
      if (r != c) b.add(r, 4.0 * rng.unit() - 2.0);
    }
  }
  return b;
}

// Columns 0..3 hold one entry of 0.3 each, below the 0.5 pivot floor the
// test factorizes with, so the four lowest-count candidates all fail at
// stage 0 and the full scan picks the pivot. Column 4+j then pivots on row
// j, whose fill -(2/1) * 0.3 lifts column j over the floor.
BasisColumns fallback_basis() {
  const int m = 8;
  BasisColumns b(m);
  for (int j = 0; j < 4; ++j) {
    b.begin_column();
    b.add(j, 0.3);
  }
  for (int j = 0; j < 4; ++j) {
    b.begin_column();
    b.add(j, 1.0);
    b.add(4 + j, 2.0);
    b.add(4 + (j + 3) % 4, 0.05);
    b.add(4 + (j + 2) % 4, -0.05);
  }
  return b;
}

// Slack columns around a dense block whose columns start with more than
// 64 entries, so the candidate search also meets counts that large.
BasisColumns dense_block_basis(int m, int block, std::uint64_t seed) {
  Lcg rng{seed};
  BasisColumns b(m);
  for (int c = 0; c < m; ++c) {
    b.begin_column();
    if (c >= block) {
      b.add(c, -1.0);
      continue;
    }
    for (int r = 0; r < block; ++r) b.add(r, 4.0 * rng.unit() - 2.0);
    if (c % 3 == 0) b.add(block + c, 0.5);
  }
  return b;
}

TEST(SparseLuBasis, FactorsArePinnedAcrossVersions) {
  {
    SparseLuBasis f;
    ASSERT_TRUE(f.factorize(all_slack_basis(40)));
    EXPECT_EQ(solve_hash(f), 0xf0f9197223598e25ull) << "all-slack";
    EXPECT_EQ(f.fill_ratio(), 1.0) << "all-slack";
  }
  {
    SparseLuBasis f;
    ASSERT_TRUE(f.factorize(mixed_basis(60, 7)));
    EXPECT_EQ(solve_hash(f), 0xf6c4456a25389a58ull) << "mixed";
    EXPECT_EQ(f.fill_ratio(), 1.096551724137931) << "mixed";
  }
  {
    SparseLuBasis f(64, /*pivot_tol=*/0.5);
    ASSERT_TRUE(f.factorize(fallback_basis()));
    EXPECT_EQ(solve_hash(f), 0x923f30b87f201f14ull) << "fallback";
    EXPECT_EQ(f.fill_ratio(), 1.7) << "fallback";
  }
  {
    SparseLuBasis f;
    ASSERT_TRUE(f.factorize(dense_block_basis(150, 72, 3)));
    EXPECT_EQ(solve_hash(f), 0xc0a0013f7e3270bbull) << "dense block";
    EXPECT_EQ(f.fill_ratio(), 1.0) << "dense block";
  }
  {
    // Eta chain: three exchanges with seeded entering columns, each
    // FTRAN'd through the factors and the etas before it.
    const int m = 30;
    SparseLuBasis f;
    ASSERT_TRUE(f.factorize(mixed_basis(m, 11)));
    Lcg rng{5};
    for (int step = 0; step < 3; ++step) {
      std::vector<double> alpha(static_cast<std::size_t>(m), 0.0);
      for (int t = 0; t < 4; ++t)
        alpha[rng.next() % m] = 2.0 * rng.unit() - 1.0;
      const int leaving = static_cast<int>(rng.next() % m);
      alpha[static_cast<std::size_t>(leaving)] = 1.5 + rng.unit();
      f.ftran(alpha);
      ASSERT_TRUE(f.update(leaving, alpha)) << "step " << step;
    }
    EXPECT_EQ(f.updates_since_factorize(), 3);
    EXPECT_EQ(solve_hash(f), 0x7a26a17a76dd2d78ull) << "eta chain";
    EXPECT_EQ(f.fill_ratio(), 1.0375000000000001) << "eta chain";
  }
  {
    // Rows 2 and 3 are proportional: the last stage finds its only
    // remaining entry cancelled to exactly zero.
    BasisColumns b(5);
    const double cols[5][5] = {{1, 0, 2, 4, 0},
                               {0, 1, 1, 2, 0},
                               {0, 0, 3, 6, 1},
                               {1, 1, 0, 0, 0},
                               {0, 0, 1, 2, 1}};
    for (int c = 0; c < 5; ++c) {
      b.begin_column();
      for (int r = 0; r < 5; ++r)
        if (cols[c][r] != 0.0) b.add(r, cols[c][r]);
    }
    SparseLuBasis f;
    LuFailure failure;
    ASSERT_FALSE(f.factorize(b, &failure));
    EXPECT_EQ(failure.stage, 4u);
    EXPECT_EQ(failure.pivot_magnitude, 0.0);
    EXPECT_EQ(failure.threshold, 1e-11);
  }
}

TEST(SparseLuBasis, ReusedWorkspaceMatchesFreshInstance) {
  // One instance refactorizes bases of growing and shrinking order, and a
  // singular one in between; each result must equal a fresh instance's.
  SparseLuBasis reused;
  BasisColumns singular(3);
  for (int c = 0; c < 3; ++c) {
    singular.begin_column();
    singular.add(0, 1.0);
  }
  const BasisColumns sequence[] = {
      mixed_basis(60, 7),  all_slack_basis(40),         mixed_basis(30, 11),
      singular,            dense_block_basis(150, 72, 3), mixed_basis(60, 7)};
  for (const BasisColumns& b : sequence) {
    SparseLuBasis fresh;
    const bool ok = fresh.factorize(b);
    ASSERT_EQ(reused.factorize(b), ok);
    if (!ok) continue;
    EXPECT_EQ(solve_hash(reused), solve_hash(fresh));
    EXPECT_EQ(reused.fill_ratio(), fresh.fill_ratio());
  }
}

}  // namespace
}  // namespace tvnep::linalg
