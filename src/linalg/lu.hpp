// LU factorizations for the simplex basis.
//
// Two layers live here:
//
//  * `LuFactorization` — dense LU with partial pivoting, the small-system
//    solver behind the tests' vertex-enumeration oracle. A breakdown (no
//    pivot above the combined absolute/relative threshold) is reported as
//    a structured `LuFailure` instead of silently producing Inf/NaN
//    factors.
//
//  * `SparseLuBasis` — the basis maintenance the revised simplex drives:
//    factorize the basis from its sparse columns, FTRAN/BTRAN solves, and
//    a rank-one exchange update after each pivot. It is a sparse LU under
//    Markowitz threshold pivoting plus product-form (sparse eta) updates
//    in the Forrest–Tomlin spirit: the factorization is reused across
//    pivots and only rebuilt when the update is numerically unsafe or the
//    eta file has grown past its budget.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"

namespace tvnep::linalg {

/// Relative pivot threshold: a pivot is rejected when its magnitude falls
/// below max(absolute_tol, kRelativePivotTol * max|a_ij|), so a uniformly
/// up-scaled yet numerically singular matrix is caught instead of yielding
/// a huge-entry "inverse".
inline constexpr double kRelativePivotTol = 1e-13;

/// Structured description of a factorization breakdown: the elimination
/// stage that found no admissible pivot, the best magnitude it saw, and
/// the threshold it needed. Callers route this into their recovery ladder
/// instead of consuming Inf/NaN factors.
struct LuFailure {
  std::size_t stage = 0;
  double pivot_magnitude = 0.0;
  double threshold = 0.0;
};

/// PA = LU factorization of a square matrix with partial (row) pivoting.
class LuFactorization {
 public:
  /// Factorizes `a`; returns std::nullopt if the matrix is singular to
  /// working precision — the effective threshold is
  /// max(pivot_tol, kRelativePivotTol * max|a_ij|). When `failure` is
  /// non-null it receives the breakdown details.
  static std::optional<LuFactorization> factorize(const DenseMatrix& a,
                                                  double pivot_tol = 1e-12,
                                                  LuFailure* failure = nullptr);

  std::size_t order() const { return lu_.rows(); }

  /// Solves A x = b in place (b.size() == order()).
  void solve(std::span<double> b) const;

  /// Solves A^T x = b in place.
  void solve_transposed(std::span<double> b) const;

 private:
  LuFactorization() = default;
  DenseMatrix lu_;              // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is perm_[i] of A
};

/// Basis maintenance for the revised simplex: a sparse LU with Markowitz
/// threshold pivoting plus product-form updates. The basis B is the m×m
/// matrix whose column i is the system column of the variable basic in row
/// i; FTRAN maps a row-space right-hand side to basis-position space
/// (x = B^-1 b) and BTRAN the other way (y = B^-T c). Both solves operate
/// in place on a dense length-m span. `update` performs the rank-one
/// column exchange of a simplex pivot; a `false` return (numerically
/// unsafe, or the eta file has outgrown its budget) obliges the caller to
/// `factorize` the new basis before the next solve.
///
/// Factorization is a right-looking elimination choosing, at each stage,
/// the entry minimizing the Markowitz cost (r_i - 1)(c_j - 1) among the
/// lowest-count candidate columns, subject to the threshold
/// |a_ij| >= markowitz_tol * max|a_*j| (and the absolute/relative
/// singularity floor of `LuFailure`). Pivots land where they keep the
/// factors sparse, so FTRAN/BTRAN cost O(nnz(L+U) + nnz(etas)) instead of
/// a dense inverse's O(m^2).
///
/// The candidates of a stage are the first four active, non-empty columns
/// in (count, index) order. They come from count buckets (one bitset per
/// small count) that are updated only for the columns a stage touches, so
/// the search costs O(1) per count change and near O(1) per stage instead
/// of an O(m) scan; a full ascending scan remains the fallback when none
/// of the four admits a pivot. The same candidates in the same order give
/// the same pivot sequence and bit-identical factors. The elimination
/// workspace is kept across factorizations, so a refactorization of the
/// same order allocates nothing once warm. Memory is O(m + nnz).
///
/// Updates append sparse eta vectors (product form of the inverse); an
/// update is refused — forcing a refactorization — when the eta pivot
/// |alpha_r| < update_tol, when `max_updates` etas have accumulated, or
/// when the eta file outweighs the factors by 4x.
class SparseLuBasis {
 public:
  explicit SparseLuBasis(int max_updates = 64, double pivot_tol = 1e-11,
                         double markowitz_tol = 0.1,
                         double update_tol = 1e-9)
      : max_updates_(max_updates),
        pivot_tol_(pivot_tol),
        markowitz_tol_(markowitz_tol),
        update_tol_(update_tol) {}

  /// Factorizes the basis given in column-major sparse form. Returns false
  /// when the basis is singular to working precision; `failure` (optional)
  /// receives the breakdown details.
  bool factorize(const BasisColumns& basis, LuFailure* failure = nullptr);

  int order() const { return m_; }

  /// In-place FTRAN: on entry x holds b (row space), on exit B^-1 b.
  void ftran(std::span<double> x) const;

  /// In-place BTRAN: on entry x holds c (basis-position space), on exit
  /// B^-T c (row space).
  void btran(std::span<double> x) const;

  /// Basis exchange: the column at position `leaving_row` is replaced by
  /// the entering column whose FTRAN image is `alpha` (length m). Returns
  /// false when the caller must refactorize instead.
  bool update(int leaving_row, std::span<const double> alpha);

  /// Updates absorbed since the last factorize (telemetry).
  long updates_since_factorize() const {
    return static_cast<long>(etas_.size());
  }

  /// nnz(factors) / nnz(B) of the last factorization (fill-in telemetry).
  double fill_ratio() const;

 private:
  int max_updates_;
  double pivot_tol_;
  double markowitz_tol_;
  double update_tol_;

  int m_ = 0;
  std::size_t basis_nnz_ = 0;
  // L multipliers per elimination stage: row i of the active submatrix was
  // reduced by factor * (pivot row of stage k). Entries are (original row,
  // factor), grouped by stage.
  std::vector<SparseEntry> l_entries_;
  std::vector<std::size_t> l_start_;  // size m+1
  // U rows per stage: off-diagonal entries as (original basis position,
  // value) — every referenced position is eliminated at a later stage —
  // plus the diagonal pivot value.
  std::vector<SparseEntry> u_entries_;
  std::vector<std::size_t> u_start_;  // size m+1
  std::vector<double> u_diag_;
  std::vector<int> perm_row_;   // stage -> original row
  std::vector<int> perm_col_;   // stage -> original basis position
  std::vector<int> row_stage_;  // original row -> stage
  std::vector<int> col_stage_;  // original basis position -> stage

  // Product-form updates since the last factorization, oldest first.
  struct Eta {
    int row;       // replaced basis position r
    double pivot;  // alpha_r
    std::vector<SparseEntry> entries;  // (i, alpha_i) for i != r
  };
  std::vector<Eta> etas_;
  std::size_t eta_nnz_ = 0;

  mutable std::vector<double> scratch_;

  // The active, non-empty columns bucketed by count: one bitset over the
  // columns per count 1..kExact, one more for every larger count. Bucket
  // moves are O(1); `lowest4` walks the non-empty buckets upward and each
  // one's set bits in ascending index, which is (count, index) order, and
  // sorts only the shared last bucket by its true counts. Memory is
  // kExact + 1 bits plus one int per column.
  class ColumnBuckets {
   public:
    void reset(int m);
    void set(int col, int count);  // count <= 0 removes the column
    // The first up-to-four columns in (count, index) order; `counts` are
    // the exact counts (read only for columns past kExact).
    int lowest4(const std::vector<int>& counts, int out[4]);

   private:
    static constexpr int kExact = 63;  // kExact + 1 buckets fit nonempty_
    std::size_t words_ = 0;            // 64-bit words per bucket
    std::vector<std::uint64_t> bits_;  // bucket b: [b*words_, (b+1)*words_)
    std::array<std::size_t, kExact + 1> first_{};  // no set bit below this
    std::array<int, kExact + 1> size_{};           // columns per bucket
    std::uint64_t nonempty_ = 0;  // bit b set iff bucket b is non-empty
    std::vector<int> bucket_;     // per column: its bucket, or -1
  };

  // Elimination workspace, reused across factorizations. `rows_` is a
  // row-major copy of the active submatrix; `col_rows_` lists the rows
  // that may hold a column's entries — append-only per fill-in, stale rows
  // purged lazily during pivot search — while `col_count_` is exact.
  std::vector<std::vector<SparseEntry>> rows_;
  std::vector<std::vector<int>> col_rows_;
  std::vector<int> col_count_;
  std::vector<char> row_active_;
  std::vector<char> col_active_;
  ColumnBuckets col_buckets_;
  std::vector<double> acc_;  // dense merge accumulator, valid where mark_
  std::vector<int> mark_;    // equals the current stamp
  std::vector<int> fill_;
  std::vector<SparseEntry> col_buf_;  // active entries of a scored column
};

}  // namespace tvnep::linalg
