// Sparse matrix storage for LP constraint matrices.
//
// The simplex needs fast access to columns (FTRAN, pricing) and rows
// (dual pivot row); SparseMatrix therefore keeps both compressed layouts.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tvnep::linalg {

/// One nonzero entry: index into the "other" dimension plus the value.
struct SparseEntry {
  int index;
  double value;
};

/// Triplet-form builder that deduplicates (row, col) pairs by summing.
class SparseBuilder {
 public:
  SparseBuilder(int rows, int cols);

  void add(int row, int col, double value);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nonzeros() const { return triplets_.size(); }

  struct Triplet {
    int row;
    int col;
    double value;
  };
  const std::vector<Triplet>& triplets() const { return triplets_; }

 private:
  int rows_;
  int cols_;
  std::vector<Triplet> triplets_;
};

/// Column-major assembly buffer for handing a square basis matrix to
/// SparseLuBasis (linalg/lu.hpp) without the sort/deduplicate cost of
/// SparseBuilder: the simplex appends one column per basic variable, rows
/// within a column in whatever order the source stores them. Rows must not
/// repeat within a column (SparseMatrix columns are already deduplicated).
class BasisColumns {
 public:
  explicit BasisColumns(int rows);

  /// Starts the next column; entries added afterwards belong to it.
  void begin_column();
  void add(int row, double value);

  int rows() const { return rows_; }
  /// Columns appended so far (== rows() once assembly is complete).
  int cols() const { return static_cast<int>(start_.size()) - 1; }
  std::size_t nonzeros() const { return entries_.size(); }

  /// Entries of column c as (row, value) pairs, in insertion order.
  std::span<const SparseEntry> column(int c) const;

 private:
  int rows_;
  std::vector<SparseEntry> entries_;
  std::vector<std::size_t> start_;  // column c spans start_[c]..start_[c+1]
};

/// Immutable sparse matrix with both column-major and row-major layouts.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(const SparseBuilder& builder,
                        double drop_tol = 0.0);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nonzeros() const { return col_entries_.size(); }

  /// Entries of column c as (row, value) pairs, sorted by row.
  std::span<const SparseEntry> column(int c) const;

  /// Entries of row r as (col, value) pairs, sorted by col.
  std::span<const SparseEntry> row(int r) const;

  /// y += scale * column c (dense y of length rows()).
  void add_column_to(int c, double scale, std::span<double> y) const;

  /// Dot product of column c with dense vector x (length rows()).
  double column_dot(int c, std::span<const double> x) const;

  /// Replaces every entry a_ij with row_scale[i] * a_ij * col_scale[j] in
  /// both layouts (LP equilibration; both scale vectors must match the
  /// matrix dimensions). The sparsity pattern is unchanged.
  void scale(std::span<const double> row_scale,
             std::span<const double> col_scale);

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<SparseEntry> col_entries_;
  std::vector<std::size_t> col_start_;  // size cols_+1
  std::vector<SparseEntry> row_entries_;
  std::vector<std::size_t> row_start_;  // size rows_+1
};

}  // namespace tvnep::linalg
