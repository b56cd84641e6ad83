// Dense row-major matrix: the input of LuFactorization, which the tests'
// vertex-enumeration oracle solves its small systems with.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tvnep::linalg {

/// Dense row-major matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Identity matrix of order n.
  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Contiguous row view.
  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// y = A * x  (x.size() == cols, y.size() == rows).
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y = A^T * x  (x.size() == rows, y.size() == cols).
  void multiply_transposed(std::span<const double> x,
                           std::span<double> y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace tvnep::linalg
