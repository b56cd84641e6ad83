#include "linalg/dense.hpp"

#include "support/check.hpp"

namespace tvnep::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

void DenseMatrix::multiply(std::span<const double> x,
                           std::span<double> y) const {
  TVNEP_REQUIRE(x.size() == cols_ && y.size() == rows_,
                "multiply: shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += a[c] * x[c];
    y[r] = sum;
  }
}

void DenseMatrix::multiply_transposed(std::span<const double> x,
                                      std::span<double> y) const {
  TVNEP_REQUIRE(x.size() == rows_ && y.size() == cols_,
                "multiply_transposed: shape mismatch");
  for (std::size_t c = 0; c < cols_; ++c) y[c] = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += xr * a[c];
  }
}

}  // namespace tvnep::linalg
