#include "linalg/dense.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tvnep::linalg {
namespace {

TEST(DenseMatrix, IdentityMultiplyIsIdentity) {
  const DenseMatrix eye = DenseMatrix::identity(3);
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(3);
  eye.multiply(x, y);
  EXPECT_EQ(y, x);
}

TEST(DenseMatrix, MultiplyRectangular) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const std::vector<double> x{1.0, 1.0, 1.0};
  std::vector<double> y(2);
  a.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(DenseMatrix, MultiplyTransposed) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y(3);
  a.multiply_transposed(x, y);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 15.0);
}

TEST(DenseMatrix, RowSpanIsMutable) {
  DenseMatrix a(2, 2);
  auto row = a.row(1);
  row[0] = 7.0;
  EXPECT_DOUBLE_EQ(a(1, 0), 7.0);
}

}  // namespace
}  // namespace tvnep::linalg
