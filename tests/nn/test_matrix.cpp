#include "nn/matrix.h"

#include <gtest/gtest.h>

#include "matrix_reference.h"

namespace edgeslice::nn {
namespace {

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, RowAndColumnFactories) {
  const auto r = Matrix::row({1, 2, 3});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  EXPECT_DOUBLE_EQ(r(0, 2), 3.0);
}

TEST(Matrix, IdentityMatmulIsIdentity) {
  Matrix m{{1, 2}, {3, 4}};
  const Matrix i{{1, 0}, {0, 1}};
  const auto p = m.matmul(i);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 4.0);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const auto c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const auto t = transpose(m);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const auto tt = transpose(t);
  EXPECT_DOUBLE_EQ(tt(1, 2), 6.0);
}

TEST(Matrix, CompoundOps) {
  Matrix a{{1, 2}};
  a += Matrix{{1, 1}};
  a += Matrix{{0.5, -4}};
  EXPECT_DOUBLE_EQ(a(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(a(0, 1), -1.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(1, 2);
  Matrix b(2, 1);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(b.add_row_broadcast_assign(a), std::invalid_argument);
}

TEST(Matrix, BroadcastBiasAdd) {
  Matrix x{{1, 2}, {3, 4}};
  x.add_row_broadcast_assign(Matrix{{10, 20}});
  EXPECT_DOUBLE_EQ(x(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(x(1, 1), 24.0);
}

TEST(Matrix, ColumnSums) {
  Matrix x{{1, 2}, {3, 4}};
  const auto s = x.column_sums();
  EXPECT_DOUBLE_EQ(s(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 6.0);
}

TEST(Matrix, MapAndTotal) {
  Matrix x{{1, -2}, {4, 0.5}};
  EXPECT_DOUBLE_EQ(x.total(), 3.5);
}

TEST(Matrix, RowVectorAndSetRow) {
  Matrix x(2, 3);
  x.set_row(1, {7, 8, 9});
  const auto r = x.row_vector(1);
  EXPECT_EQ(r, (std::vector<double>{7, 8, 9}));
  EXPECT_THROW(x.set_row(2, {1, 2, 3}), std::out_of_range);
  EXPECT_THROW(x.set_row(0, {1}), std::out_of_range);
}

TEST(Matrix, SliceColumns) {
  Matrix x{{1, 2, 3}, {4, 5, 6}};
  const auto s = x.slice_columns(1, 3);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(1, 0), 5.0);
  EXPECT_THROW(x.slice_columns(2, 4), std::out_of_range);
}

TEST(Matrix, HConcat) {
  Matrix a{{1}, {2}};
  Matrix b{{3, 4}, {5, 6}};
  const auto c = hconcat(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c(1, 2), 6.0);
  Matrix bad(3, 1);
  EXPECT_THROW(hconcat(a, bad), std::invalid_argument);
}

}  // namespace
}  // namespace edgeslice::nn
