// Dense row-major matrix of doubles.
//
// This is the numeric substrate of the neural network library. The
// paper's actor/critic networks are 2x128 fully connected layers, so the
// products are small-to-medium GEMMs. Every product routes through the
// runtime-dispatched kernels of nn/gemm.h (scalar reference or AVX2/FMA
// microkernel, selected via EDGESLICE_GEMM); the transposed-operand
// variants avoid materializing transposes in backprop. Under either
// backend a product accumulates contributions in ascending-k order with
// one accumulator chain per element, so results are deterministic,
// independent of blocking, and — crucially for cross-agent batched
// inference — row r of a batched product is bit-identical to the 1-row
// product of row r alone.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace edgeslice::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// A 1xN row vector view of a std::vector.
  static Matrix row(const std::vector<double>& v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// The r-th row as a std::vector (copy).
  std::vector<double> row_vector(std::size_t r) const;
  /// Overwrite the r-th row.
  void set_row(std::size_t r, const std::vector<double>& v);

  /// Matrix product this * other. Dimension mismatch throws.
  Matrix matmul(const Matrix& other) const;

  /// Matrix product into a caller-owned output: out = this * other.
  /// `out` is reshaped if needed (no allocation when the shape already
  /// matches), so hot paths and kernel-only benchmarks pay for the GEMM,
  /// not for allocating and zero-filling a fresh result every call.
  /// Aliasing `out` with either operand throws.
  void matmul_into(const Matrix& other, Matrix& out) const;

  /// this * other^T without materializing the transpose (the backprop
  /// input-gradient product dZ * W^T).
  Matrix matmul_transposed(const Matrix& other) const;

  /// this += a^T * b without materializing the transpose (the backprop
  /// weight-gradient product X^T * dZ, accumulated; dimension mismatch
  /// throws). Contributions accumulate in ascending-k order, so into zeros
  /// it matches the materialized transpose times b bit-for-bit.
  Matrix& add_transposed_matmul(const Matrix& a, const Matrix& b);

  /// Elementwise sum (dimension mismatch throws).
  Matrix& operator+=(const Matrix& other);

  /// Add a 1xC row vector to every row in place (broadcast bias add).
  Matrix& add_row_broadcast_assign(const Matrix& bias);

  /// Overwrite columns [c0, c0 + src.cols()) with src (row counts must
  /// match). The in-place complement of hconcat for reusing a [A | B]
  /// buffer when only the B block changes.
  void paste_columns(std::size_t c0, const Matrix& src);

  /// Column sums as a 1xC matrix.
  Matrix column_sums() const;

  /// Sum of all elements.
  double total() const;

  void fill(double v);

  /// Columns [c0, c1) as a new matrix.
  Matrix slice_columns(std::size_t c0, std::size_t c1) const;

 private:
  void check_same_shape(const Matrix& other) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Horizontal concatenation [a | b]; row counts must match.
Matrix hconcat(const Matrix& a, const Matrix& b);

}  // namespace edgeslice::nn
