#include "nn/matrix.h"

#include <stdexcept>

#include "nn/gemm.h"

namespace edgeslice::nn {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::row(const std::vector<double>& v) {
  Matrix m(1, v.size());
  m.data_ = v;
  return m;
}

std::vector<double> Matrix::row_vector(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row_vector");
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

void Matrix::set_row(std::size_t r, const std::vector<double>& v) {
  if (r >= rows_ || v.size() != cols_) throw std::out_of_range("Matrix::set_row");
  std::copy(v.begin(), v.end(), data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(other, out);
  return out;
}

void Matrix::matmul_into(const Matrix& other, Matrix& out) const {
  if (cols_ != other.rows_) throw std::invalid_argument("Matrix::matmul: shape mismatch");
  if (&out == this || &out == &other)
    throw std::invalid_argument("Matrix::matmul_into: output aliases an operand");
  if (out.rows_ != rows_ || out.cols_ != other.cols_) {
    out = Matrix(rows_, other.cols_);
  } else {
    out.fill(0.0);
  }
  if (active_gemm_backend() == GemmBackend::Avx2) {
    detail::gemm_nn_avx2(data_.data(), other.data_.data(), out.data_.data(), rows_,
                         cols_, other.cols_);
  } else {
    detail::gemm_nn_scalar(data_.data(), other.data_.data(), out.data_.data(), rows_,
                           cols_, other.cols_);
  }
}

Matrix& Matrix::add_transposed_matmul(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_ || rows_ != a.cols_ || cols_ != b.cols_)
    throw std::invalid_argument("Matrix::add_transposed_matmul: shape mismatch");
  // this(i, j) += sum_k a(k, i) * b(k, j).
  if (active_gemm_backend() == GemmBackend::Avx2) {
    detail::gemm_at_avx2(a.data_.data(), b.data_.data(), data_.data(), a.cols_,
                         a.rows_, b.cols_);
  } else {
    detail::gemm_at_scalar(a.data_.data(), b.data_.data(), data_.data(), a.cols_,
                           a.rows_, b.cols_);
  }
  return *this;
}

Matrix Matrix::matmul_transposed(const Matrix& other) const {
  if (cols_ != other.cols_)
    throw std::invalid_argument("Matrix::matmul_transposed: shape mismatch");
  // out(i, j) = <row_i(this), row_j(other)>: contiguous dot products.
  Matrix out(rows_, other.rows_);
  if (active_gemm_backend() == GemmBackend::Avx2) {
    detail::gemm_bt_avx2(data_.data(), other.data_.data(), out.data_.data(), rows_,
                         cols_, other.rows_);
  } else {
    detail::gemm_bt_scalar(data_.data(), other.data_.data(), out.data_.data(), rows_,
                           cols_, other.rows_);
  }
  return out;
}

void Matrix::check_same_shape(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix: shape mismatch");
}

Matrix& Matrix::operator+=(const Matrix& other) {
  check_same_shape(other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::add_row_broadcast_assign(const Matrix& bias) {
  if (bias.rows_ != 1 || bias.cols_ != cols_)
    throw std::invalid_argument("Matrix::add_row_broadcast: bias must be 1 x cols");
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) += bias(0, c);
  return *this;
}

void Matrix::paste_columns(std::size_t c0, const Matrix& src) {
  if (src.rows_ != rows_ || c0 + src.cols_ > cols_)
    throw std::out_of_range("Matrix::paste_columns");
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < src.cols_; ++c) (*this)(r, c0 + c) = src(r, c);
}

Matrix Matrix::column_sums() const {
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(0, c) += (*this)(r, c);
  return out;
}

double Matrix::total() const {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

void Matrix::fill(double v) {
  for (auto& x : data_) x = v;
}

Matrix Matrix::slice_columns(std::size_t c0, std::size_t c1) const {
  if (c0 > c1 || c1 > cols_) throw std::out_of_range("Matrix::slice_columns");
  Matrix out(rows_, c1 - c0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = c0; c < c1; ++c) out(r, c - c0) = (*this)(r, c);
  return out;
}

Matrix hconcat(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("hconcat: row mismatch");
  // The column copy is exactly what paste_columns already implements;
  // keeping a second hand-rolled copy here let the two drift once.
  Matrix out(a.rows(), a.cols() + b.cols());
  out.paste_columns(0, a);
  out.paste_columns(a.cols(), b);
  return out;
}

}  // namespace edgeslice::nn
