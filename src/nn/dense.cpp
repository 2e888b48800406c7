#include "nn/dense.h"

#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"

namespace edgeslice::nn {

Dense::Dense(std::size_t in, std::size_t out, Activation activation, Rng& rng)
    : activation_(activation),
      weights_(in, out),
      bias_(1, out),
      weight_grad_(in, out),
      bias_grad_(1, out) {
  // He-style initialization scaled for the rectifier family; also a sane
  // default for tanh/sigmoid at these widths.
  const double scale = std::sqrt(2.0 / static_cast<double>(in));
  for (auto& w : weights_.data()) w = rng.normal(0.0, scale);
}

const Matrix& Dense::forward(const Matrix& x) {
  cached_input_ = x;
  if (grad_reads_pre_activation(activation_)) {
    // infer_into()'s scalar steps, keeping Z on the way.
    x.matmul_into(weights_, cached_pre_activation_);
    cached_pre_activation_.add_row_broadcast_assign(bias_);
    cached_output_ = cached_pre_activation_;
    activate_assign(cached_output_, activation_);
  } else {
    infer_into(x, cached_output_);
  }
  return cached_output_;
}

void Dense::infer_into(const Matrix& x, Matrix& out) const {
  if (active_gemm_backend() != GemmBackend::Avx2) {
    x.matmul_into(weights_, out);
    out.add_row_broadcast_assign(bias_);
    activate_assign(out, activation_);
    return;
  }
  // Fused: one kernel writes act(x W + b), so `out` needs no zero-fill.
  if (x.cols() != weights_.rows())
    throw std::invalid_argument("Dense::infer_into: input width mismatch");
  if (&out == &x) throw std::invalid_argument("Dense::infer_into: output aliases input");
  if (out.rows() != x.rows() || out.cols() != out_dim()) out = Matrix(x.rows(), out_dim());
  detail::dense_avx2(x.data().data(), weights_.data().data(), bias_.data().data(),
                     out.data().data(), x.rows(), x.cols(), out_dim(), activation_);
}

Matrix Dense::backward(const Matrix& grad_out, Backprop pass) {
  // dL/dZ = act'(Z) ⊙ dL/dY
  activate_grad_product(
      grad_reads_pre_activation(activation_) ? cached_pre_activation_ : cached_output_,
      grad_out, activation_, grad_pre_activation_);
  if (pass != Backprop::Input) {
    weight_grad_.add_transposed_matmul(cached_input_, grad_pre_activation_);
    bias_grad_ += grad_pre_activation_.column_sums();
  }
  if (pass == Backprop::Parameters) return {};
  return grad_pre_activation_.matmul_transposed(weights_);
}

void Dense::zero_grad() {
  weight_grad_.fill(0.0);
  bias_grad_.fill(0.0);
}

}  // namespace edgeslice::nn
