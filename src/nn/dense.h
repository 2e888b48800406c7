// Fully-connected layer with cached forward state for backprop.
#pragma once

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/matrix.h"

namespace edgeslice::nn {

/// Y = activation(X * W + b), X is batch x in, W is in x out, b is 1 x out.
class Dense {
 public:
  Dense(std::size_t in, std::size_t out, Activation activation, Rng& rng);

  /// Forward pass; caches X and the pre-activation Z for backward().
  Matrix forward(const Matrix& x);

  /// Forward without caching (inference only; safe to call concurrently
  /// with a cached training forward pass being alive). A wrapper over
  /// infer_into() with a fresh output.
  Matrix infer(const Matrix& x) const;

  /// Allocation-free inference into a caller-owned buffer (reshaped only
  /// on first use / batch change); `out` must not alias `x`. Under the
  /// Avx2 backend this is one fused kernel, act(x W + b) written once
  /// (nn/gemm.h dense_avx2); under Scalar it is the product, a bias pass
  /// and activate_assign. Either way it equals forward()'s output under
  /// the same backend, bit for bit.
  void infer_into(const Matrix& x, Matrix& out) const;

  /// Backward pass: given dL/dY, accumulates dL/dW, dL/db and returns dL/dX.
  Matrix backward(const Matrix& grad_out);

  /// Zero the accumulated gradients.
  void zero_grad();

  std::size_t in_dim() const { return weights_.rows(); }
  std::size_t out_dim() const { return weights_.cols(); }
  Activation activation() const { return activation_; }

  Matrix& weights() { return weights_; }
  Matrix& bias() { return bias_; }
  const Matrix& weights() const { return weights_; }
  const Matrix& bias() const { return bias_; }
  Matrix& weight_grad() { return weight_grad_; }
  Matrix& bias_grad() { return bias_grad_; }
  const Matrix& weight_grad() const { return weight_grad_; }
  const Matrix& bias_grad() const { return bias_grad_; }

 private:
  Activation activation_;
  Matrix weights_;
  Matrix bias_;
  Matrix weight_grad_;
  Matrix bias_grad_;
  Matrix cached_input_;
  Matrix cached_pre_activation_;
};

}  // namespace edgeslice::nn
