// Fully-connected layer with cached forward state for backprop.
#pragma once

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/matrix.h"

namespace edgeslice::nn {

/// Which gradients a backward pass computes; each one its caller drops is
/// a GEMM not run.
///   Full       accumulates dL/dW and dL/db and returns dL/dX.
///   Parameters accumulates dL/dW and dL/db and returns an empty matrix
///              (a training pass of the network's own parameters).
///   Input      returns dL/dX and leaves dL/dW and dL/db untouched (a
///              pass through a network that is not being updated, such
///              as the critic in DDPG's actor update).
/// The gradients a pass does compute are bit-identical to Full's.
enum class Backprop { Full, Parameters, Input };

/// Y = activation(X * W + b), X is batch x in, W is in x out, b is 1 x out.
class Dense {
 public:
  Dense(std::size_t in, std::size_t out, Activation activation, Rng& rng);

  /// Forward pass; caches X and Y for backward() (and Z as well for
  /// Softplus, whose derivative Y does not determine) and returns the
  /// cached Y, valid until the next forward(). Y is infer_into()'s output
  /// bit for bit, computed the same way.
  const Matrix& forward(const Matrix& x);

  /// Forward without caching (inference only; safe to call concurrently
  /// with a cached training forward pass being alive), allocation-free
  /// into a caller-owned buffer (reshaped only on first use / batch
  /// change); `out` must not alias `x`. Under the
  /// Avx2 backend this is one fused kernel, act(x W + b) written once
  /// (nn/gemm.h dense_avx2); under Scalar it is the product, a bias pass
  /// and activate_assign. Either way it equals forward()'s output under
  /// the same backend, bit for bit.
  void infer_into(const Matrix& x, Matrix& out) const;

  /// Backward pass from the last forward(): given dL/dY, computes what
  /// `pass` asks for (see Backprop). dL/dZ = act'(Z) ⊙ dL/dY comes from
  /// activate_grad_product() on the cached Y (Z for Softplus).
  Matrix backward(const Matrix& grad_out, Backprop pass = Backprop::Full);

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
  Matrix cached_pre_activation_;  // Softplus only
  Matrix cached_output_;
  Matrix grad_pre_activation_;  // backward()'s dL/dZ, reused across calls
};

}  // namespace edgeslice::nn
