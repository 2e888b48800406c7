// Activation functions for the neural network library.
//
// The paper (Sec. VI-A) uses Leaky Rectifier hidden layers and a sigmoid
// output layer; Tanh and Identity are needed by the SAC/PPO policy heads.
#pragma once

#include "nn/matrix.h"

namespace edgeslice::nn {

enum class Activation { Identity, Relu, LeakyRelu, Tanh, Sigmoid, Softplus };

/// In-place elementwise forward pass: z <- activate(z) — the scalar
/// activate() below on every element, one switch per matrix (used by
/// allocation-free inference, Mlp::infer_into).
void activate_assign(Matrix& z, Activation a);

/// True when activate_grad_product() reads the pre-activation z rather
/// than the output y = activate(z, a): only Softplus, whose derivative y
/// does not determine.
inline bool grad_reads_pre_activation(Activation a) { return a == Activation::Softplus; }

/// The backward pass's dL/dZ = act'(z) ⊙ dL/dY, written into `out`
/// (reshaped only when its shape differs), one switch per matrix.
/// `cache` is the forward pass's y = activate(z, a), or z where
/// grad_reads_pre_activation(a): the rectifiers select on y > 0 (true
/// exactly when z > 0) without a branch, and Tanh and Sigmoid reuse y as
/// tanh(z) and the sigmoid instead of computing them again. Per element
/// bit-identical to activate_grad(z, a) * g, where activate_grad is the
/// scalar derivative (the reference in tests/nn/matrix_reference.h).
/// Throws std::invalid_argument when `cache` and `grad_out` differ in
/// shape.
void activate_grad_product(const Matrix& cache, const Matrix& grad_out, Activation a,
                           Matrix& out);

/// Scalar forward pass of one element.
double activate(double z, Activation a);

/// Slope of the leaky rectifier's negative branch.
inline constexpr double kLeakyReluSlope = 0.01;

}  // namespace edgeslice::nn
