// Multi-layer perceptron: a stack of Dense layers.
//
// Matches the paper's actor/critic architecture (Sec. VI-A): two hidden
// layers of 128 LeakyReLU units, with a configurable output head
// (sigmoid for the actor, identity for the critic).
#pragma once

#include <iosfwd>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/dense.h"

namespace edgeslice::nn {

class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}. Hidden layers use `hidden`,
  /// the final layer uses `output`.
  Mlp(const std::vector<std::size_t>& sizes, Activation hidden, Activation output,
      Rng& rng);

  /// Forward pass caching intermediate state for backward().
  Matrix forward(const Matrix& x);
  /// Stateless inference (does not disturb cached training state): a
  /// wrapper over infer_into() with a fresh workspace.
  Matrix infer(const Matrix& x) const;
  /// Convenience: single input vector -> single output vector.
  std::vector<double> infer_vector(const std::vector<double>& x) const;

  /// Allocation-free inference: layer i's output lands in workspace[i]
  /// (resized to layer count / reshaped on batch change; steady-state
  /// calls allocate nothing), and the returned reference is
  /// workspace.back(). The one inference implementation: infer(),
  /// infer_vector() and batched cross-agent inference all run it, one
  /// Dense::infer_into per layer.
  const Matrix& infer_into(const Matrix& x, std::vector<Matrix>& workspace) const;

  /// Backprop dL/dOutput through the whole stack from the last
  /// forward(), computing what `pass` asks for (nn/dense.h Backprop):
  /// Full accumulates every parameter gradient and returns dL/dInput;
  /// Parameters skips the first layer's dL/dInput and returns an empty
  /// matrix; Input returns dL/dInput and leaves every parameter gradient
  /// untouched.
  Matrix backward(const Matrix& grad_out, Backprop pass = Backprop::Full);

  void zero_grad();

  /// Register all parameters with an optimizer.
  void attach_to(Adam& optimizer);

  /// Polyak soft update: this <- tau * source + (1 - tau) * this.
  /// Used for the DDPG target networks.
  void soft_update_from(const Mlp& source, double tau);

  /// Flattened parameter vector (for TRPO's natural-gradient updates).
  std::vector<double> flat_parameters() const;
  void set_flat_parameters(const std::vector<double>& theta);
  /// Flattened accumulated gradient (same ordering as flat_parameters()).
  std::vector<double> flat_gradients() const;
  std::size_t parameter_count() const;

  std::size_t in_dim() const { return layers_.front().in_dim(); }
  std::size_t out_dim() const { return layers_.back().out_dim(); }
  std::vector<Dense>& layers() { return layers_; }
  const std::vector<Dense>& layers() const { return layers_; }

  /// Layer sizes {in, hidden..., out} (the constructor's `sizes`).
  std::vector<std::size_t> layer_sizes() const;

  /// Text serialization: architecture (sizes + activations) and parameters.
  /// Round-trips exactly (values written as hex doubles). This is the
  /// legacy ".mlp" cache format (FORMATS.md "Legacy .mlp"); load()
  /// validates the header (size and activation ranges), rejects
  /// non-finite parameters, and reports the layer/offset at which a
  /// truncated parameter block ends.
  void save(std::ostream& out) const;
  static Mlp load(std::istream& in);

  /// Binary serialization via common/binio (little-endian, exact f64 bit
  /// patterns) — the "mlp network blob" embedded in checkpoint sections
  /// (FORMATS.md). Same validation posture as the text loader.
  void save_binary(std::ostream& out) const;
  static Mlp load_binary(std::istream& in);

 private:
  std::vector<Dense> layers_;
};

}  // namespace edgeslice::nn
