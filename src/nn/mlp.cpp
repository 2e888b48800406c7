#include "nn/mlp.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/binio.h"

namespace edgeslice::nn {

namespace {

/// Largest accepted single layer width and total parameter count. A
/// hostile header declaring astronomically wide layers must fail the
/// load cleanly instead of driving a multi-gigabyte allocation.
constexpr std::size_t kMaxLayerWidth = 1u << 20;
constexpr std::size_t kMaxParameters = 1u << 26;
constexpr int kActivationCount = static_cast<int>(Activation::Softplus) + 1;

/// Validate a deserialized architecture header; returns the total
/// parameter count. `context` names the calling loader in errors.
std::size_t validate_architecture(const std::vector<std::size_t>& sizes,
                                  const std::vector<int>& activations,
                                  const char* context) {
  if (sizes.size() < 2 || sizes.size() > 64)
    throw std::runtime_error(std::string(context) + ": bad layer count");
  std::size_t parameters = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0 || sizes[i] > kMaxLayerWidth)
      throw std::runtime_error(std::string(context) + ": bad layer size " +
                               std::to_string(sizes[i]) + " (layer " +
                               std::to_string(i) + ")");
    if (i > 0) parameters += (sizes[i - 1] + 1) * sizes[i];
  }
  if (parameters > kMaxParameters)
    throw std::runtime_error(std::string(context) + ": parameter count " +
                             std::to_string(parameters) + " exceeds limit");
  for (std::size_t i = 0; i < activations.size(); ++i) {
    if (activations[i] < 0 || activations[i] >= kActivationCount)
      throw std::runtime_error(std::string(context) + ": bad activation code " +
                               std::to_string(activations[i]) + " (layer " +
                               std::to_string(i) + ")");
  }
  return parameters;
}

/// Locate flat parameter index `idx` for error messages: which layer it
/// falls in and the offset within that layer's (weights + bias) block.
std::string describe_offset(const std::vector<std::size_t>& sizes, std::size_t idx) {
  std::size_t start = 0;
  for (std::size_t layer = 0; layer + 1 < sizes.size(); ++layer) {
    const std::size_t span = (sizes[layer] + 1) * sizes[layer + 1];
    if (idx < start + span) {
      return "layer " + std::to_string(layer) + ", offset " +
             std::to_string(idx - start) + " of " + std::to_string(span);
    }
    start += span;
  }
  return "offset " + std::to_string(idx);
}

/// Build an uninitialized net with the given architecture; parameters are
/// overwritten by the caller (the throwaway seed never surfaces).
Mlp build_for_load(const std::vector<std::size_t>& sizes,
                   const std::vector<int>& activations) {
  Rng rng(0);
  Mlp net(sizes, Activation::Identity, Activation::Identity, rng);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    net.layers()[i] =
        Dense(sizes[i], sizes[i + 1], static_cast<Activation>(activations[i]), rng);
  }
  return net;
}

}  // namespace

Mlp::Mlp(const std::vector<std::size_t>& sizes, Activation hidden, Activation output,
         Rng& rng) {
  if (sizes.size() < 2) throw std::invalid_argument("Mlp: need at least in and out sizes");
  layers_.reserve(sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    const bool last = (i + 2 == sizes.size());
    layers_.emplace_back(sizes[i], sizes[i + 1], last ? output : hidden, rng);
  }
}

Matrix Mlp::forward(const Matrix& x) {
  const Matrix* h = &x;
  for (auto& layer : layers_) h = &layer.forward(*h);
  return *h;
}

Matrix Mlp::infer(const Matrix& x) const {
  std::vector<Matrix> workspace;
  infer_into(x, workspace);
  return std::move(workspace.back());
}

const Matrix& Mlp::infer_into(const Matrix& x,
                              std::vector<Matrix>& workspace) const {
  workspace.resize(layers_.size());
  const Matrix* h = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].infer_into(*h, workspace[i]);
    h = &workspace[i];
  }
  return workspace.back();
}

std::vector<double> Mlp::infer_vector(const std::vector<double>& x) const {
  Matrix out = infer(Matrix::row(x));
  return std::move(out.data());
}

Matrix Mlp::backward(const Matrix& grad_out, Backprop pass) {
  // Every layer above the first hands its dL/dX down; only the first
  // layer's is the caller's to keep or skip.
  const Backprop upper = pass == Backprop::Input ? Backprop::Input : Backprop::Full;
  Matrix g;
  const Matrix* upstream = &grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i].backward(*upstream, upper);
    upstream = &g;
  }
  return layers_.front().backward(*upstream, pass);
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

void Mlp::attach_to(Adam& optimizer) {
  for (auto& layer : layers_) {
    optimizer.attach(&layer.weights(), &layer.weight_grad());
    optimizer.attach(&layer.bias(), &layer.bias_grad());
  }
}

void Mlp::soft_update_from(const Mlp& source, double tau) {
  if (source.layers_.size() != layers_.size())
    throw std::invalid_argument("Mlp::soft_update_from: architecture mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto& w = layers_[i].weights().data();
    auto& b = layers_[i].bias().data();
    const auto& sw = source.layers_[i].weights().data();
    const auto& sb = source.layers_[i].bias().data();
    for (std::size_t j = 0; j < w.size(); ++j) w[j] = tau * sw[j] + (1.0 - tau) * w[j];
    for (std::size_t j = 0; j < b.size(); ++j) b[j] = tau * sb[j] + (1.0 - tau) * b[j];
  }
}

std::vector<double> Mlp::flat_parameters() const {
  std::vector<double> theta;
  theta.reserve(parameter_count());
  for (const auto& layer : layers_) {
    const auto& w = layer.weights().data();
    const auto& b = layer.bias().data();
    theta.insert(theta.end(), w.begin(), w.end());
    theta.insert(theta.end(), b.begin(), b.end());
  }
  return theta;
}

void Mlp::set_flat_parameters(const std::vector<double>& theta) {
  if (theta.size() != parameter_count())
    throw std::invalid_argument("Mlp::set_flat_parameters: size mismatch");
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    auto& w = layer.weights().data();
    auto& b = layer.bias().data();
    std::copy(theta.begin() + static_cast<std::ptrdiff_t>(offset),
              theta.begin() + static_cast<std::ptrdiff_t>(offset + w.size()), w.begin());
    offset += w.size();
    std::copy(theta.begin() + static_cast<std::ptrdiff_t>(offset),
              theta.begin() + static_cast<std::ptrdiff_t>(offset + b.size()), b.begin());
    offset += b.size();
  }
}

std::vector<double> Mlp::flat_gradients() const {
  std::vector<double> g;
  g.reserve(parameter_count());
  for (const auto& layer : layers_) {
    const auto& w = layer.weight_grad().data();
    const auto& b = layer.bias_grad().data();
    g.insert(g.end(), w.begin(), w.end());
    g.insert(g.end(), b.begin(), b.end());
  }
  return g;
}

void Mlp::save(std::ostream& out) const {
  out << "mlp v1\n" << layers_.size() + 1 << "\n";
  out << layers_.front().in_dim();
  for (const auto& layer : layers_) out << " " << layer.out_dim();
  out << "\n";
  for (const auto& layer : layers_) {
    out << static_cast<int>(layer.activation()) << " ";
  }
  out << "\n";
  char buffer[32];
  for (const double v : flat_parameters()) {
    std::snprintf(buffer, sizeof(buffer), "%a\n", v);
    out << buffer;
  }
}

Mlp Mlp::load(std::istream& in) {
  std::string magic;
  std::string version;
  in >> magic >> version;
  if (magic != "mlp" || version != "v1")
    throw std::runtime_error("Mlp::load: bad header");
  std::size_t size_count = 0;
  in >> size_count;
  if (!in || size_count < 2 || size_count > 64)
    throw std::runtime_error("Mlp::load: bad sizes");
  std::vector<std::size_t> sizes(size_count);
  for (auto& s : sizes) in >> s;
  std::vector<int> activations(size_count - 1);
  for (auto& a : activations) in >> a;
  if (!in) throw std::runtime_error("Mlp::load: truncated header");
  validate_architecture(sizes, activations, "Mlp::load");

  Mlp net = build_for_load(sizes, activations);
  std::vector<double> theta(net.parameter_count());
  std::string token;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    in >> token;
    if (!in) {
      throw std::runtime_error("Mlp::load: truncated parameters (" +
                               describe_offset(sizes, i) + ")");
    }
    char* end = nullptr;
    theta[i] = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      throw std::runtime_error("Mlp::load: malformed parameter \"" + token + "\" (" +
                               describe_offset(sizes, i) + ")");
    }
    if (!std::isfinite(theta[i])) {
      throw std::runtime_error("Mlp::load: non-finite parameter (" +
                               describe_offset(sizes, i) + ")");
    }
  }
  net.set_flat_parameters(theta);
  return net;
}

void Mlp::save_binary(std::ostream& out) const {
  const std::vector<std::size_t> sizes = layer_sizes();
  write_u32(out, static_cast<std::uint32_t>(sizes.size()));
  for (std::size_t s : sizes) write_u64(out, s);
  for (const auto& layer : layers_) {
    write_u8(out, static_cast<std::uint8_t>(layer.activation()));
  }
  for (const double v : flat_parameters()) write_f64(out, v);
}

Mlp Mlp::load_binary(std::istream& in) {
  const std::uint32_t size_count = read_u32(in, "Mlp::load_binary");
  if (size_count < 2 || size_count > 64)
    throw std::runtime_error("Mlp::load_binary: bad layer count");
  std::vector<std::size_t> sizes(size_count);
  for (auto& s : sizes) {
    s = static_cast<std::size_t>(read_u64(in, "Mlp::load_binary"));
  }
  std::vector<int> activations(size_count - 1);
  for (auto& a : activations) {
    a = static_cast<int>(read_u8(in, "Mlp::load_binary"));
  }
  validate_architecture(sizes, activations, "Mlp::load_binary");

  Mlp net = build_for_load(sizes, activations);
  std::vector<double> theta(net.parameter_count());
  for (std::size_t i = 0; i < theta.size(); ++i) {
    try {
      theta[i] = read_f64(in, "Mlp::load_binary");
    } catch (const std::runtime_error&) {
      throw std::runtime_error("Mlp::load_binary: truncated parameters (" +
                               describe_offset(sizes, i) + ")");
    }
    if (!std::isfinite(theta[i])) {
      throw std::runtime_error("Mlp::load_binary: non-finite parameter (" +
                               describe_offset(sizes, i) + ")");
    }
  }
  net.set_flat_parameters(theta);
  return net;
}

std::vector<std::size_t> Mlp::layer_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(layers_.size() + 1);
  sizes.push_back(layers_.front().in_dim());
  for (const auto& layer : layers_) sizes.push_back(layer.out_dim());
  return sizes;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    n += layer.weights().size() + layer.bias().size();
  }
  return n;
}

}  // namespace edgeslice::nn
