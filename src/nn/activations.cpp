#include "nn/activations.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace reramdl::nn {
namespace {

LayerSpec passthrough_spec(const char* name, std::size_t c, std::size_t h,
                           std::size_t w) {
  LayerSpec l;
  l.kind = LayerKind::kActivation;
  l.name = name;
  l.in_c = l.out_c = c;
  l.in_h = l.out_h = h;
  l.in_w = l.out_w = w;
  return l;
}

// x > 0 as an integer test of the bit pattern (positive sign, nonzero, not
// NaN). GCC keeps a branch for the float compare, which may trap, so the
// loops below would not vectorize with it.
bool positive(float v) {
  return std::bit_cast<std::uint32_t>(v) - 1u < 0x7f800000u;
}

}  // namespace

// The backward mask is the output's sign: y > 0 exactly where x > 0, and y
// is +0.0 everywhere else (NaN and -0.0 included). Both loops are
// branch-free selects with the old per-element results.
Tensor ReLU::forward(const Tensor& x, bool train) {
  const std::size_t n = x.numel();
  Tensor y(x.shape());
  const float* px = x.data();
  float* py = y.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = px[i];
    py[i] = positive(v) ? v : 0.0f;
  }
  if (train) {
    mask_.resize(n);
    std::uint8_t* pm = mask_.data();
    for (std::size_t i = 0; i < n; ++i) pm[i] = positive(py[i]);
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  RERAMDL_CHECK_EQ(grad_out.numel(), mask_.size());
  Tensor gx(grad_out.shape());
  const float* pg = grad_out.data();
  float* pgx = gx.data();
  const std::uint8_t* pm = mask_.data();
  for (std::size_t i = 0; i < mask_.size(); ++i) {
    const float g = pg[i];
    pgx[i] = pm[i] ? g : 0.0f;
  }
  return gx;
}

LayerSpec ReLU::spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const {
  return passthrough_spec("relu", in_c, in_h, in_w);
}

Tensor LeakyReLU::forward(const Tensor& x, bool train) {
  Tensor y = x;
  if (train) mask_.assign(x.numel(), false);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] > 0.0f) {
      if (train) mask_[i] = true;
    } else {
      y[i] *= slope_;
    }
  }
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  RERAMDL_CHECK_EQ(grad_out.numel(), mask_.size());
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < gx.numel(); ++i)
    if (!mask_[i]) gx[i] *= slope_;
  return gx;
}

LayerSpec LeakyReLU::spec(std::size_t in_c, std::size_t in_h,
                          std::size_t in_w) const {
  return passthrough_spec("leaky_relu", in_c, in_h, in_w);
}

Tensor Sigmoid::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i)
    y[i] = 1.0f / (1.0f + std::exp(-y[i]));
  if (train) cached_out_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  RERAMDL_CHECK_EQ(grad_out.numel(), cached_out_.numel());
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    const float s = cached_out_[i];
    gx[i] *= s * (1.0f - s);
  }
  return gx;
}

LayerSpec Sigmoid::spec(std::size_t in_c, std::size_t in_h,
                        std::size_t in_w) const {
  return passthrough_spec("sigmoid", in_c, in_h, in_w);
}

Tensor Tanh::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
  if (train) cached_out_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  RERAMDL_CHECK_EQ(grad_out.numel(), cached_out_.numel());
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    const float t = cached_out_[i];
    gx[i] *= 1.0f - t * t;
  }
  return gx;
}

LayerSpec Tanh::spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const {
  return passthrough_spec("tanh", in_c, in_h, in_w);
}

}  // namespace reramdl::nn
