// Element-wise activation layers. In hardware these are the "activation
// function" peripheral of the morphable subarray (PipeLayer) or the
// configurable LUT after the subtractor (ReGAN, Fig. 10-B); here they are the
// exact float functions the LUT approximates.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace reramdl::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "relu"; }
  LayerSpec spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const override;

 private:
  // mask_[i] is output[i] > 0 from the last training forward.
  std::vector<std::uint8_t> mask_;
};

class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.2f) : slope_(slope) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "leaky_relu"; }
  LayerSpec spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const override;

 private:
  float slope_;
  // mask_[i] is input[i] > 0 from the last training forward.
  std::vector<std::uint8_t> mask_;
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "sigmoid"; }
  LayerSpec spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const override;

 private:
  Tensor cached_out_;
};

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "tanh"; }
  LayerSpec spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const override;

 private:
  Tensor cached_out_;
};

}  // namespace reramdl::nn
