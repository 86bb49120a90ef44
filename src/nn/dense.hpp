// Fully-connected (inner product, paper's IP) layer: y = x W + b with
// W stored [in_features, out_features] — the same row=wordline /
// col=bitline orientation the crossbar mapping uses.
#pragma once

#include <functional>

#include "nn/layer.hpp"
#include "tensor/workspace.hpp"

namespace reramdl::nn {

// Hook type that computes rows x weights ([m,k] x [k,n] -> [m,n]). The
// accelerator installs a crossbar-backed implementation; the default path is
// the cache-blocked, pool-parallel ops::matmul kernel (tensor/ops.hpp).
// Injected implementations MUST be thread-safe: layers may themselves be
// evaluated from pool workers (e.g. concurrent bank simulation), and the
// default kernels already fan work out to the shared thread pool, so a hook
// that mutates shared state without synchronization races.
using MatmulFn = std::function<Tensor(const Tensor& rows, const Tensor& weights)>;

class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return "dense"; }
  LayerSpec spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const override;

  Tensor& weights() { return w_; }
  const Tensor& weights() const { return w_; }
  Tensor& bias() { return b_; }

  // Replace the forward matrix product (e.g. with a crossbar evaluation).
  // The injected fn must be thread-safe (see MatmulFn); the default is the
  // blocked parallel ops::matmul.
  void set_forward_matmul(MatmulFn fn) { matmul_fn_ = std::move(fn); }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_, gw_, gb_;
  Tensor cached_input_;
  MatmulFn matmul_fn_;
  // Holds the transposed-weight panel for the vectorizable input-gradient
  // product.
  Workspace ws_;
};

}  // namespace reramdl::nn
