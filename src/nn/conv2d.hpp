// 2-D convolution layer (paper's CONV), computed as im2col patches times a
// flattened kernel matrix — the exact matrix the data-mapping engine places
// on crossbar arrays (Fig. 4: rows = Kx*Ky*Cl wordlines, cols = Cl+1
// bitlines).
#pragma once

#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "tensor/conv_plan.hpp"
#include "tensor/im2col.hpp"
#include "tensor/workspace.hpp"

namespace reramdl::nn {

class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_c, std::size_t in_h, std::size_t in_w, std::size_t out_c,
         std::size_t k, std::size_t stride, std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return "conv2d"; }
  LayerSpec spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const override;

  // Flattened kernel matrix [Kx*Ky*Cin, Cout].
  Tensor& weights() { return w_; }
  const Tensor& weights() const { return w_; }
  Tensor& bias() { return b_; }

  // Replace the im2col GEMM (e.g. with a crossbar evaluation). The injected
  // fn must be thread-safe (see MatmulFn in dense.hpp); the default is the
  // blocked parallel ops::matmul.
  void set_forward_matmul(MatmulFn fn) { matmul_fn_ = std::move(fn); }

  const ConvGeometry& geometry() const { return geom_; }
  std::size_t out_channels() const { return out_c_; }

 private:
  // Builds the gather/scatter index plans on first use and keys the cached
  // execution plan on the batch size (plan::count_cache hit/miss).
  void ensure_plan(std::size_t batch);

  ConvGeometry geom_;
  std::size_t out_c_;
  Tensor w_, b_, gw_, gb_;
  std::size_t cached_batch_ = 0;
  MatmulFn matmul_fn_;
  // Precomputed im2col/col2im index plans plus an arena of reusable
  // workspace tensors.
  Im2ColPlan im2col_plan_;
  Col2ImPlan col2im_plan_;
  bool plan_built_ = false;
  std::size_t planned_batch_ = 0;
  Workspace ws_;
};

// Shared helpers between Conv2D and TransposedConv2D.
namespace detail {
// [N*oh*ow, out_c] row-major patch results -> [N, out_c, oh, ow].
Tensor rows_to_nchw(const Tensor& rows, std::size_t n, std::size_t out_c,
                    std::size_t oh, std::size_t ow);
// [N, out_c, oh, ow] -> [N*oh*ow, out_c].
Tensor nchw_to_rows(const Tensor& x);
// As nchw_to_rows, but writes into `rows` (already shaped [N*oh*ow, c]).
void nchw_to_rows_into(const Tensor& x, Tensor& rows);

// Workspace slot layout shared by Conv2D and TransposedConv2D. kCols holds
// the training-forward patch matrix (consumed again by backward); eval-mode
// forwards stage in kColsEval so they never clobber the training cache.
enum WsSlot : std::size_t {
  kWsCols = 0,
  kWsColsEval,
  kWsRows,
  kWsGrows,
  kWsWt,
  kWsGcols,
};
}  // namespace detail

}  // namespace reramdl::nn
