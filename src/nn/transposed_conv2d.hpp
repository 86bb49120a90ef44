// Fractional-strided convolution (FCNN) — the generator-side layer of DCGAN.
//
// Implements paper Fig. 7 exactly: the forward pass inserts zeros between
// input pixels (factor = stride) and runs an ordinary stride-1 convolution
// with flipped-equivalent padding k-1-pad; the error back-propagation is the
// adjoint, i.e. a strided convolution. Output size: (H-1)*stride + k - 2*pad.
#pragma once

#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "tensor/conv_plan.hpp"
#include "tensor/im2col.hpp"
#include "tensor/workspace.hpp"

namespace reramdl::nn {

class TransposedConv2D : public Layer {
 public:
  TransposedConv2D(std::size_t in_c, std::size_t in_h, std::size_t in_w,
                   std::size_t out_c, std::size_t k, std::size_t stride,
                   std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return "tconv2d"; }
  LayerSpec spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const override;

  Tensor& weights() { return w_; }
  Tensor& bias() { return b_; }
  // Injected fn must be thread-safe (see MatmulFn in dense.hpp); the
  // default is the blocked parallel ops::matmul.
  void set_forward_matmul(MatmulFn fn) { matmul_fn_ = std::move(fn); }

  std::size_t out_h() const { return dilated_geom_.out_h(); }
  std::size_t out_w() const { return dilated_geom_.out_w(); }

 private:
  // Builds the dilation-composed gather/scatter plans on first use and keys
  // the cached execution plan on the batch size.
  void ensure_plan(std::size_t batch);

  std::size_t in_c_, in_h_, in_w_, out_c_, k_, stride_, pad_;
  // Geometry of the equivalent stride-1 convolution over the dilated input.
  ConvGeometry dilated_geom_;
  Tensor w_, b_, gw_, gb_;
  std::size_t cached_batch_ = 0;
  MatmulFn matmul_fn_;
  // The dilated plan variants fold zero_insert / zero_insert_adjoint into
  // the index tables, so neither direction ever materializes the
  // zero-inserted tensor.
  Im2ColPlan im2col_plan_;
  Col2ImPlan col2im_plan_;
  bool plan_built_ = false;
  std::size_t planned_batch_ = 0;
  Workspace ws_;
};

}  // namespace reramdl::nn
