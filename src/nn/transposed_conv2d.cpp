#include "nn/transposed_conv2d.hpp"

#include "common/check.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"

namespace reramdl::nn {

TransposedConv2D::TransposedConv2D(std::size_t in_c, std::size_t in_h,
                                   std::size_t in_w, std::size_t out_c,
                                   std::size_t k, std::size_t stride,
                                   std::size_t pad, Rng& rng)
    : in_c_(in_c),
      in_h_(in_h),
      in_w_(in_w),
      out_c_(out_c),
      k_(k),
      stride_(stride),
      pad_(pad),
      b_(Shape{out_c}),
      gb_(Shape{out_c}) {
  RERAMDL_CHECK_GE(k, pad + 1);  // equivalent conv needs pad' = k-1-pad >= 0
  const std::size_t dh = (in_h - 1) * stride + 1;
  const std::size_t dw = (in_w - 1) * stride + 1;
  dilated_geom_ = ConvGeometry{in_c, dh, dw, k, k, 1, k - 1 - pad};
  const std::size_t psz = dilated_geom_.patch_size();
  w_ = Tensor::he_normal(Shape{psz, out_c}, rng, psz);
  gw_ = Tensor(Shape{psz, out_c});
}

void TransposedConv2D::ensure_plan(std::size_t batch) {
  plan::count_cache(plan_built_ && planned_batch_ == batch);
  if (!plan_built_) {
    im2col_plan_ =
        Im2ColPlan::build_dilated(dilated_geom_, stride_, in_h_, in_w_);
    col2im_plan_ =
        Col2ImPlan::build_dilated(dilated_geom_, stride_, in_h_, in_w_);
    plan_built_ = true;
  }
  planned_batch_ = batch;
}

Tensor TransposedConv2D::forward(const Tensor& x, bool train) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 4u);
  RERAMDL_CHECK_EQ(x.shape()[1], in_c_);
  RERAMDL_CHECK_EQ(x.shape()[2], in_h_);
  RERAMDL_CHECK_EQ(x.shape()[3], in_w_);
  const std::size_t n = x.shape()[0];
  ensure_plan(n);
  const std::size_t m = n * im2col_plan_.patches();
  // The dilated gather plan reads straight from x; zero_insert is folded
  // into the index table, so the dilated tensor is never materialized.
  Tensor& cols = ws_.tensor(train ? detail::kWsCols : detail::kWsColsEval,
                            Shape{m, dilated_geom_.patch_size()});
  im2col_plan_.run(x.data(), n, cols.data());
  Tensor hook_rows;
  Tensor* rows = &hook_rows;
  if (matmul_fn_) {
    hook_rows = matmul_fn_(cols, w_);
  } else {
    rows = &ws_.tensor(detail::kWsRows, Shape{m, out_c_});
    ops::matmul_into(cols, w_, *rows);
  }
  ops::add_row_bias(*rows, b_);
  if (train) cached_batch_ = n;
  Tensor y = detail::rows_to_nchw(*rows, n, out_c_, dilated_geom_.out_h(),
                                  dilated_geom_.out_w());
  // Inference passes end here; training keeps cols live for backward.
  if (!train) ws_.trim();
  return y;
}

Tensor TransposedConv2D::backward(const Tensor& grad_out) {
  RERAMDL_CHECK_GT(cached_batch_, 0u);
  const std::size_t n = cached_batch_;
  const std::size_t m = n * im2col_plan_.patches();
  const std::size_t psz = dilated_geom_.patch_size();
  Tensor& cols = ws_.tensor(detail::kWsCols, Shape{m, psz});
  Tensor& grows = ws_.tensor(detail::kWsGrows, Shape{m, out_c_});
  detail::nchw_to_rows_into(grad_out, grows);
  ops::matmul_transposed_a_acc(cols, grows, gw_);
  ops::column_sums_acc(grows, gb_);
  Tensor& wt = ws_.tensor(detail::kWsWt, Shape{out_c_, psz});
  ops::transpose_into(w_, wt);
  Tensor& gcols = ws_.tensor(detail::kWsGcols, Shape{m, psz});
  ops::matmul_transposed_b_packed_into(grows, wt, gcols);
  // The dilated adjoint plan only keeps runs for real grid pixels, so it
  // writes the undilated gradient directly (zero_insert_adjoint composed).
  Tensor gx(Shape{n, in_c_, in_h_, in_w_});
  col2im_plan_.run(gcols.data(), n, gx.data());
  ws_.trim();  // pass boundary: every slot's contents are dead now
  return gx;
}

std::vector<ParamRef> TransposedConv2D::params() {
  return {{&w_, &gw_}, {&b_, &gb_}};
}

LayerSpec TransposedConv2D::spec(std::size_t in_c, std::size_t in_h,
                                 std::size_t in_w) const {
  RERAMDL_CHECK_EQ(in_c, in_c_);
  RERAMDL_CHECK_EQ(in_h, in_h_);
  RERAMDL_CHECK_EQ(in_w, in_w_);
  LayerSpec l;
  l.kind = LayerKind::kTransposedConv;
  l.name = "tconv2d";
  l.in_c = in_c_;
  l.in_h = in_h_;
  l.in_w = in_w_;
  l.kh = l.kw = k_;
  l.stride = stride_;
  l.pad = pad_;
  l.out_c = out_c_;
  l.out_h = dilated_geom_.out_h();
  l.out_w = dilated_geom_.out_w();
  return l;
}

}  // namespace reramdl::nn
