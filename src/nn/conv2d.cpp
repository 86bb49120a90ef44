#include "nn/conv2d.hpp"

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "tensor/ops.hpp"

namespace reramdl::nn {

namespace detail {

Tensor rows_to_nchw(const Tensor& rows, std::size_t n, std::size_t out_c,
                    std::size_t oh, std::size_t ow) {
  RERAMDL_CHECK_EQ(rows.shape()[0], n * oh * ow);
  RERAMDL_CHECK_EQ(rows.shape()[1], out_c);
  Tensor y(Shape{n, out_c, oh, ow});
  const float* pr = rows.data();
  float* py = y.data();
  parallel::parallel_for(0, n, 1, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s)
      for (std::size_t p = 0; p < oh * ow; ++p)
        for (std::size_t c = 0; c < out_c; ++c)
          py[(s * out_c + c) * oh * ow + p] = pr[(s * oh * ow + p) * out_c + c];
  });
  return y;
}

Tensor nchw_to_rows(const Tensor& x) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 4u);
  const std::size_t n = x.shape()[0], c = x.shape()[1], oh = x.shape()[2],
                    ow = x.shape()[3];
  Tensor rows(Shape{n * oh * ow, c});
  nchw_to_rows_into(x, rows);
  return rows;
}

void nchw_to_rows_into(const Tensor& x, Tensor& rows) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 4u);
  const std::size_t n = x.shape()[0], c = x.shape()[1], oh = x.shape()[2],
                    ow = x.shape()[3];
  RERAMDL_CHECK_EQ(rows.shape()[0], n * oh * ow);
  RERAMDL_CHECK_EQ(rows.shape()[1], c);
  const float* px = x.data();
  float* pr = rows.data();
  parallel::parallel_for(0, n, 1, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s)
      for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t p = 0; p < oh * ow; ++p)
          pr[(s * oh * ow + p) * c + ch] = px[(s * c + ch) * oh * ow + p];
  });
}

}  // namespace detail

Conv2D::Conv2D(std::size_t in_c, std::size_t in_h, std::size_t in_w,
               std::size_t out_c, std::size_t k, std::size_t stride,
               std::size_t pad, Rng& rng)
    : out_c_(out_c),
      b_(Shape{out_c}),
      gb_(Shape{out_c}) {
  geom_ = ConvGeometry{in_c, in_h, in_w, k, k, stride, pad};
  const std::size_t psz = geom_.patch_size();
  w_ = Tensor::he_normal(Shape{psz, out_c}, rng, psz);
  gw_ = Tensor(Shape{psz, out_c});
}

void Conv2D::ensure_plan(std::size_t batch) {
  plan::count_cache(plan_built_ && planned_batch_ == batch);
  if (!plan_built_) {
    im2col_plan_ = Im2ColPlan::build(geom_);
    col2im_plan_ = Col2ImPlan::build(geom_);
    plan_built_ = true;
  }
  planned_batch_ = batch;
}

Tensor Conv2D::forward(const Tensor& x, bool train) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 4u);
  const std::size_t n = x.shape()[0];
  ensure_plan(n);
  const std::size_t m = n * im2col_plan_.patches();
  Tensor& cols = ws_.tensor(train ? detail::kWsCols : detail::kWsColsEval,
                            Shape{m, geom_.patch_size()});
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
  Tensor y =
      detail::rows_to_nchw(*rows, n, out_c_, geom_.out_h(), geom_.out_w());
  // Inference passes end here; training keeps cols live for backward.
  if (!train) ws_.trim();
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  RERAMDL_CHECK_GT(cached_batch_, 0u);
  const std::size_t n = cached_batch_;
  const std::size_t m = n * im2col_plan_.patches();
  // Same shapes as the caching forward, so these are pure re-fetches.
  Tensor& cols = ws_.tensor(detail::kWsCols, Shape{m, geom_.patch_size()});
  Tensor& grows = ws_.tensor(detail::kWsGrows, Shape{m, out_c_});
  detail::nchw_to_rows_into(grad_out, grows);
  ops::matmul_transposed_a_acc(cols, grows, gw_);
  ops::column_sums_acc(grows, gb_);
  // Transposed-weight panel: lets the input-gradient product run in the
  // vectorizable axpy form, bit-identical to matmul_transposed_b on w_.
  // Rebuilt every step because the optimizer updates w_ in place.
  Tensor& wt = ws_.tensor(detail::kWsWt, Shape{out_c_, geom_.patch_size()});
  ops::transpose_into(w_, wt);
  Tensor& gcols = ws_.tensor(detail::kWsGcols, Shape{m, geom_.patch_size()});
  ops::matmul_transposed_b_packed_into(grows, wt, gcols);
  Tensor gx(Shape{n, geom_.in_c, geom_.in_h, geom_.in_w});
  col2im_plan_.run(gcols.data(), n, gx.data());
  ws_.trim();  // pass boundary: every slot's contents are dead now
  return gx;
}

std::vector<ParamRef> Conv2D::params() {
  return {{&w_, &gw_}, {&b_, &gb_}};
}

LayerSpec Conv2D::spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const {
  RERAMDL_CHECK_EQ(in_c, geom_.in_c);
  RERAMDL_CHECK_EQ(in_h, geom_.in_h);
  RERAMDL_CHECK_EQ(in_w, geom_.in_w);
  LayerSpec l;
  l.kind = LayerKind::kConv;
  l.name = "conv2d";
  l.in_c = geom_.in_c;
  l.in_h = geom_.in_h;
  l.in_w = geom_.in_w;
  l.kh = geom_.kh;
  l.kw = geom_.kw;
  l.stride = geom_.stride;
  l.pad = geom_.pad;
  l.out_c = out_c_;
  l.out_h = geom_.out_h();
  l.out_w = geom_.out_w();
  return l;
}

}  // namespace reramdl::nn
