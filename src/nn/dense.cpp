#include "nn/dense.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace reramdl::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_(Tensor::he_normal(Shape{in_features, out_features}, rng, in_features)),
      b_(Shape{out_features}),
      gw_(Shape{in_features, out_features}),
      gb_(Shape{out_features}) {}

Tensor Dense::forward(const Tensor& x, bool train) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(x.shape()[1], in_);
  if (train) cached_input_ = x;
  Tensor y = matmul_fn_ ? matmul_fn_(x, w_) : ops::matmul(x, w_);
  ops::add_row_bias(y, b_);
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  RERAMDL_CHECK_EQ(grad_out.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(grad_out.shape()[1], out_);
  RERAMDL_CHECK_EQ(cached_input_.shape()[0], grad_out.shape()[0]);
  // Accumulating products skip the gradient-sized temporaries, and the
  // pre-transposed weight panel lets the input-gradient product run in the
  // vectorizable axpy form — bit-identical to matmul_transposed_b on w_.
  ops::matmul_transposed_a_acc(cached_input_, grad_out, gw_);
  ops::column_sums_acc(grad_out, gb_);
  Tensor& wt = ws_.tensor(0, Shape{out_, in_});
  ops::transpose_into(w_, wt);
  Tensor gx = ops::matmul_transposed_b_packed(grad_out, wt);
  ws_.trim();  // pass boundary: the transposed panel is dead now
  return gx;
}

std::vector<ParamRef> Dense::params() {
  return {{&w_, &gw_}, {&b_, &gb_}};
}

LayerSpec Dense::spec(std::size_t in_c, std::size_t in_h, std::size_t in_w) const {
  RERAMDL_CHECK_EQ(in_c * in_h * in_w, in_);
  LayerSpec l;
  l.kind = LayerKind::kDense;
  l.name = "dense";
  l.in_c = in_;
  l.in_h = l.in_w = 1;
  l.out_c = out_;
  l.out_h = l.out_w = 1;
  return l;
}

}  // namespace reramdl::nn
