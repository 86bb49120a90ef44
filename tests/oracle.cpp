#include "oracle.hpp"

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "device/quantizer.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"

namespace reramdl::oracle {

std::vector<float> compute_reference(const circuit::Crossbar& xbar,
                                     const std::vector<float>& x,
                                     double x_max) {
  const std::size_t r = xbar.active_rows(), c = xbar.active_cols();
  RERAMDL_CHECK_EQ(x.size(), r);
  RERAMDL_CHECK_GT(xbar.w_max(), 0.0);
  RERAMDL_CHECK_GT(x_max, 0.0);

  const circuit::CrossbarConfig& cfg = xbar.config();
  const device::LinearQuantizer xq(cfg.input_bits, x_max);
  const device::LinearQuantizer wq(cfg.weight_bits, xbar.w_max());
  const double scale = wq.step() * xq.step();
  const std::size_t num_slices = cfg.slices();
  const std::size_t bpc = cfg.cell.bits_per_cell;

  std::vector<double> x_levels(r);
  xq.quantize_levels(x.data(), r, x_levels.data());
  std::vector<double> acc(c, 0.0);
  for (std::size_t i = 0; i < r; ++i) {
    const double xi = x_levels[i];
    if (xi == 0.0) continue;
    const std::size_t base = i * c;
    for (std::size_t j = 0; j < c; ++j) {
      double w = 0.0;  // inline slice-ascending collapse == W_eff[i,j]
      for (std::size_t s = 0; s < num_slices; ++s) {
        const double weight =
            static_cast<double>(std::uint64_t{1} << (s * bpc));
        w += weight *
             (xbar.levels(s, 0)[base + j] - xbar.levels(s, 1)[base + j]);
      }
      acc[j] += xi * w;
    }
  }

  std::vector<float> y(c);
  for (std::size_t j = 0; j < c; ++j)
    y[j] = static_cast<float>(acc[j] * scale);
  return y;
}

std::vector<float> grid_reference(const circuit::CrossbarGrid& grid,
                                  const std::vector<float>& x, double x_max) {
  RERAMDL_CHECK_EQ(x.size(), grid.total_rows());
  const circuit::CrossbarConfig& cfg = grid.array(0).config();
  std::vector<float> y(grid.total_cols(), 0.0f);
  for (std::size_t rt = 0; rt < grid.row_tiles(); ++rt) {
    for (std::size_t ct = 0; ct < grid.col_tiles(); ++ct) {
      const circuit::Crossbar& tile = grid.array(rt * grid.col_tiles() + ct);
      const auto seg = x.begin() + static_cast<std::ptrdiff_t>(rt * cfg.rows);
      const std::vector<float> part = compute_reference(
          tile,
          std::vector<float>(
              seg, seg + static_cast<std::ptrdiff_t>(tile.active_rows())),
          x_max);
      const std::size_t c0 = ct * cfg.data_cols();
      for (std::size_t j = 0; j < part.size(); ++j) y[c0 + j] += part[j];
    }
  }
  return y;
}

namespace {

template <typename Array>
std::vector<float> one_row(Array& a, const std::vector<float>& x,
                           double x_max) {
  Tensor row(Shape{1, x.size()});
  std::copy(x.begin(), x.end(), row.data());
  const Tensor y = a.compute_batch(row, x_max);
  return std::vector<float>(y.data(), y.data() + y.numel());
}

// Backward half shared by the conv and transposed-conv steps: rows of the
// output gradient against the cached patch matrix.
void conv_backward(const Tensor& cols, const Tensor& w, const Tensor& b,
                   const Tensor& grad_out, LayerStep& s, Tensor& gcols) {
  const Tensor grows = nn::detail::nchw_to_rows(grad_out);
  s.gw = Tensor(w.shape());
  s.gw += ops::matmul_transposed_a(cols, grows);
  s.gb = Tensor(b.shape());
  s.gb += ops::column_sums(grows);
  gcols = ops::matmul_transposed_b(grows, w);
}

Tensor rows_forward(const Tensor& cols, const Tensor& w, const Tensor& b,
                    std::size_t n, std::size_t oh, std::size_t ow) {
  Tensor rows = ops::matmul(cols, w);
  ops::add_row_bias(rows, b);
  return nn::detail::rows_to_nchw(rows, n, w.shape()[1], oh, ow);
}

}  // namespace

std::vector<float> compute_row(circuit::Crossbar& xbar,
                               const std::vector<float>& x, double x_max) {
  return one_row(xbar, x, x_max);
}

std::vector<float> compute_row(circuit::CrossbarGrid& grid,
                               const std::vector<float>& x, double x_max) {
  return one_row(grid, x, x_max);
}

Tensor conv_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvGeometry& g) {
  return rows_forward(im2col(x, g), w, b, x.shape()[0], g.out_h(), g.out_w());
}

LayerStep conv_step(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvGeometry& g, const Tensor& grad_out) {
  const std::size_t n = x.shape()[0];
  const Tensor cols = im2col(x, g);
  LayerStep s;
  s.y = rows_forward(cols, w, b, n, g.out_h(), g.out_w());
  Tensor gcols;
  conv_backward(cols, w, b, grad_out, s, gcols);
  s.gx = col2im(gcols, g, n);
  return s;
}

LayerStep tconv_step(const Tensor& x, const Tensor& w, const Tensor& b,
                     std::size_t k, std::size_t stride, std::size_t pad,
                     const Tensor& grad_out) {
  const std::size_t n = x.shape()[0], in_c = x.shape()[1];
  const std::size_t in_h = x.shape()[2], in_w = x.shape()[3];
  const ConvGeometry g{in_c, (in_h - 1) * stride + 1, (in_w - 1) * stride + 1,
                       k, k, 1, k - 1 - pad};
  const Tensor cols = im2col(zero_insert(x, stride), g);
  LayerStep s;
  s.y = rows_forward(cols, w, b, n, g.out_h(), g.out_w());
  Tensor gcols;
  conv_backward(cols, w, b, grad_out, s, gcols);
  s.gx = zero_insert_adjoint(col2im(gcols, g, n), stride, in_h, in_w);
  return s;
}

LayerStep dense_step(const Tensor& x, const Tensor& w, const Tensor& b,
                     const Tensor& grad_out) {
  LayerStep s;
  s.y = ops::matmul(x, w);
  ops::add_row_bias(s.y, b);
  s.gw = Tensor(w.shape());
  s.gw += ops::matmul_transposed_a(x, grad_out);
  s.gb = Tensor(b.shape());
  s.gb += ops::column_sums(grad_out);
  s.gx = ops::matmul_transposed_b(grad_out, w);
  return s;
}

}  // namespace reramdl::oracle
