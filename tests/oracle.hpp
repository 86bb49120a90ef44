// Test oracles: reference implementations that the library's one compute
// path per crossbar and per layer is checked against bit for bit. Each keeps
// the arithmetic of the library code it stands in for, evaluated the slow,
// obvious way:
//
//  - compute_reference walks the stored slice levels of one programmed array
//    per MVM (recomputing the differential collapse W_eff reads
//    precomputed); grid_reference composes it over a grid's tiles with the
//    fixed row-tile-ascending vertical add of Fig. 3c.
//  - the *_step functions run one training step of a Conv2D,
//    TransposedConv2D or Dense layer uncached: materialized im2col /
//    zero_insert, the plain ops::matmul* products, col2im /
//    zero_insert_adjoint, with no plans and no workspace.
//
// compute_row is not an oracle: it is the single-vector form of the library
// path (a one-row compute_batch) for tests that drive one input at a time.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/crossbar.hpp"
#include "circuit/crossbar_grid.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace reramdl::oracle {

// ---- Crossbar ---------------------------------------------------------------

// Slice-walk evaluation of a programmed, non-bit-serial array for one input
// vector of active_rows() entries. Bit-identical to a one-row
// compute_batch by construction. Does not touch stats.
std::vector<float> compute_reference(const circuit::Crossbar& xbar,
                                     const std::vector<float>& x,
                                     double x_max);

// compute_reference of every tile on its input segment, partial sums added
// in row-tile-ascending order. x has total_rows() entries.
std::vector<float> grid_reference(const circuit::CrossbarGrid& grid,
                                  const std::vector<float>& x, double x_max);

// One-row compute_batch: the library path for a single input vector.
std::vector<float> compute_row(circuit::Crossbar& xbar,
                               const std::vector<float>& x, double x_max);
std::vector<float> compute_row(circuit::CrossbarGrid& grid,
                               const std::vector<float>& x, double x_max);

// ---- Layers -----------------------------------------------------------------

// One forward(train) + backward pass: the layer output, the input gradient,
// and the weight and bias gradients accumulated into zeroed tensors (as a
// freshly built layer holds them).
struct LayerStep {
  Tensor y, gx, gw, gb;
};

// Conv2D with flattened kernel w [patch_size, out_c] and bias b [out_c].
Tensor conv_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvGeometry& g);
LayerStep conv_step(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvGeometry& g, const Tensor& grad_out);

// TransposedConv2D(in_c, in_h, in_w, out_c, k, stride, pad) with x of
// [n, in_c, in_h, in_w]: zero insertion by `stride`, then a stride-1
// convolution with padding k - 1 - pad.
LayerStep tconv_step(const Tensor& x, const Tensor& w, const Tensor& b,
                     std::size_t k, std::size_t stride, std::size_t pad,
                     const Tensor& grad_out);

// Dense: y = x w + b.
LayerStep dense_step(const Tensor& x, const Tensor& w, const Tensor& b,
                     const Tensor& grad_out);

}  // namespace reramdl::oracle
