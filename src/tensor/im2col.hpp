// Patch extraction (im2col / col2im) and zero-insertion helpers.
//
// im2col turns convolution into the matrix-vector products a ReRAM crossbar
// natively executes (paper Fig. 4: a 3x3x128 kernel becomes one 1152-entry
// column; each output pixel is one input vector). zero_insert implements the
// fractional-strided convolution trick of Fig. 7(a): a transposed conv's
// forward pass equals an ordinary convolution over the zero-dilated input.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace reramdl {

struct ConvGeometry {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t kh = 0, kw = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const;
  std::size_t out_w() const;
  // Rows of the im2col matrix per sample.
  std::size_t patches() const { return out_h() * out_w(); }
  // Columns of the im2col matrix (= crossbar wordlines used by the kernel).
  std::size_t patch_size() const { return in_c * kh * kw; }
};

// x: [N, C, H, W] -> [N * out_h * out_w, C*kh*kw]; row order is (n, oy, ox),
// column order is (c, ky, kx) — matching the rows of the flattened
// [Cin*kh*kw, Cout] kernel matrix a Conv2D holds (paper Fig. 4).
Tensor im2col(const Tensor& x, const ConvGeometry& g);

// Scatter-add the patch matrix back into an [N, C, H, W] image; the adjoint
// of im2col, used for conv input gradients.
Tensor col2im(const Tensor& cols, const ConvGeometry& g, std::size_t batch);

// Insert (factor-1) zeros between adjacent pixels in H and W:
// [N, C, H, W] -> [N, C, (H-1)*factor+1, (W-1)*factor+1]. factor >= 1.
Tensor zero_insert(const Tensor& x, std::size_t factor);

// Adjoint of zero_insert: sample back the non-zero grid positions.
Tensor zero_insert_adjoint(const Tensor& g_dilated, std::size_t factor,
                           std::size_t out_h, std::size_t out_w);

}  // namespace reramdl
