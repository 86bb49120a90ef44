// Precomputed execution plans for the convolution training step.
//
// im2col / col2im walk the same (patch row, kernel offset) -> image offset
// geometry on every call. A plan computes that geometry once per layer and
// turns both directions into flat index-driven loops:
//
//  - Im2ColPlan: one gather index per im2col matrix element (-1 for padding
//    zeros). The dilated variant composes the zero-insertion of a
//    fractional-strided (transposed) convolution into the same table, so
//    TransposedConv2D gathers patches straight from the undilated input and
//    never materializes the zero-inserted tensor.
//
//  - Col2ImPlan: the adjoint, reformulated as a gather. The scatter-add
//    "cols row -> overlapping image pixels" is inverted into a CSR table
//    "image pixel -> contributing cols elements", stored in the exact
//    (oy, ox)-ascending order the scatter visits each pixel. Summing a
//    pixel's run therefore performs the identical float-addition sequence as
//    the scatter — bit-identical — while pixels become independent and
//    parallelize over row blocks instead of whole samples. The dilated
//    variant composes zero_insert_adjoint: only grid pixels keep their runs,
//    so the dead contributions to inserted zeros are never computed.
//
// Plans depend only on ConvGeometry (and the dilation factor), never on the
// batch size; batch enters as the outer loop bound at run() time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"

namespace reramdl {

namespace plan {

// Bumps the plan.cache_hits / plan.cache_misses counters (behind the
// RERAMDL_METRICS gate). Layers call this from their ensure_plan step.
void count_cache(bool hit);

// Bumps the plan.cache_evictions counter (same RERAMDL_METRICS gate).
// The workspace arena calls this when its byte cap forces a slot release.
void count_eviction();

}  // namespace plan

class Im2ColPlan {
 public:
  // Plan for im2col(x, g).
  static Im2ColPlan build(const ConvGeometry& g);
  // Plan for im2col(zero_insert(x, factor), g) where g is the
  // dilated-equivalent stride-1 geometry and [in_h, in_w] are the undilated
  // spatial dims of x.
  static Im2ColPlan build_dilated(const ConvGeometry& g, std::size_t factor,
                                  std::size_t in_h, std::size_t in_w);

  // x: [n, in_c, src_h, src_w] (undilated dims for the dilated variant);
  // cols: [n * patches, patch_size], fully overwritten. Parallel over row
  // blocks; rows write disjoint output, so results are bit-identical for
  // any thread count.
  void run(const float* x, std::size_t n, float* cols) const;

  std::size_t patches() const { return patches_; }
  std::size_t patch_size() const { return psz_; }
  // Elements per source-image sample.
  std::size_t image_elems() const { return img_; }

 private:
  static Im2ColPlan build_impl(const ConvGeometry& g, std::size_t factor,
                               std::size_t src_h, std::size_t src_w);

  std::vector<std::int32_t> src_;  // [patches * psz], -1 = padding/dilation zero
  std::size_t patches_ = 0, psz_ = 0, img_ = 0;
};

class Col2ImPlan {
 public:
  // Plan for col2im(cols, g, n).
  static Col2ImPlan build(const ConvGeometry& g);
  // Plan for zero_insert_adjoint(col2im(cols, g, n), factor, out_h, out_w):
  // g is the dilated-equivalent geometry, [out_h, out_w] the undilated dims.
  static Col2ImPlan build_dilated(const ConvGeometry& g, std::size_t factor,
                                  std::size_t out_h, std::size_t out_w);

  // cols: [n * patches, patch_size]; x: [n, image_elems], fully
  // overwritten (pixels without contributions get 0). Parallel over pixel
  // blocks; each pixel sums its contribution run in the scatter order.
  void run(const float* cols, std::size_t n, float* x) const;

  // Elements per destination-image sample.
  std::size_t image_elems() const { return img_; }
  std::size_t cols_elems_per_sample() const { return cols_per_sample_; }

 private:
  static Col2ImPlan build_impl(const ConvGeometry& g, std::size_t factor,
                               std::size_t out_h, std::size_t out_w);

  std::vector<std::int32_t> src_;     // contribution offsets into a sample's cols
  std::vector<std::uint32_t> first_;  // [img + 1] CSR run boundaries
  std::size_t img_ = 0, cols_per_sample_ = 0;
};

}  // namespace reramdl
