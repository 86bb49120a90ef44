#include "tensor/conv_plan.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace reramdl {

namespace plan {

void count_cache(bool hit) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static obs::Counter& hits = reg.counter("plan.cache_hits");
  static obs::Counter& misses = reg.counter("plan.cache_misses");
  (hit ? hits : misses).add();
  // Cache decisions also land in the attribution tree (layers consult the
  // cache from the serial forward path, so this stays deterministic).
  obs::Attribution::instance().add("host/plan_cache", hit ? "hits" : "misses",
                                   1.0);
}

void count_eviction() {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& evictions =
      obs::Registry::instance().counter("plan.cache_evictions");
  evictions.add();
  obs::Attribution::instance().add("host/plan_cache", "evictions", 1.0);
}

}  // namespace plan

namespace {

// Source-image offset of kernel tap (c, ky, kx) applied at patch (oy, ox),
// composed with an optional zero-insertion of `factor` (src dims are the
// undilated [src_h, src_w]); -1 when the tap lands on padding or on an
// inserted zero.
std::int32_t source_offset(const ConvGeometry& g, std::size_t factor,
                           std::size_t src_h, std::size_t src_w, std::size_t oy,
                           std::size_t ox, std::size_t c, std::size_t ky,
                           std::size_t kx) {
  const long iy =
      static_cast<long>(oy * g.stride + ky) - static_cast<long>(g.pad);
  const long ix =
      static_cast<long>(ox * g.stride + kx) - static_cast<long>(g.pad);
  if (iy < 0 || iy >= static_cast<long>(g.in_h) || ix < 0 ||
      ix >= static_cast<long>(g.in_w))
    return -1;
  const std::size_t diy = static_cast<std::size_t>(iy);
  const std::size_t dix = static_cast<std::size_t>(ix);
  if (factor > 1 && (diy % factor != 0 || dix % factor != 0)) return -1;
  const std::size_t off =
      (c * src_h + diy / factor) * src_w + dix / factor;
  RERAMDL_CHECK_LE(off, static_cast<std::size_t>(
                            std::numeric_limits<std::int32_t>::max()));
  return static_cast<std::int32_t>(off);
}

}  // namespace

Im2ColPlan Im2ColPlan::build(const ConvGeometry& g) {
  return build_impl(g, 1, g.in_h, g.in_w);
}

Im2ColPlan Im2ColPlan::build_dilated(const ConvGeometry& g, std::size_t factor,
                                     std::size_t in_h, std::size_t in_w) {
  RERAMDL_CHECK_GE(factor, 1u);
  RERAMDL_CHECK_EQ(g.in_h, (in_h - 1) * factor + 1);
  RERAMDL_CHECK_EQ(g.in_w, (in_w - 1) * factor + 1);
  return build_impl(g, factor, in_h, in_w);
}

Im2ColPlan Im2ColPlan::build_impl(const ConvGeometry& g, std::size_t factor,
                                  std::size_t src_h, std::size_t src_w) {
  Im2ColPlan p;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  p.patches_ = oh * ow;
  p.psz_ = g.patch_size();
  p.img_ = g.in_c * src_h * src_w;
  p.src_.resize(p.patches_ * p.psz_);
  for (std::size_t oy = 0; oy < oh; ++oy)
    for (std::size_t ox = 0; ox < ow; ++ox) {
      std::int32_t* row = p.src_.data() + (oy * ow + ox) * p.psz_;
      for (std::size_t c = 0; c < g.in_c; ++c)
        for (std::size_t ky = 0; ky < g.kh; ++ky)
          for (std::size_t kx = 0; kx < g.kw; ++kx)
            row[(c * g.kh + ky) * g.kw + kx] =
                source_offset(g, factor, src_h, src_w, oy, ox, c, ky, kx);
    }
  return p;
}

void Im2ColPlan::run(const float* x, std::size_t n, float* cols) const {
  const std::size_t rows = n * patches_;
  // Row blocks sized so a chunk moves a few tens of KiB regardless of patch
  // width; the decomposition depends only on the shapes, and rows write
  // disjoint output, so any grain is bit-identical.
  const std::size_t grain =
      std::max<std::size_t>(1, 16384 / std::max<std::size_t>(psz_, 1));
  parallel::parallel_for(0, rows, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t s = r / patches_;
      const std::int32_t* map = src_.data() + (r % patches_) * psz_;
      const float* img = x + s * img_;
      float* row = cols + r * psz_;
      for (std::size_t j = 0; j < psz_; ++j) {
        const std::int32_t o = map[j];
        row[j] = o >= 0 ? img[o] : 0.0f;
      }
    }
  });
}

Col2ImPlan Col2ImPlan::build(const ConvGeometry& g) {
  return build_impl(g, 1, g.in_h, g.in_w);
}

Col2ImPlan Col2ImPlan::build_dilated(const ConvGeometry& g, std::size_t factor,
                                     std::size_t out_h, std::size_t out_w) {
  RERAMDL_CHECK_GE(factor, 1u);
  RERAMDL_CHECK_EQ(g.in_h, (out_h - 1) * factor + 1);
  RERAMDL_CHECK_EQ(g.in_w, (out_w - 1) * factor + 1);
  return build_impl(g, factor, out_h, out_w);
}

Col2ImPlan Col2ImPlan::build_impl(const ConvGeometry& g, std::size_t factor,
                                  std::size_t out_h, std::size_t out_w) {
  Col2ImPlan p;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t psz = g.patch_size();
  p.img_ = g.in_c * out_h * out_w;
  p.cols_per_sample_ = oh * ow * psz;
  RERAMDL_CHECK_LE(p.cols_per_sample_,
                   static_cast<std::size_t>(
                       std::numeric_limits<std::int32_t>::max()));

  // Two-pass stable counting sort over destination pixels. Both passes walk
  // the scatter's (oy, ox, c, ky, kx) nest, so each pixel's run lists its
  // contributions in exactly the order the scatter-add visits that pixel —
  // summing a run replays the identical float-addition sequence.
  std::vector<std::uint32_t> count(p.img_ + 1, 0);
  auto for_each_tap = [&](auto&& visit) {
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t row_base = (oy * ow + ox) * psz;
        for (std::size_t c = 0; c < g.in_c; ++c)
          for (std::size_t ky = 0; ky < g.kh; ++ky)
            for (std::size_t kx = 0; kx < g.kw; ++kx) {
              const std::int32_t off =
                  source_offset(g, factor, out_h, out_w, oy, ox, c, ky, kx);
              if (off < 0) continue;
              visit(static_cast<std::size_t>(off),
                    static_cast<std::int32_t>(row_base +
                                              (c * g.kh + ky) * g.kw + kx));
            }
      }
  };
  for_each_tap([&](std::size_t q, std::int32_t) { ++count[q + 1]; });
  p.first_.assign(p.img_ + 1, 0);
  for (std::size_t q = 0; q < p.img_; ++q)
    p.first_[q + 1] = p.first_[q] + count[q + 1];
  p.src_.resize(p.first_[p.img_]);
  std::vector<std::uint32_t> next(p.first_.begin(), p.first_.end() - 1);
  for_each_tap(
      [&](std::size_t q, std::int32_t col_off) { p.src_[next[q]++] = col_off; });
  return p;
}

void Col2ImPlan::run(const float* cols, std::size_t n, float* x) const {
  const std::size_t total = n * img_;
  parallel::parallel_for(0, total, 1024, [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t q = p % img_;
      const float* cbase = cols + (p / img_) * cols_per_sample_;
      float acc = 0.0f;
      for (std::uint32_t k = first_[q]; k < first_[q + 1]; ++k)
        acc += cbase[src_[k]];
      x[p] = acc;
    }
  });
}

}  // namespace reramdl
