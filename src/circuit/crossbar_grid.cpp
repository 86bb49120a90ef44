#include "circuit/crossbar_grid.hpp"

#include <algorithm>

#include "circuit/spike_driver.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "obs/obs.hpp"

namespace reramdl::circuit {

CrossbarGrid::CrossbarGrid(const CrossbarConfig& config) : config_(config) {}

void CrossbarGrid::program(const Tensor& weights, double w_max,
                           device::VariationModel* variation) {
  ProgramOptions opts;
  opts.variation = variation;
  program(weights, w_max, opts);
}

void CrossbarGrid::program(const Tensor& weights, double w_max,
                           const ProgramOptions& opts) {
  RERAMDL_CHECK_EQ(weights.shape().rank(), 2u);
  total_rows_ = weights.shape()[0];
  total_cols_ = weights.shape()[1];
  const std::size_t data_cols = config_.data_cols();
  row_tiles_ = (total_rows_ + config_.rows - 1) / config_.rows;
  col_tiles_ = (total_cols_ + data_cols - 1) / data_cols;
  w_max_ = w_max;

  // Tiles are reused in place (their level and W_eff storage survives);
  // reset_counters() makes each read exactly like a freshly built array.
  arrays_.resize(row_tiles_ * col_tiles_, Crossbar(config_));
  Tensor tile;
  for (std::size_t t = 0; t < arrays_.size(); ++t) {
    extract_tile(weights, t, tile);
    arrays_[t].reset_counters();
    arrays_[t].program(tile, w_max, tile_options(opts, t));
  }
  attribute_program_stats();
}

std::size_t CrossbarGrid::tile_fault_salt(std::size_t t) const {
  return t < phys_map_.size() ? phys_map_[t] : t;
}

// Each tile gets an independent seed mixed from the grid's: without it every
// tile would repeat the same fault pattern.
ProgramOptions CrossbarGrid::tile_options(const ProgramOptions& opts,
                                          std::size_t t) const {
  ProgramOptions tile_opts = opts;
  if (opts.faults.enabled())
    tile_opts.faults.seed =
        device::FaultMap::mix_seed(opts.faults.seed, tile_fault_salt(t) + 1);
  return tile_opts;
}

void CrossbarGrid::extract_tile(const Tensor& weights, std::size_t t,
                                Tensor& tile) const {
  const std::size_t data_cols = config_.data_cols();
  const std::size_t rt = t / col_tiles_;
  const std::size_t ct = t % col_tiles_;
  const std::size_t r0 = rt * config_.rows;
  const std::size_t r1 = std::min(r0 + config_.rows, total_rows_);
  const std::size_t c0 = ct * data_cols;
  const std::size_t c1 = std::min(c0 + data_cols, total_cols_);
  tile.reuse(Shape{r1 - r0, c1 - c0});
  const float* src = weights.data() + r0 * total_cols_ + c0;
  float* dst = tile.data();
  for (std::size_t i = r0; i < r1; ++i, src += total_cols_, dst += c1 - c0)
    std::copy(src, src + (c1 - c0), dst);
}

void CrossbarGrid::set_tile_phys_map(std::vector<std::size_t> map) {
  if (!map.empty() && !arrays_.empty())
    RERAMDL_CHECK_EQ(map.size(), arrays_.size());
  phys_map_ = std::move(map);
}

std::uint64_t CrossbarGrid::refresh_tile(std::size_t t, const Tensor& weights,
                                         const ProgramOptions& opts) {
  RERAMDL_CHECK_LT(t, arrays_.size());
  RERAMDL_CHECK_EQ(weights.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(weights.shape()[0], total_rows_);
  RERAMDL_CHECK_EQ(weights.shape()[1], total_cols_);
  const std::uint64_t before = arrays_[t].stats().programmed_cells;
  Tensor tile;
  extract_tile(weights, t, tile);
  arrays_[t].program(tile, w_max_, tile_options(opts, t));
  return arrays_[t].stats().programmed_cells - before;
}

void CrossbarGrid::apply_drift_tile(std::size_t t, double factor) {
  RERAMDL_CHECK_LT(t, arrays_.size());
  arrays_[t].apply_drift(factor);
}

void CrossbarGrid::advance_age(double dt_seconds) {
  for (auto& a : arrays_) a.advance_age(dt_seconds);
}

CrossbarHealth CrossbarGrid::health() const {
  CrossbarHealth total;
  bool first = true;
  for (const auto& a : arrays_) {
    if (first) {
      total = a.health();
      first = false;
    } else {
      total += a.health();
    }
  }
  return total;
}

void CrossbarGrid::attribute_program_stats() const {
  if (!obs::metrics_enabled() || obs_label_.empty()) return;
  // Freshly programmed tiles carry exactly this programming pass's stats —
  // the per-tile write-verify cost the fault campaigns previously only saw
  // as an aggregate.
  auto& attr = obs::Attribution::instance();
  for (std::size_t t = 0; t < arrays_.size(); ++t) {
    const CrossbarStats& s = arrays_[t].stats();
    const std::string path = obs_label_ + "/tile" + std::to_string(t);
    attr.add(path, "verify_retries", static_cast<double>(s.verify_retries));
    attr.add(path, "cells_remapped", static_cast<double>(s.cells_remapped));
    attr.add(path, "faults_injected", static_cast<double>(s.faults_injected));
  }
}

std::size_t CrossbarGrid::inject_at(std::uint64_t step) {
  std::size_t applied = 0;
  for (auto& a : arrays_) applied += a.inject_at(step);
  return applied;
}

std::vector<float> CrossbarGrid::compute(const std::vector<float>& x,
                                         double x_max) {
  RERAMDL_CHECK_EQ(x.size(), total_rows_);
  RERAMDL_CHECK(!arrays_.empty());
  RERAMDL_TRACE_SCOPE("xbar.compute", "circuit");
  obs::ScopedHistogramTimer obs_timer("xbar.mvm_ns");
  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::instance();
    static obs::Counter& mvms = reg.counter("xbar.mvms");
    static obs::Counter& tiles = reg.counter("xbar.tile_mvms");
    mvms.add();
    tiles.add(arrays_.size());
  }

  // Every (row_tile, col_tile) partial-sum MVM is independent — each tile is
  // its own Crossbar with its own stats — so they dispatch to the pool as a
  // flat tile index, each reading its input segment in place (pointer +
  // length, no per-tile copy) and writing into a config_.cols-strided slot
  // of a reused scratch buffer. The vertical add below runs serially
  // afterwards in a fixed row-tile-ascending order (the paper's
  // horizontal-collect / vertical-add of Fig. 3), keeping the result
  // bit-identical for any thread count.
  scratch::Buffer<float> partials(arrays_.size() * config_.cols);
  parallel::parallel_for(0, arrays_.size(), 1, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t rt = t / col_tiles_;
      const std::size_t r0 = rt * config_.rows;
      arrays_[t].compute(x.data() + r0, arrays_[t].active_rows(), x_max,
                         partials.data() + t * config_.cols);
    }
  });

  std::vector<float> y(total_cols_, 0.0f);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::size_t t = rt * col_tiles_ + ct;
      const std::size_t c0 = ct * config_.data_cols();
      const float* partial = partials.data() + t * config_.cols;
      const std::size_t cw = arrays_[t].active_cols();
      for (std::size_t j = 0; j < cw; ++j) y[c0 + j] += partial[j];
    }
  }
  return y;
}

Tensor CrossbarGrid::compute_batch(const Tensor& rows, double x_max) {
  RERAMDL_CHECK_EQ(rows.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(rows.shape()[1], total_rows_);
  RERAMDL_CHECK(!arrays_.empty());
  const std::size_t m = rows.shape()[0];
  Tensor out(Shape{m, total_cols_});
  if (m == 0) return out;

  RERAMDL_TRACE_SCOPE("xbar.compute_batch", "circuit");
  obs::ScopedHistogramTimer obs_timer("xbar.batch_mvm_ns");
  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::instance();
    static obs::Counter& batches = reg.counter("xbar.batch_mvms");
    static obs::Counter& rows_c = reg.counter("xbar.batch_rows");
    static obs::Counter& tiles = reg.counter("xbar.tile_mvms");
    static obs::Histogram& sizes = reg.histogram("xbar.batch_size");
    batches.add();
    rows_c.add(m);
    tiles.add(arrays_.size() * m);
    sizes.record(static_cast<double>(m));
  }

  if (config_.bit_serial) {
    // The cycle-accurate emulation stays per-vector (compute() already
    // fans its tiles out to the pool).
    for (std::size_t b = 0; b < m; ++b) {
      const float* xrow = rows.data() + b * total_rows_;
      const std::vector<float> y =
          compute(std::vector<float>(xrow, xrow + total_rows_), x_max);
      std::copy(y.begin(), y.end(), out.data() + b * total_cols_);
    }
    obs::snapshot_wall_tick();
    return out;
  }

  // Per-layer / per-tile attribution (obs::Attribution) is live only when a
  // label was assigned; the per-call deltas below are merged serially, so
  // the booked values are identical for any RERAMDL_THREADS.
  const bool attributing = obs::metrics_enabled() && !obs_label_.empty();
  std::vector<CrossbarStats> tile_deltas(attributing ? arrays_.size() : 0);

  // Row-block size per work item (matches the Crossbar kernel's W_eff reuse
  // window) and a cap on the partial-sum staging buffer; the batch is
  // processed in macro-chunks so arbitrarily large m (im2col row counts)
  // keeps bounded memory. Neither affects results: per-row arithmetic is
  // independent and the merge order below is fixed. Staging is sized to the
  // largest tile, not the array geometry: a partial row holds pcols floats.
  constexpr std::size_t kBlock = 32;
  constexpr std::size_t kMaxPartialFloats = 8u << 20;  // 32 MiB staging cap
  const std::size_t pcols = std::min(config_.data_cols(), total_cols_);
  const std::size_t srows = std::min(config_.rows, total_rows_);
  const std::size_t per_row = arrays_.size() * pcols;
  std::size_t chunk = std::max<std::size_t>(
      kBlock, kMaxPartialFloats / std::max<std::size_t>(per_row, 1));
  chunk = std::min(chunk, m);

  scratch::Buffer<float> partials(arrays_.size() * chunk * pcols);
  std::vector<CrossbarStats> deltas;
  for (std::size_t b0 = 0; b0 < m; b0 += chunk) {
    const std::size_t cm = std::min(chunk, m - b0);
    const std::size_t nblocks = (cm + kBlock - 1) / kBlock;
    deltas.assign(arrays_.size() * nblocks, CrossbarStats{});

    // One work item per (row-strip, row-block). It quantizes the block's
    // input segment once (every column tile of a strip drives the same
    // spikes, so quantization runs once per strip, not once per tile) and
    // runs each of the strip's tiles on it while the levels are still in
    // L1. Writes land in disjoint partial slots; stats accumulate into
    // per-(tile, block) deltas, each tile credited with its strip's spike
    // count (exactly what it would have counted quantizing its own slice),
    // and merge serially after.
    parallel::parallel_for(0, row_tiles_ * nblocks, 1, [&](std::size_t w0,
                                                           std::size_t w1) {
      scratch::Buffer<double> xt(srows * kBlock);
      for (std::size_t w = w0; w < w1; ++w) {
        const std::size_t rt = w / nblocks;
        const std::size_t blk = w % nblocks;
        const std::size_t bb = blk * kBlock;
        const std::size_t bm = std::min(kBlock, cm - bb);
        const float* seg =
            rows.data() + (b0 + bb) * total_rows_ + rt * config_.rows;
        const std::uint64_t spikes = arrays_[rt * col_tiles_].quantize_batch(
            seg, bm, total_rows_, x_max, xt.data());
        for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
          const std::size_t t = rt * col_tiles_ + ct;
          CrossbarStats& delta = deltas[t * nblocks + blk];
          delta.input_spikes += spikes;
          float* dst = partials.data() + (t * chunk + bb) * pcols;
          arrays_[t].compute_batch_prequant(xt.data(), bm, x_max, dst, pcols,
                                            delta);
        }
      }
    });

    for (std::size_t w = 0; w < deltas.size(); ++w) {
      arrays_[w / nblocks].merge_stats(deltas[w]);
      if (attributing) tile_deltas[w / nblocks] += deltas[w];
    }

    // Vertical add in row-tile-ascending order per output element — the
    // same fixed merge the per-vector path uses.
    for (std::size_t b = 0; b < cm; ++b) {
      float* orow = out.data() + (b0 + b) * total_cols_;
      for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
        for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
          const std::size_t t = rt * col_tiles_ + ct;
          const std::size_t c0 = ct * config_.data_cols();
          const float* partial = partials.data() + (t * chunk + b) * pcols;
          const std::size_t cw = arrays_[t].active_cols();
          for (std::size_t j = 0; j < cw; ++j) orow[c0 + j] += partial[j];
        }
      }
    }
  }

  if (attributing) {
    // Book each tile's share of this batch: achieved vs roofline flops (the
    // utilization numerator/denominator — edge tiles are partially filled),
    // spike-driver dynamic energy (spike_count x per-spike cost, the same
    // model as SpikeDriver::drive_energy_pj).
    auto& attr = obs::Attribution::instance();
    const double mm = static_cast<double>(m);
    for (std::size_t t = 0; t < arrays_.size(); ++t) {
      const std::string path = obs_label_ + "/tile" + std::to_string(t);
      const double ar = static_cast<double>(arrays_[t].active_rows());
      const double ac = static_cast<double>(arrays_[t].active_cols());
      attr.add(path, "mvm_rows", mm);
      attr.add(path, "flops", 2.0 * ar * ac * mm);
      attr.add(path, "roofline_flops",
               2.0 * static_cast<double>(config_.rows) *
                   static_cast<double>(config_.data_cols()) * mm);
      attr.add(path, "energy_pj",
               static_cast<double>(tile_deltas[t].input_spikes) *
                   SpikeDriver::kDefaultSpikePj);
    }
  }
  obs::snapshot_wall_tick();
  return out;
}

void CrossbarGrid::apply_drift(double factor) {
  for (auto& a : arrays_) a.apply_drift(factor);
}

CrossbarStats CrossbarGrid::aggregate_stats() const {
  CrossbarStats total;
  for (const auto& a : arrays_) total += a.stats();
  return total;
}

}  // namespace reramdl::circuit
