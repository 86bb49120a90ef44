// Equivalence tests for the batched crossbar MVM fast path:
//   (a) CrossbarGrid::compute_batch is bit-identical to looping the
//       single-vector compute() path, for thread counts 1 / 4 / 8;
//   (b) the collapsed-W_eff fast path matches the slice-walk reference
//       (compute_reference) exactly — without variation, with a variation
//       model attached, and after retention drift;
//   (c) aggregate CrossbarStats are identical between batched and looped
//       execution.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "circuit/crossbar.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "device/variation.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace reramdl;

struct ThreadCountGuard {
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

circuit::CrossbarConfig small_grid_config() {
  circuit::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  return cfg;
}

Tensor batch_inputs(std::size_t m, std::size_t k, unsigned seed) {
  Rng rng(seed);
  return Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
}

// Looped baseline: one grid.compute() per batch row.
Tensor looped_compute(circuit::CrossbarGrid& grid, const Tensor& rows,
                      double x_max) {
  const std::size_t m = rows.shape()[0], k = rows.shape()[1];
  Tensor out(Shape{m, grid.total_cols()});
  std::vector<float> x(k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) x[j] = rows.at(i, j);
    const std::vector<float> y = grid.compute(x, x_max);
    for (std::size_t j = 0; j < y.size(); ++j) out.at(i, j) = y[j];
  }
  return out;
}

void expect_stats_eq(const circuit::CrossbarStats& a,
                     const circuit::CrossbarStats& b) {
  EXPECT_EQ(a.programmed_cells, b.programmed_cells);
  EXPECT_EQ(a.compute_ops, b.compute_ops);
  EXPECT_EQ(a.input_spikes, b.input_spikes);
  EXPECT_EQ(a.saturated_counters, b.saturated_counters);
}

TEST(CrossbarBatch, GridBatchBitIdenticalToLoopedAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(101);
  // 5x4 tiles with ragged bottom/right edges; batch sizes straddle the
  // 32-row kernel block so both partial and full blocks are exercised.
  const Tensor w = Tensor::uniform(Shape{150, 120}, rng, -1.0f, 1.0f);
  for (const std::size_t m : {std::size_t{1}, std::size_t{5}, std::size_t{33}}) {
    const Tensor rows = batch_inputs(m, 150, 7u + static_cast<unsigned>(m));

    parallel::set_thread_count(1);
    circuit::CrossbarGrid looped_grid(small_grid_config());
    looped_grid.program(w, 1.0);
    const Tensor ref = looped_compute(looped_grid, rows, 1.0);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      parallel::set_thread_count(threads);
      circuit::CrossbarGrid grid(small_grid_config());
      grid.program(w, 1.0);
      const Tensor out = grid.compute_batch(rows, 1.0);
      ASSERT_EQ(out.shape(), ref.shape());
      EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                            ref.numel() * sizeof(float)),
                0)
          << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(CrossbarBatch, CollapsedFastPathMatchesSliceWalkReference) {
  Rng rng(11);
  circuit::CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 48;
  const Tensor w = Tensor::uniform(Shape{60, 40}, rng, -0.8f, 0.8f);
  circuit::Crossbar xbar(cfg);
  xbar.program(w, 0.8);

  std::vector<float> x(60);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const std::vector<float> fast = xbar.compute(x, 1.0);
  const std::vector<float> ref = xbar.compute_reference(x, 1.0);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t j = 0; j < fast.size(); ++j)
    EXPECT_EQ(fast[j], ref[j]) << "column " << j;
}

TEST(CrossbarBatch, CollapsedFastPathMatchesReferenceAfterDrift) {
  Rng rng(12);
  circuit::CrossbarConfig cfg;
  cfg.rows = 48;
  cfg.cols = 48;
  const Tensor w = Tensor::uniform(Shape{48, 48}, rng, -1.0f, 1.0f);
  circuit::Crossbar xbar(cfg);
  xbar.program(w, 1.0);
  // Full-mantissa drift factor: with stale W_eff (or a mismatched collapse
  // order) the paths would diverge in the last ulp.
  xbar.apply_drift(0.9137624296374218);

  std::vector<float> x(48);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const std::vector<float> fast = xbar.compute(x, 1.0);
  const std::vector<float> ref = xbar.compute_reference(x, 1.0);
  for (std::size_t j = 0; j < fast.size(); ++j)
    EXPECT_EQ(fast[j], ref[j]) << "column " << j;
}

TEST(CrossbarBatch, CollapsedFastPathMatchesReferenceWithVariation) {
  Rng rng(13);
  circuit::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  const Tensor w = Tensor::uniform(Shape{32, 32}, rng, -1.0f, 1.0f);
  device::VariationParams vp;
  vp.sigma = 0.08;
  device::VariationModel vm(vp, Rng(99));
  circuit::Crossbar xbar(cfg);
  xbar.program(w, 1.0, &vm);

  std::vector<float> x(32);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const std::vector<float> fast = xbar.compute(x, 1.0);
  const std::vector<float> ref = xbar.compute_reference(x, 1.0);
  for (std::size_t j = 0; j < fast.size(); ++j)
    EXPECT_EQ(fast[j], ref[j]) << "column " << j;
}

TEST(CrossbarBatch, WEffRebuiltOnReprogram) {
  Rng rng(14);
  circuit::CrossbarConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  circuit::Crossbar xbar(cfg);
  xbar.program(Tensor::uniform(Shape{16, 16}, rng, -1.0f, 1.0f), 1.0);
  xbar.apply_drift(0.7);
  const Tensor w2 = Tensor::uniform(Shape{16, 16}, rng, -1.0f, 1.0f);
  xbar.program(w2, 1.0);  // reprogram restores fresh levels and W_eff

  circuit::Crossbar fresh(cfg);
  fresh.program(w2, 1.0);
  EXPECT_EQ(xbar.effective_weights(), fresh.effective_weights());

  std::vector<float> x(16);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto ya = xbar.compute(x, 1.0);
  const auto yb = fresh.compute(x, 1.0);
  for (std::size_t j = 0; j < ya.size(); ++j) EXPECT_EQ(ya[j], yb[j]);
}

TEST(CrossbarBatch, CrossbarComputeBatchMatchesPerRow) {
  Rng rng(15);
  circuit::CrossbarConfig cfg;
  cfg.rows = 40;
  cfg.cols = 24;
  const Tensor w = Tensor::uniform(Shape{40, 24}, rng, -1.0f, 1.0f);
  const Tensor rows = batch_inputs(37, 40, 3);  // straddles one kernel block

  circuit::Crossbar batched(cfg);
  batched.program(w, 1.0);
  circuit::Crossbar looped(cfg);
  looped.program(w, 1.0);

  const Tensor out = batched.compute_batch(rows, 1.0);
  for (std::size_t b = 0; b < 37; ++b) {
    std::vector<float> x(40);
    for (std::size_t i = 0; i < 40; ++i) x[i] = rows.at(b, i);
    const std::vector<float> y = looped.compute(x, 1.0);
    for (std::size_t j = 0; j < y.size(); ++j)
      EXPECT_EQ(out.at(b, j), y[j]) << "row " << b << " col " << j;
  }
  expect_stats_eq(batched.stats(), looped.stats());
}

TEST(CrossbarBatch, AggregateStatsIdenticalBatchedVsLooped) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  Rng rng(16);
  const Tensor w = Tensor::uniform(Shape{100, 70}, rng, -1.0f, 1.0f);
  const Tensor rows = batch_inputs(41, 100, 21);

  circuit::CrossbarGrid batched(small_grid_config());
  batched.program(w, 1.0);
  circuit::CrossbarGrid looped(small_grid_config());
  looped.program(w, 1.0);

  const Tensor out_b = batched.compute_batch(rows, 1.0);
  const Tensor out_l = looped_compute(looped, rows, 1.0);
  EXPECT_EQ(std::memcmp(out_b.data(), out_l.data(),
                        out_l.numel() * sizeof(float)),
            0);
  expect_stats_eq(batched.aggregate_stats(), looped.aggregate_stats());
  // The stats themselves carry the expected totals: one MVM activation per
  // (tile, row) and one popcount contribution per quantized input element.
  EXPECT_EQ(batched.aggregate_stats().compute_ops,
            41u * batched.num_arrays());
}

TEST(CrossbarBatch, BitSerialGridBatchFallbackMatchesLooped) {
  ThreadCountGuard guard;
  parallel::set_thread_count(2);
  Rng rng(17);
  circuit::CrossbarConfig cfg = small_grid_config();
  cfg.bit_serial = true;
  const Tensor w = Tensor::uniform(Shape{40, 40}, rng, -1.0f, 1.0f);
  const Tensor rows = batch_inputs(3, 40, 31);

  circuit::CrossbarGrid batched(cfg);
  batched.program(w, 1.0);
  circuit::CrossbarGrid looped(cfg);
  looped.program(w, 1.0);

  const Tensor out_b = batched.compute_batch(rows, 1.0);
  const Tensor out_l = looped_compute(looped, rows, 1.0);
  EXPECT_EQ(std::memcmp(out_b.data(), out_l.data(),
                        out_l.numel() * sizeof(float)),
            0);
  expect_stats_eq(batched.aggregate_stats(), looped.aggregate_stats());
}

TEST(CrossbarBatch, EmptyBatchReturnsEmptyOutput) {
  Rng rng(18);
  circuit::CrossbarGrid grid(small_grid_config());
  grid.program(Tensor::uniform(Shape{40, 40}, rng, -1.0f, 1.0f), 1.0);
  const Tensor out = grid.compute_batch(Tensor(Shape{0, 40}), 1.0);
  EXPECT_EQ(out.shape()[0], 0u);
  EXPECT_EQ(out.shape()[1], 40u);
  EXPECT_EQ(grid.aggregate_stats().compute_ops, 0u);
}

TEST(CrossbarBatch, AllZeroBatchDrivesNoSpikes) {
  Rng rng(23);
  circuit::CrossbarGrid grid(small_grid_config());
  grid.program(Tensor::uniform(Shape{96, 64}, rng, -1.0f, 1.0f), 1.0);
  const Tensor out = grid.compute_batch(Tensor::zeros(Shape{8, 96}), 1.0);

  EXPECT_EQ(grid.aggregate_stats().input_spikes, 0u);  // no wordline fires
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], 0.0f);
}

}  // namespace
