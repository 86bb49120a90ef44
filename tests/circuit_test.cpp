#include <gtest/gtest.h>

#include <cmath>

#include "circuit/crossbar.hpp"
#include "circuit/crossbar_grid.hpp"
#include "circuit/integrate_fire.hpp"
#include "circuit/spike_driver.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"

namespace reramdl::circuit {
namespace {

std::vector<float> reference_mvm(const Tensor& w, const std::vector<float>& x) {
  const std::size_t r = w.shape()[0], c = w.shape()[1];
  std::vector<float> y(c, 0.0f);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) y[j] += x[i] * w.at(i, j);
  return y;
}

struct XbarCase {
  std::size_t rows, cols;
  std::size_t bits_per_cell, weight_bits, input_bits;
};

class CrossbarAccuracy : public ::testing::TestWithParam<XbarCase> {};

TEST_P(CrossbarAccuracy, MatchesFloatMvmWithinQuantizationError) {
  const auto p = GetParam();
  CrossbarConfig cfg;
  cfg.rows = p.rows;
  cfg.cols = p.cols;
  cfg.cell.bits_per_cell = p.bits_per_cell;
  cfg.weight_bits = p.weight_bits;
  cfg.input_bits = p.input_bits;

  Rng rng(p.rows * 31 + p.weight_bits);
  const Tensor w = Tensor::uniform(Shape{p.rows, p.cols}, rng, -1.0f, 1.0f);
  std::vector<float> x(p.rows);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Crossbar xbar(cfg);
  xbar.program(w, 1.0);
  const std::vector<float> y = xbar.compute(x, 1.0);
  const std::vector<float> ref = reference_mvm(w, x);

  // Error budget: weight + input quantization each contribute at most half a
  // step per term; accumulate over rows (loose bound with headroom 4x).
  const double w_step = 1.0 / static_cast<double>((1u << p.weight_bits) - 1);
  const double x_step = 1.0 / static_cast<double>((1u << p.input_bits) - 1);
  const double bound =
      4.0 * static_cast<double>(p.rows) * (0.5 * w_step + 0.5 * x_step + w_step * x_step);
  for (std::size_t j = 0; j < y.size(); ++j)
    EXPECT_NEAR(y[j], ref[j], bound) << "column " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossbarAccuracy,
    ::testing::Values(XbarCase{8, 8, 4, 16, 8}, XbarCase{32, 16, 4, 16, 8},
                      XbarCase{128, 128, 4, 16, 8}, XbarCase{64, 64, 2, 16, 8},
                      XbarCase{64, 64, 1, 16, 8}, XbarCase{16, 16, 4, 8, 4},
                      XbarCase{100, 40, 4, 12, 6}, XbarCase{128, 1, 4, 16, 8}));

class CrossbarBitSerial : public ::testing::TestWithParam<XbarCase> {};

TEST_P(CrossbarBitSerial, FastPathEqualsBitSerialWithoutSaturation) {
  const auto p = GetParam();
  CrossbarConfig fast_cfg;
  fast_cfg.rows = p.rows;
  fast_cfg.cols = p.cols;
  fast_cfg.cell.bits_per_cell = p.bits_per_cell;
  fast_cfg.weight_bits = p.weight_bits;
  fast_cfg.input_bits = p.input_bits;
  fast_cfg.counter_bits = 30;  // wide enough: no clamping
  CrossbarConfig serial_cfg = fast_cfg;
  serial_cfg.bit_serial = true;

  Rng rng(p.rows * 7 + p.input_bits);
  const Tensor w = Tensor::uniform(Shape{p.rows, p.cols}, rng, -1.0f, 1.0f);
  std::vector<float> x(p.rows);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Crossbar fast(fast_cfg), serial(serial_cfg);
  fast.program(w, 1.0);
  serial.program(w, 1.0);
  const auto yf = fast.compute(x, 1.0);
  const auto ys = serial.compute(x, 1.0);
  ASSERT_EQ(yf.size(), ys.size());
  for (std::size_t j = 0; j < yf.size(); ++j)
    EXPECT_NEAR(yf[j], ys[j], 1e-4f) << "column " << j;
  EXPECT_EQ(serial.stats().saturated_counters, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossbarBitSerial,
    ::testing::Values(XbarCase{8, 8, 4, 16, 8}, XbarCase{32, 8, 2, 8, 4},
                      XbarCase{16, 16, 1, 4, 3}, XbarCase{64, 32, 4, 16, 8}));

TEST(Crossbar, SaturationClampsAndIsCounted) {
  CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 4;
  cfg.counter_bits = 4;  // counters clamp at 15 although sums reach 64*15
  cfg.bit_serial = true;
  Rng rng(9);
  const Tensor w = Tensor::full(Shape{64, 4}, 1.0f);
  std::vector<float> x(64, 1.0f);
  Crossbar xbar(cfg);
  xbar.program(w, 1.0);
  const auto y = xbar.compute(x, 1.0);
  EXPECT_GT(xbar.stats().saturated_counters, 0u);
  // Clamped output is strictly below the ideal 64.0 per column.
  for (const float v : y) EXPECT_LT(v, 64.0f);
}

TEST(Crossbar, ZeroInputGivesZeroOutput) {
  CrossbarConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  Rng rng(10);
  const Tensor w = Tensor::uniform(Shape{16, 16}, rng, -1.0f, 1.0f);
  Crossbar xbar(cfg);
  xbar.program(w, 1.0);
  const auto y = xbar.compute(std::vector<float>(16, 0.0f), 1.0);
  for (const float v : y) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Crossbar, StatsTrackProgramsAndComputes) {
  CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  Rng rng(11);
  const Tensor w = Tensor::uniform(Shape{8, 8}, rng, -1.0f, 1.0f);
  Crossbar xbar(cfg);
  xbar.program(w, 1.0);
  // 8x8 entries x 4 slices x 2 polarities.
  EXPECT_EQ(xbar.stats().programmed_cells, 8u * 8u * 4u * 2u);
  xbar.compute(std::vector<float>(8, 0.5f), 1.0);
  xbar.compute(std::vector<float>(8, 0.5f), 1.0);
  EXPECT_EQ(xbar.stats().compute_ops, 2u);
  EXPECT_GT(xbar.stats().input_spikes, 0u);
}

TEST(Crossbar, OversizeWeightMatrixThrows) {
  CrossbarConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  Crossbar xbar(cfg);
  EXPECT_THROW(xbar.program(Tensor(Shape{5, 4}), 1.0), CheckError);
}

TEST(Crossbar, IndivisibleWeightBitsThrow) {
  CrossbarConfig cfg;
  cfg.weight_bits = 10;  // not a multiple of 4 bits/cell
  EXPECT_THROW(Crossbar{cfg}, CheckError);
}

TEST(Crossbar, VariationShiftsResults) {
  CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  Rng rng(12);
  const Tensor w = Tensor::uniform(Shape{32, 32}, rng, -1.0f, 1.0f);
  std::vector<float> x(32);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Crossbar ideal(cfg), noisy(cfg);
  ideal.program(w, 1.0);
  device::VariationParams vp;
  vp.sigma = 0.3;
  device::VariationModel vm(vp, Rng(13));
  noisy.program(w, 1.0, &vm);
  const auto yi = ideal.compute(x, 1.0);
  const auto yn = noisy.compute(x, 1.0);
  EXPECT_GT(max_abs_diff(yi, yn), 0.0);
}

// ---- CrossbarGrid -----------------------------------------------------------

struct GridCase {
  std::size_t big_rows, big_cols, array;
};

class GridComposition : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridComposition, TiledResultMatchesMonolithicCrossbar) {
  const auto p = GetParam();
  CrossbarConfig small;
  small.rows = small.cols = p.array;
  CrossbarConfig big;
  big.rows = p.big_rows;
  big.cols = p.big_cols;

  Rng rng(p.big_rows + p.array);
  const Tensor w = Tensor::uniform(Shape{p.big_rows, p.big_cols}, rng, -1.0f, 1.0f);
  std::vector<float> x(p.big_rows);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  CrossbarGrid grid(small);
  grid.program(w, 1.0);
  Crossbar mono(big);
  mono.program(w, 1.0);

  const auto yg = grid.compute(x, 1.0);
  const auto ym = mono.compute(x, 1.0);
  ASSERT_EQ(yg.size(), ym.size());
  // Identical quantization; partial-sum collection is exact.
  for (std::size_t j = 0; j < yg.size(); ++j) EXPECT_NEAR(yg[j], ym[j], 1e-4f);
}

TEST_P(GridComposition, TileCountsAreCeilDivided) {
  const auto p = GetParam();
  CrossbarConfig small;
  small.rows = small.cols = p.array;
  CrossbarGrid grid(small);
  grid.program(Tensor(Shape{p.big_rows, p.big_cols}), 1.0);
  const auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
  EXPECT_EQ(grid.row_tiles(), ceil_div(p.big_rows, p.array));
  EXPECT_EQ(grid.col_tiles(), ceil_div(p.big_cols, p.array));
  EXPECT_EQ(grid.num_arrays(), grid.row_tiles() * grid.col_tiles());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridComposition,
    ::testing::Values(GridCase{100, 60, 32}, GridCase{64, 64, 64},
                      GridCase{65, 64, 64}, GridCase{130, 70, 128},
                      GridCase{20, 200, 64}, GridCase{33, 33, 16}));

TEST(Grid, Fig3PartitionExample) {
  // Paper Fig. 4(b): the 1152x256 kernel matrix splits into 9x2 = 18 arrays
  // of 128x128.
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 128;
  CrossbarGrid grid(cfg);
  grid.program(Tensor(Shape{1152, 256}), 1.0);
  EXPECT_EQ(grid.row_tiles(), 9u);
  EXPECT_EQ(grid.col_tiles(), 2u);
  EXPECT_EQ(grid.num_arrays(), 18u);
}

// ---- Peripheral components --------------------------------------------------

TEST(SpikeDriver, EncodeDecodeRoundTrip) {
  SpikeDriver drv(8, 2.0);
  Rng rng(14);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    const SpikeTrain t = drv.encode(v);
    EXPECT_NEAR(drv.decode(t), v, drv.quantizer().step() * 0.5 + 1e-12);
  }
}

TEST(SpikeDriver, WeightedCodingUsesAtMostNBits) {
  SpikeDriver drv(8, 1.0);
  const SpikeTrain t = drv.encode(0.999);
  EXPECT_EQ(t.bits.size(), 8u);
  EXPECT_EQ(t.spike_count(), 8u);  // max magnitude = all ones
  const SpikeTrain z = drv.encode(0.0);
  EXPECT_EQ(z.spike_count(), 0u);
}

TEST(SpikeDriver, SignCarriedByPhase) {
  SpikeDriver drv(8, 1.0);
  EXPECT_FALSE(drv.encode(0.5).negative);
  EXPECT_TRUE(drv.encode(-0.5).negative);
}

TEST(SpikeDriver, ZeroInputDrivesNoSpikesAndNoEnergy) {
  // Weighted-spike coding (Sec. II-B): a zero activation encodes to an
  // empty train, so its wordline costs exactly nothing — no spikes, no
  // modeled drive energy.
  SpikeDriver drv(8, 1.0);
  const SpikeTrain z = drv.encode(0.0);
  EXPECT_EQ(z.spike_count(), 0u);
  EXPECT_EQ(drv.drive_energy_pj(z), 0.0);
  // Sub-LSB values quantize to zero and are equally free.
  const SpikeTrain tiny = drv.encode(drv.quantizer().step() * 0.49);
  EXPECT_EQ(tiny.spike_count(), 0u);
  EXPECT_EQ(drv.drive_energy_pj(tiny), 0.0);
}

TEST(SpikeDriver, DriveEnergyScalesWithSpikeCount) {
  SpikeDriver drv(8, 1.0);
  const SpikeTrain full = drv.encode(0.999);  // all 8 phases spike
  EXPECT_DOUBLE_EQ(drv.drive_energy_pj(full),
                   8.0 * SpikeDriver::kDefaultSpikePj);
  EXPECT_DOUBLE_EQ(drv.drive_energy_pj(full, 0.5), 4.0);
  const SpikeTrain neg = drv.encode(-0.999);  // polarity doesn't change cost
  EXPECT_DOUBLE_EQ(drv.drive_energy_pj(neg), drv.drive_energy_pj(full));
}

TEST(IntegrateFire, CountsThresholdCrossings) {
  IntegrateFire inf(2.0, 8);
  EXPECT_EQ(inf.convert(0.0), 0u);
  EXPECT_EQ(inf.convert(1.9), 0u);
  EXPECT_EQ(inf.convert(2.0), 1u);
  EXPECT_EQ(inf.convert(7.5), 3u);
}

TEST(IntegrateFire, SaturatesAtCounterWidth) {
  IntegrateFire inf(1.0, 4);
  EXPECT_EQ(inf.max_count(), 15u);
  EXPECT_EQ(inf.convert(100.0), 15u);
  EXPECT_EQ(inf.saturation_events(), 1u);
}

TEST(IntegrateFire, NegativeChargeThrows) {
  IntegrateFire inf(1.0, 4);
  EXPECT_THROW(inf.convert(-1.0), CheckError);
}

}  // namespace
}  // namespace reramdl::circuit
