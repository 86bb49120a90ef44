#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "device/quantizer.hpp"
#include "device/reram_cell.hpp"
#include "device/variation.hpp"

namespace reramdl::device {
namespace {

TEST(CellParams, LevelsFromBits) {
  CellParams c;
  c.bits_per_cell = 4;
  EXPECT_EQ(c.levels(), 16u);
  c.bits_per_cell = 1;
  EXPECT_EQ(c.levels(), 2u);
}

TEST(CellParams, ConductanceEndpoints) {
  CellParams c;
  EXPECT_DOUBLE_EQ(c.conductance_us(0), c.g_off_us);
  EXPECT_DOUBLE_EQ(c.conductance_us(c.levels() - 1), c.g_on_us);
}

TEST(CellParams, ConductanceMonotoneInLevel) {
  CellParams c;
  for (std::size_t l = 1; l < c.levels(); ++l)
    EXPECT_GT(c.conductance_us(l), c.conductance_us(l - 1));
}

TEST(CellParams, OutOfRangeLevelThrows) {
  CellParams c;
  EXPECT_THROW(c.conductance_us(c.levels()), CheckError);
}

TEST(CellParams, ProgramCostsScaleWithPulses) {
  CellParams c;
  c.tune_pulses = 5;
  EXPECT_DOUBLE_EQ(c.program_energy_pj(), 5.0 * c.write_energy_pj);
  EXPECT_DOUBLE_EQ(c.program_latency_ns(), 5.0 * c.write_pulse_ns);
}

class QuantizerRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizerRoundTrip, ErrorBoundedByHalfStep) {
  const std::size_t bits = GetParam();
  const LinearQuantizer q(bits, 2.0);
  Rng rng(bits);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    const double back = q.dequantize(q.quantize(v));
    EXPECT_LE(std::abs(back - v), q.step() * 0.5 + 1e-12);
  }
}

TEST_P(QuantizerRoundTrip, SaturatesAtRangeEdge) {
  const std::size_t bits = GetParam();
  const LinearQuantizer q(bits, 1.0);
  EXPECT_EQ(q.quantize(100.0), q.max_level());
  EXPECT_EQ(q.quantize(-100.0), -q.max_level());
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 12, 16));

TEST(Quantizer, ZeroMapsToZero) {
  const LinearQuantizer q(8, 1.0);
  EXPECT_EQ(q.quantize(0.0), 0);
  EXPECT_DOUBLE_EQ(q.dequantize(0), 0.0);
}

TEST(Quantizer, SignSymmetry) {
  const LinearQuantizer q(8, 1.0);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    EXPECT_EQ(q.quantize(v), -q.quantize(-v));
  }
}

TEST(Quantizer, InvalidConfigThrows) {
  EXPECT_THROW(LinearQuantizer(0, 1.0), CheckError);
  EXPECT_THROW(LinearQuantizer(8, 0.0), CheckError);
  EXPECT_THROW(LinearQuantizer(8, -1.0), CheckError);
}

class BitSliceRoundTrip
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(BitSliceRoundTrip, SliceUnsliceIdentity) {
  const auto [bits_per_slice, num_slices] = GetParam();
  Rng rng(77);
  const std::uint64_t max =
      (bits_per_slice * num_slices >= 64)
          ? ~std::uint64_t{0}
          : (std::uint64_t{1} << (bits_per_slice * num_slices)) - 1;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t m = rng.next_u64() & max;
    const auto slices = bit_slice(m, bits_per_slice, num_slices);
    EXPECT_EQ(bit_unslice(slices, bits_per_slice), m);
    for (const auto s : slices)
      EXPECT_LT(s, std::uint64_t{1} << bits_per_slice);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BitSliceRoundTrip,
    ::testing::Values(std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{2, 8},
                      std::pair<std::size_t, std::size_t>{1, 16},
                      std::pair<std::size_t, std::size_t>{8, 2},
                      std::pair<std::size_t, std::size_t>{4, 2}));

TEST(BitSlice, OverflowingMagnitudeThrows) {
  EXPECT_THROW(bit_slice(16, 2, 2), CheckError);  // 16 needs 5 bits, have 4
}

TEST(Variation, DisabledIsIdentity) {
  VariationModel vm(VariationParams{}, Rng(1));
  EXPECT_FALSE(vm.params().enabled());
  for (double level : {0.0, 3.0, 15.0})
    EXPECT_DOUBLE_EQ(vm.perturb(level, 15.0), level);
}

TEST(Variation, LognormalPreservesMeanLevel) {
  VariationParams p;
  p.sigma = 0.2;
  VariationModel vm(p, Rng(2));
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(vm.perturb(8.0, 15.0));
  EXPECT_NEAR(s.mean(), 8.0, 0.05);
}

TEST(Variation, PerturbedLevelsStayInRange) {
  VariationParams p;
  p.sigma = 1.0;
  VariationModel vm(p, Rng(3));
  for (int i = 0; i < 10000; ++i) {
    const double l = vm.perturb(14.0, 15.0);
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, 15.0);
  }
}

}  // namespace
}  // namespace reramdl::device
