#include <gtest/gtest.h>

#include "circuit/crossbar.hpp"
#include "common/check.hpp"
#include "device/reliability.hpp"
#include "oracle.hpp"

namespace reramdl {
namespace {

TEST(Endurance, LifetimeInverseInWriteRate) {
  device::EnduranceModel m(device::EnduranceParams{1e9});
  EXPECT_DOUBLE_EQ(m.lifetime_seconds(1.0), 1e9);
  EXPECT_DOUBLE_EQ(m.lifetime_seconds(1000.0), 1e6);
}

TEST(Endurance, LargerBatchExtendsTrainingLifetime) {
  // The update cycle fires once per batch: at a fixed sample rate, a larger
  // batch means fewer reprogram cycles per second — the architectural reason
  // the paper accumulates updates over batches.
  device::EnduranceModel m(device::EnduranceParams{1e9});
  const double samples_per_second = 1e6;
  const double life_b8 = m.training_lifetime_seconds(samples_per_second / 8);
  const double life_b64 = m.training_lifetime_seconds(samples_per_second / 64);
  EXPECT_NEAR(life_b64 / life_b8, 8.0, 1e-9);
}

TEST(Endurance, InvalidRateThrows) {
  device::EnduranceModel m(device::EnduranceParams{});
  EXPECT_THROW(m.lifetime_seconds(0.0), CheckError);
}

TEST(Retention, NoDriftBeforeT0) {
  device::RetentionModel m(device::RetentionParams{0.01, 10.0});
  EXPECT_DOUBLE_EQ(m.drift_factor(0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.drift_factor(10.0), 1.0);
}

TEST(Retention, FactorDecreasesMonotonically) {
  device::RetentionModel m(device::RetentionParams{0.02, 1.0});
  double prev = 1.0;
  for (double t : {2.0, 10.0, 3600.0, 86400.0, 2.6e6}) {
    const double f = m.drift_factor(t);
    EXPECT_LT(f, prev);
    EXPECT_GT(f, 0.0);
    prev = f;
  }
}

TEST(Retention, ZeroNuMeansNoDrift) {
  device::RetentionModel m(device::RetentionParams{0.0, 1.0});
  EXPECT_DOUBLE_EQ(m.drift_factor(1e9), 1.0);
}

TEST(Retention, PowerLawValue) {
  device::RetentionModel m(device::RetentionParams{0.5, 1.0});
  EXPECT_NEAR(m.drift_factor(4.0), 0.5, 1e-12);  // 4^-0.5
}

TEST(CrossbarDrift, ScalesOutputsMultiplicatively) {
  circuit::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 16;
  circuit::Crossbar xbar(cfg);
  Rng rng(3);
  const Tensor w = Tensor::uniform(Shape{16, 16}, rng, 0.1f, 1.0f);
  xbar.program(w, 1.0);
  std::vector<float> x(16, 0.5f);
  const auto fresh = oracle::compute_row(xbar, x, 1.0);
  xbar.apply_drift(0.9);
  const auto aged = oracle::compute_row(xbar, x, 1.0);
  for (std::size_t j = 0; j < fresh.size(); ++j)
    EXPECT_NEAR(aged[j], fresh[j] * 0.9f, 2e-2f);
}

TEST(CrossbarDrift, AccumulatesAcrossApplications) {
  circuit::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 8;
  circuit::Crossbar xbar(cfg);
  Rng rng(4);
  const Tensor w = Tensor::uniform(Shape{8, 8}, rng, 0.1f, 1.0f);
  xbar.program(w, 1.0);
  std::vector<float> x(8, 1.0f);
  const auto fresh = oracle::compute_row(xbar, x, 1.0);
  xbar.apply_drift(0.8);
  xbar.apply_drift(0.5);
  const auto aged = oracle::compute_row(xbar, x, 1.0);
  for (std::size_t j = 0; j < fresh.size(); ++j)
    EXPECT_NEAR(aged[j], fresh[j] * 0.4f, 5e-2f);
}

TEST(CrossbarDrift, ReprogramRestoresFreshLevels) {
  circuit::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 8;
  circuit::Crossbar xbar(cfg);
  Rng rng(5);
  const Tensor w = Tensor::uniform(Shape{8, 8}, rng, 0.1f, 1.0f);
  xbar.program(w, 1.0);
  std::vector<float> x(8, 1.0f);
  const auto fresh = oracle::compute_row(xbar, x, 1.0);
  xbar.apply_drift(0.5);
  xbar.program(w, 1.0);  // refresh
  const auto refreshed = oracle::compute_row(xbar, x, 1.0);
  for (std::size_t j = 0; j < fresh.size(); ++j)
    EXPECT_FLOAT_EQ(refreshed[j], fresh[j]);
}

TEST(CrossbarDrift, InvalidFactorThrows) {
  circuit::CrossbarConfig cfg;
  circuit::Crossbar xbar(cfg);
  EXPECT_THROW(xbar.apply_drift(0.0), CheckError);
  EXPECT_THROW(xbar.apply_drift(1.5), CheckError);
}

TEST(Endurance, NegativeRateThrows) {
  device::EnduranceModel m(device::EnduranceParams{});
  EXPECT_THROW(m.lifetime_seconds(-1.0), CheckError);
  EXPECT_THROW(m.lifetime_seconds(-1e-300), CheckError);
}

TEST(Retention, UnityUpToT0ThenStrictlyBelow) {
  device::RetentionModel m(device::RetentionParams{0.01, 10.0});
  // Everywhere at or before t0 the factor is exactly 1 (no partial decay).
  for (double t : {0.0, 1e-9, 5.0, 10.0 - 1e-12, 10.0})
    EXPECT_DOUBLE_EQ(m.drift_factor(t), 1.0);
  // Immediately after t0 it drops below 1 and keeps decreasing.
  const double just_after = m.drift_factor(10.0 + 1e-6);
  EXPECT_LT(just_after, 1.0);
  EXPECT_LT(m.drift_factor(11.0), just_after);
  // Negative times are a caller bug, not "before programming".
  EXPECT_THROW(m.drift_factor(-1.0), CheckError);
}

TEST(Retention, MonotonicOverDenseSweep) {
  device::RetentionModel m(device::RetentionParams{0.005, 1.0});
  double prev = 1.0;
  for (double t = 1.5; t < 1e8; t *= 1.5) {
    const double f = m.drift_factor(t);
    EXPECT_LE(f, prev);
    EXPECT_GT(f, 0.0);
    prev = f;
  }
}

TEST(CrossbarDrift, FastPathMatchesReferenceUnderActiveFaultMap) {
  // apply_drift scales the stored levels and rebuilds W_eff; the collapsed
  // fast path must stay bit-identical to the slice-walk oracle even when
  // the levels carry stuck-at faults (whose cells drift like any other).
  circuit::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  circuit::Crossbar xbar(cfg);
  Rng rng(6);
  const Tensor w = Tensor::uniform(Shape{32, 32}, rng, -1.0f, 1.0f);
  circuit::ProgramOptions opts;
  opts.faults.stuck_at_off_rate = 0.02;
  opts.faults.stuck_at_on_rate = 0.02;
  opts.faults.seed = 99;
  xbar.program(w, 1.0, opts);
  EXPECT_GT(xbar.stats().stuck_cells, 0u);
  xbar.apply_drift(0.9);
  Rng xrng(7);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<float> x(32);
    for (auto& v : x) v = xrng.uniform(-1.0, 1.0);
    const auto fast = oracle::compute_row(xbar, x, 1.0);
    const auto ref = oracle::compute_reference(xbar, x, 1.0);
    for (std::size_t j = 0; j < fast.size(); ++j) EXPECT_EQ(fast[j], ref[j]);
  }
}

}  // namespace
}  // namespace reramdl
