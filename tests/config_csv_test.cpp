#include <gtest/gtest.h>

#include "arch/update_model.hpp"
#include "common/check.hpp"
#include "core/config_io.hpp"
#include "mapping/planner.hpp"
#include "workload/model_zoo.hpp"

namespace reramdl {
namespace {

// ---- Config IO -------------------------------------------------------------

TEST(ConfigIo, ParsesKeysAndComments) {
  const auto cfg = core::parse_config(
      "# a comment\n"
      "banks = 16\n"
      "array_rows = 256   # inline comment\n"
      "weight_bits = 8\n"
      "array_compute_energy_pj = 5e4\n");
  EXPECT_EQ(cfg.chip.banks, 16u);
  EXPECT_EQ(cfg.chip.array_rows, 256u);
  EXPECT_EQ(cfg.weight_bits, 8u);
  EXPECT_DOUBLE_EQ(cfg.chip.costs.array_compute_energy_pj, 5e4);
}

TEST(ConfigIo, UntouchedKeysKeepBaseValues) {
  core::AcceleratorConfig base;
  base.chip = arch::regan_chip();
  const auto cfg = core::parse_config("input_bits = 6\n", base);
  EXPECT_EQ(cfg.input_bits, 6u);
  EXPECT_EQ(cfg.chip.banks, base.chip.banks);
  EXPECT_DOUBLE_EQ(cfg.chip.costs.array_compute_energy_pj,
                   base.chip.costs.array_compute_energy_pj);
}

TEST(ConfigIo, UnknownKeyThrows) {
  EXPECT_THROW(core::parse_config("no_such_knob = 1\n"), CheckError);
}

TEST(ConfigIo, MalformedLinesThrow) {
  EXPECT_THROW(core::parse_config("banks 16\n"), CheckError);
  EXPECT_THROW(core::parse_config("banks = many\n"), CheckError);
  EXPECT_THROW(core::parse_config("banks = 16x\n"), CheckError);
}

TEST(ConfigIo, EmptyTextIsBaseConfig) {
  const auto cfg = core::parse_config("\n  \n# only comments\n");
  const core::AcceleratorConfig base;
  EXPECT_EQ(cfg.chip.banks, base.chip.banks);
}

TEST(ConfigIo, DumpParsesBackIdentically) {
  core::AcceleratorConfig cfg;
  cfg.chip = arch::regan_chip();
  cfg.weight_bits = 8;
  cfg.max_arrays = 1234;
  const auto round = core::parse_config(core::dump_config(cfg));
  EXPECT_EQ(round.chip.banks, cfg.chip.banks);
  EXPECT_EQ(round.weight_bits, 8u);
  EXPECT_EQ(round.max_arrays, 1234u);
  EXPECT_DOUBLE_EQ(round.chip.costs.array_compute_energy_pj,
                   cfg.chip.costs.array_compute_energy_pj);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(core::load_config("/no/such/config.txt"), CheckError);
}

TEST(ConfigIo, NocKeysParse) {
  const auto cfg = core::parse_config(
      "noc_hop_latency_ns = 2.5\n"
      "noc_hop_energy_pj_per_byte = 1.25\n"
      "noc_link_bandwidth_bytes_per_ns = 16\n"
      "noc_contention = 1\n"
      "noc_smart_max_hops = 6\n"
      "noc_smart_hop_latency_ns = 0.25\n");
  EXPECT_DOUBLE_EQ(cfg.chip.noc.hop_latency_ns, 2.5);
  EXPECT_DOUBLE_EQ(cfg.chip.noc.hop_energy_pj_per_byte, 1.25);
  EXPECT_DOUBLE_EQ(cfg.chip.noc.link_bandwidth_bytes_per_ns, 16.0);
  EXPECT_TRUE(cfg.chip.noc.contention);
  EXPECT_EQ(cfg.chip.noc.smart_max_hops, 6u);
  EXPECT_DOUBLE_EQ(cfg.chip.noc.smart_hop_latency_ns, 0.25);
  EXPECT_TRUE(cfg.chip.noc.event_model_active());
}

TEST(ConfigIo, NocKeysRoundTripThroughDump) {
  core::AcceleratorConfig cfg;
  cfg.chip.noc.hop_latency_ns = 3.0;
  cfg.chip.noc.link_bandwidth_bytes_per_ns = 64.0;
  cfg.chip.noc.contention = true;
  cfg.chip.noc.smart_max_hops = 5;
  cfg.chip.noc.smart_hop_latency_ns = 0.5;
  const auto round = core::parse_config(core::dump_config(cfg));
  EXPECT_DOUBLE_EQ(round.chip.noc.hop_latency_ns, 3.0);
  EXPECT_DOUBLE_EQ(round.chip.noc.link_bandwidth_bytes_per_ns, 64.0);
  EXPECT_TRUE(round.chip.noc.contention);
  EXPECT_EQ(round.chip.noc.smart_max_hops, 5u);
  EXPECT_DOUBLE_EQ(round.chip.noc.smart_hop_latency_ns, 0.5);
  // Defaults survive the trip untouched (SMART stays off by default).
  const auto defaults =
      core::parse_config(core::dump_config(core::AcceleratorConfig{}));
  EXPECT_FALSE(defaults.chip.noc.event_model_active());
}

// ---- Update timing model ----------------------------------------------------

TEST(UpdateModel, RowsCappedByArrayHeight) {
  const auto m = mapping::plan_naive(workload::spec_mlp_mnist_a(), {128, 128});
  const arch::ChipConfig chip = arch::pipelayer_chip();
  const arch::UpdateModel model(chip, m);
  EXPECT_EQ(model.rows_to_program(), 128u);  // 784-row layer tiles at 128
}

TEST(UpdateModel, FullReprogramScalesWithTunePulses) {
  const auto m = mapping::plan_naive(workload::spec_mlp_mnist_a(), {128, 128});
  arch::ChipConfig chip = arch::pipelayer_chip();
  const arch::UpdateModel model(chip, m);
  const auto t = model.full_reprogram(1000.0);
  EXPECT_DOUBLE_EQ(t.update_ns, 128.0 * chip.cell.program_latency_ns());
  EXPECT_GT(t.cycles(), 1.0);  // a full re-tune is NOT one pipeline cycle
}

TEST(UpdateModel, DeltaUpdateMuchCheaperThanFullReprogram) {
  const auto m = mapping::plan_naive(workload::spec_lenet5(), {128, 128});
  const arch::ChipConfig chip = arch::pipelayer_chip();
  const arch::UpdateModel model(chip, m);
  const auto full = model.full_reprogram(1000.0);
  const auto delta = model.delta_update(1000.0, 1.0, 1);
  EXPECT_LT(delta.update_ns, full.update_ns / 5.0);
}

TEST(UpdateModel, SparseDeltaApproachesOneCycle) {
  // The paper's "+1 update cycle" idealization holds for sparse, few-pulse
  // delta updates against a realistic pipeline cycle.
  const auto m = mapping::plan_naive(workload::spec_mlp_mnist_a(), {128, 128});
  const arch::ChipConfig chip = arch::pipelayer_chip();
  const arch::UpdateModel model(chip, m);
  const double pipeline_cycle_ns = 6400.0;  // ~126 array steps x 50.88 ns
  const auto t = model.delta_update(pipeline_cycle_ns, 0.5, 1);
  EXPECT_LE(t.cycles(), 1.0);
}

TEST(UpdateModel, InvalidArgumentsThrow) {
  const auto m = mapping::plan_naive(workload::spec_mlp_mnist_a(), {128, 128});
  const arch::ChipConfig chip = arch::pipelayer_chip();
  const arch::UpdateModel model(chip, m);
  EXPECT_THROW(model.full_reprogram(0.0), CheckError);
  EXPECT_THROW(model.delta_update(1.0, 1.5, 1), CheckError);
  EXPECT_THROW(model.delta_update(1.0, 0.5, 0), CheckError);
}

}  // namespace
}  // namespace reramdl
