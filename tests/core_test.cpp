#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "baseline/gpu_model.hpp"
#include "common/check.hpp"
#include "core/comparison.hpp"
#include "core/functional.hpp"
#include "core/pipelayer.hpp"
#include "core/regan.hpp"
#include "nn/loss.hpp"
#include "pipeline/analytic.hpp"
#include "workload/datasets.hpp"
#include "workload/model_zoo.hpp"

namespace reramdl::core {
namespace {

AcceleratorConfig small_config() {
  AcceleratorConfig cfg;
  cfg.chip = arch::pipelayer_chip();
  cfg.max_arrays = 2048;
  return cfg;
}

TEST(PipeLayer, PipelineDepthCountsWeightedLayers) {
  const PipeLayerAccelerator accel(workload::spec_mlp_mnist_a(), small_config());
  EXPECT_EQ(accel.pipeline_depth(), 3u);
}

TEST(PipeLayer, TrainingCyclesMatchPaperFormula) {
  const PipeLayerAccelerator accel(workload::spec_mlp_mnist_a(), small_config());
  const TimingReport r = accel.training_report(6400, 64);
  EXPECT_EQ(r.pipeline_cycles,
            pipeline::pipelayer_train_cycles_pipelined(6400, 3, 64));
}

TEST(PipeLayer, InferenceCyclesMatchPaperFormula) {
  const PipeLayerAccelerator accel(workload::spec_lenet5(), small_config());
  const TimingReport r = accel.inference_report(1000);
  EXPECT_EQ(r.pipeline_cycles, 1000u + accel.pipeline_depth() - 1);
}

TEST(PipeLayer, MappingRespectsArrayBudget) {
  AcceleratorConfig cfg = small_config();
  cfg.max_arrays = 256;
  const PipeLayerAccelerator accel(workload::spec_lenet5(), cfg);
  EXPECT_LE(accel.network_mapping().total_arrays(), 256u);
}

TEST(PipeLayer, LargerBudgetReducesStageSteps) {
  AcceleratorConfig small = small_config();
  small.max_arrays = 128;
  AcceleratorConfig big = small_config();
  big.max_arrays = 16384;
  const PipeLayerAccelerator a(workload::spec_lenet5(), small);
  const PipeLayerAccelerator b(workload::spec_lenet5(), big);
  EXPECT_LE(b.training_report(64, 64).stage_steps,
            a.training_report(64, 64).stage_steps);
}

TEST(PipeLayer, ReportFieldsConsistent) {
  const PipeLayerAccelerator accel(workload::spec_mlp_mnist_b(), small_config());
  const TimingReport r = accel.training_report(1280, 64);
  EXPECT_GT(r.time_s, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.area_mm2, 0.0);
  EXPECT_NEAR(r.time_s,
              static_cast<double>(r.pipeline_cycles) * r.cycle_ns * 1e-9, 1e-12);
  EXPECT_NEAR(r.throughput_sps, 1280.0 / r.time_s, 1e-6);
  EXPECT_NEAR(r.power_w, r.energy_j / r.time_s, 1e-9);
}

TEST(PipeLayer, EnergyBreakdownSumsToTotal) {
  const PipeLayerAccelerator accel(workload::spec_mlp_mnist_a(), small_config());
  const TimingReport r = accel.training_report(640, 64);
  const arch::EnergyMeter m = accel.training_energy_breakdown(640, 64);
  EXPECT_NEAR(m.total_pj() * 1e-12, r.energy_j, r.energy_j * 1e-9);
  EXPECT_GT(m.component_pj("compute"), 0.0);
  EXPECT_GT(m.component_pj("update"), 0.0);
  EXPECT_GT(m.component_pj("memory"), 0.0);
}

TEST(PipeLayer, TrainingEnergyScalesWithN) {
  const PipeLayerAccelerator accel(workload::spec_mlp_mnist_a(), small_config());
  const double e1 = accel.training_report(640, 64).energy_j;
  const double e2 = accel.training_report(1280, 64).energy_j;
  EXPECT_NEAR(e2 / e1, 2.0, 1e-6);
}

TEST(PipeLayer, BeatsGpuOnThroughput) {
  const baseline::GpuModel gpu(baseline::gtx1080());
  for (const auto& net : {workload::spec_mlp_mnist_a(), workload::spec_lenet5()}) {
    const PipeLayerAccelerator accel(net, small_config());
    const TimingReport r = accel.training_report(6400, 64);
    const baseline::GpuCost g = gpu.training_cost(net, 6400, 64);
    EXPECT_GT(g.time_s / r.time_s, 1.0) << net.name;
  }
}

// ---- ReGAN ------------------------------------------------------------------

AcceleratorConfig regan_config() {
  AcceleratorConfig cfg;
  cfg.chip = arch::regan_chip();
  cfg.max_arrays = 4096;
  return cfg;
}

TEST(ReGan, LayerCountsFromSpecs) {
  const ReGanAccelerator accel(workload::spec_dcgan_generator(64),
                               workload::spec_dcgan_discriminator(64),
                               regan_config());
  EXPECT_EQ(accel.l_g(), 5u);  // 1 dense + 4 tconv
  EXPECT_EQ(accel.l_d(), 5u);  // 4 conv + 1 dense
}

TEST(ReGan, CyclesMatchClosedFormsPerOptimization) {
  const ReGanAccelerator accel(workload::spec_dcgan_generator(32),
                               workload::spec_dcgan_discriminator(32),
                               regan_config());
  const pipeline::GanShape s{accel.l_d(), accel.l_g(), 64};
  const std::size_t batches = 4;
  const std::size_t n = 64 * batches;
  EXPECT_EQ(accel.training_report(n, 64, {false, false}).pipeline_cycles,
            batches * pipeline::regan_batch_cycles_pipelined(s));
  EXPECT_EQ(accel.training_report(n, 64, {true, false}).pipeline_cycles,
            batches * pipeline::regan_batch_cycles_sp(s));
  EXPECT_EQ(accel.training_report(n, 64, {false, true}).pipeline_cycles,
            batches * pipeline::regan_batch_cycles_cs(s));
  EXPECT_EQ(accel.training_report(n, 64, {true, true}).pipeline_cycles,
            batches * pipeline::regan_batch_cycles_sp_cs(s));
}

TEST(ReGan, SpDuplicatesDiscriminatorArrays) {
  const ReGanAccelerator accel(workload::spec_dcgan_generator(32),
                               workload::spec_dcgan_discriminator(32),
                               regan_config());
  const TimingReport base = accel.training_report(64, 64, {false, false});
  const TimingReport sp = accel.training_report(64, 64, {true, false});
  EXPECT_GT(sp.arrays_used, base.arrays_used);
  EXPECT_GT(sp.area_mm2, base.area_mm2);
}

TEST(ReGan, CsReducesComputeEnergy) {
  const ReGanAccelerator accel(workload::spec_dcgan_generator(32),
                               workload::spec_dcgan_discriminator(32),
                               regan_config());
  const auto base = accel.training_energy_breakdown(64, 64, {false, false});
  const auto cs = accel.training_energy_breakdown(64, 64, {false, true});
  EXPECT_LT(cs.component_pj("compute"), base.component_pj("compute"));
  // ...at the price of doubled buffer traffic.
  EXPECT_GT(cs.component_pj("buffer"), base.component_pj("buffer"));
}

TEST(ReGan, OptimizationsImproveTime) {
  const ReGanAccelerator accel(workload::spec_dcgan_generator(64),
                               workload::spec_dcgan_discriminator(64),
                               regan_config());
  const double base = accel.training_report(640, 64, {false, false}).time_s;
  const double sp = accel.training_report(640, 64, {true, false}).time_s;
  const double cs = accel.training_report(640, 64, {false, true}).time_s;
  const double both = accel.training_report(640, 64, {true, true}).time_s;
  EXPECT_LT(sp, base);
  EXPECT_LT(cs, base);
  EXPECT_LE(both, sp);
  EXPECT_LE(both, cs);
}

TEST(ReGan, VbnEnergyBookedWhenBatchNormPresent) {
  const ReGanAccelerator accel(workload::spec_dcgan_generator(32),
                               workload::spec_dcgan_discriminator(32),
                               regan_config());
  const auto m = accel.training_energy_breakdown(64, 64, {true, true});
  EXPECT_GT(m.component_pj("vbn"), 0.0);
}

// ---- Comparison --------------------------------------------------------------

TEST(Comparison, SpeedupAndSavingRatios) {
  TimingReport accel;
  accel.time_s = 1.0;
  accel.energy_j = 2.0;
  baseline::GpuCost gpu;
  gpu.time_s = 42.0;
  gpu.energy_j = 14.0;
  const Comparison c = compare("w", accel, gpu);
  EXPECT_DOUBLE_EQ(c.speedup(), 42.0);
  EXPECT_DOUBLE_EQ(c.energy_saving(), 7.0);
}

TEST(Comparison, SummaryUsesGeomean) {
  TimingReport a;
  a.time_s = 1.0;
  a.energy_j = 1.0;
  baseline::GpuCost g1{2.0, 2.0}, g2{8.0, 8.0};
  const auto s = summarize({compare("x", a, g1), compare("y", a, g2)});
  EXPECT_NEAR(s.geomean_speedup, 4.0, 1e-9);
  EXPECT_NEAR(s.geomean_energy_saving, 4.0, 1e-9);
}

// ---- Functional crossbar execution -------------------------------------------

TEST(CrossbarExecutor, MlpInferenceCloseToFloat) {
  Rng rng(300);
  auto net = workload::make_mlp_mnist(rng);
  Rng data_rng(301);
  const auto data = workload::make_mnist_like(32, data_rng);

  const Tensor float_logits = net.forward(data.images, false);

  AcceleratorConfig cfg = small_config();
  CrossbarExecutor exec(net, cfg);
  const Tensor xbar_logits = net.forward(data.images, false);

  ASSERT_EQ(xbar_logits.shape(), float_logits.shape());
  // 16-bit weights / 8-bit inputs: predictions must agree on nearly all
  // samples.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    std::size_t af = 0, ax = 0;
    for (std::size_t k = 1; k < 10; ++k) {
      if (float_logits.at(i, k) > float_logits.at(i, af)) af = k;
      if (xbar_logits.at(i, k) > xbar_logits.at(i, ax)) ax = k;
    }
    if (af == ax) ++agree;
  }
  EXPECT_GE(agree, 30u);
}

TEST(CrossbarExecutor, DetachRestoresExactFloatPath) {
  Rng rng(302);
  auto net = workload::make_mlp_mnist(rng);
  Rng data_rng(303);
  const auto data = workload::make_mnist_like(4, data_rng);
  const Tensor before = net.forward(data.images, false);
  {
    CrossbarExecutor exec(net, small_config());
    net.forward(data.images, false);  // quantized path
  }  // destructor detaches
  const Tensor after = net.forward(data.images, false);
  for (std::size_t i = 0; i < before.numel(); ++i)
    EXPECT_FLOAT_EQ(after[i], before[i]);
}

TEST(CrossbarExecutor, GridsCoverAllWeightedLayers) {
  Rng rng(304);
  auto net = workload::make_lenet_small(rng);
  CrossbarExecutor exec(net, small_config());
  EXPECT_EQ(exec.num_grids(), 4u);  // 2 conv + 2 dense
  EXPECT_GT(exec.aggregate_stats().programmed_cells, 0u);
}

TEST(CrossbarExecutor, VariationDegradesAccuracyGracefully) {
  Rng rng(305);
  auto net = workload::make_mlp_mnist(rng);
  Rng data_rng(306);
  const auto data = workload::make_mnist_like(16, data_rng);
  const Tensor clean = net.forward(data.images, false);

  device::VariationParams vp;
  vp.sigma = 0.1;
  device::VariationModel vm(vp, Rng(307));
  CrossbarExecutor exec(net, small_config(), &vm);
  const Tensor noisy = net.forward(data.images, false);

  // Output changed but stayed finite and same shape.
  ASSERT_EQ(noisy.shape(), clean.shape());
  double diff = 0.0;
  for (std::size_t i = 0; i < noisy.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(noisy[i]));
    diff += std::abs(static_cast<double>(noisy[i]) - clean[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(CrossbarExecutor, ReprogramTracksWeightUpdates) {
  Rng rng(308);
  auto net = workload::make_mlp_mnist(rng);
  Rng data_rng(309);
  const auto data = workload::make_mnist_like(4, data_rng);
  CrossbarExecutor exec(net, small_config());
  const Tensor out1 = net.forward(data.images, false);
  // Change weights drastically; without reprogramming, outputs are stale.
  for (auto p : net.params())
    for (std::size_t i = 0; i < p.value->numel(); ++i) (*p.value)[i] *= -1.0f;
  exec.reprogram();
  const Tensor out2 = net.forward(data.images, false);
  double diff = 0.0;
  for (std::size_t i = 0; i < out1.numel(); ++i)
    diff += std::abs(static_cast<double>(out1[i]) - out2[i]);
  EXPECT_GT(diff, 1e-3);
}

// A non-finite input must fail loudly: an Inf used to become the batch's
// input range and zero out a clean batch-mate's logits, and a NaN reached
// llround.
TEST(CrossbarExecutor, NonFiniteInputThrowsNamingTheLayer) {
  Rng rng(310);
  auto net = workload::make_lenet_small(rng);
  Rng data_rng(311);
  const auto data = workload::make_mnist_like(2, data_rng);
  CrossbarExecutor exec(net, small_config());
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    Tensor images = data.images;
    images.at(1, 0, 14, 14) = bad;
    try {
      net.forward(images, false);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("conv2d layer host/layer0"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace reramdl::core
