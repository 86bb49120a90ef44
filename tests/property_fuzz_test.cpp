// Randomized property suites: invariants that must hold for arbitrary
// (seeded, reproducible) configurations, complementing the targeted
// per-module tests.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/isa.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "device/quantizer.hpp"
#include "mapping/planner.hpp"
#include "nn/layer_spec.hpp"
#include "pipeline/analytic.hpp"
#include "pipeline/sim.hpp"
#include "tensor/ops.hpp"
#include "oracle.hpp"

namespace reramdl {
namespace {

class SeededFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededFuzz, QuantizerIsIdempotent) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const std::size_t bits = 1 + rng.uniform_index(15);
    const double max_abs = rng.uniform(0.1, 100.0);
    const device::LinearQuantizer q(bits, max_abs);
    const double v = rng.uniform(-2.0 * max_abs, 2.0 * max_abs);
    const auto once = q.quantize(v);
    // Re-quantizing a dequantized value must be a fixed point.
    EXPECT_EQ(q.quantize(q.dequantize(once)), once);
  }
}

TEST_P(SeededFuzz, CrossbarGridBoundedError) {
  Rng rng(GetParam());
  const std::size_t rows = 8 + rng.uniform_index(200);
  const std::size_t cols = 1 + rng.uniform_index(150);
  circuit::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 64;
  const Tensor w = Tensor::uniform(Shape{rows, cols}, rng, -1.0f, 1.0f);
  std::vector<float> x(rows);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  circuit::CrossbarGrid grid(cfg);
  grid.program(w, 1.0);
  const auto y = oracle::compute_row(grid, x, 1.0);

  // Quantization error bound (loose): rows * (w_step/2 + x_step/2) * 4.
  const double w_step = 1.0 / 65535.0, x_step = 1.0 / 255.0;
  const double bound = 4.0 * static_cast<double>(rows) * 0.5 * (w_step + x_step);
  for (std::size_t j = 0; j < cols; ++j) {
    double ref = 0.0;
    for (std::size_t i = 0; i < rows; ++i) ref += x[i] * w.at(i, j);
    EXPECT_NEAR(y[j], ref, bound);
  }
}

TEST_P(SeededFuzz, IsaEncodeDecodeAnyFields) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    arch::Instruction inst;
    inst.op = static_cast<arch::Opcode>(rng.uniform_index(8));
    inst.bank = static_cast<std::uint8_t>(rng.uniform_index(64));
    inst.subarray = static_cast<std::uint8_t>(rng.uniform_index(64));
    inst.imm = static_cast<std::uint16_t>(rng.uniform_index(65536));
    const arch::Instruction back = arch::decode(arch::encode(inst));
    EXPECT_EQ(back.op, inst.op);
    EXPECT_EQ(back.bank, inst.bank);
    EXPECT_EQ(back.subarray, inst.subarray);
    EXPECT_EQ(back.imm, inst.imm);
  }
}

TEST_P(SeededFuzz, SimAlwaysMatchesClosedForms) {
  Rng rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t l = 1 + rng.uniform_index(20);
    const std::uint64_t b = 1 + rng.uniform_index(100);
    const std::uint64_t n = b * (1 + rng.uniform_index(8));
    EXPECT_EQ(pipeline::sim_pipelayer_training(n, l, b).cycles,
              pipeline::pipelayer_train_cycles_pipelined(n, l, b));
  }
  for (int i = 0; i < 10; ++i) {
    const pipeline::GanShape s{1 + rng.uniform_index(12),
                               1 + rng.uniform_index(12),
                               1 + rng.uniform_index(64)};
    const pipeline::ReGanOptions opts{rng.bernoulli(0.5), rng.bernoulli(0.5)};
    std::uint64_t expected = 0;
    if (opts.spatial_parallelism && opts.computation_sharing)
      expected = pipeline::regan_batch_cycles_sp_cs(s);
    else if (opts.spatial_parallelism)
      expected = pipeline::regan_batch_cycles_sp(s);
    else if (opts.computation_sharing)
      expected = pipeline::regan_batch_cycles_cs(s);
    else
      expected = pipeline::regan_batch_cycles_pipelined(s);
    EXPECT_EQ(pipeline::sim_regan_batch(s, opts).cycles, expected);
  }
}

TEST_P(SeededFuzz, RandomNetworkSpecsChainConsistently) {
  Rng rng(GetParam());
  nn::NetworkSpecBuilder b("fuzz", 1 + rng.uniform_index(8),
                           16 + rng.uniform_index(48),
                           16 + rng.uniform_index(48));
  for (int i = 0; i < 6; ++i) {
    switch (rng.uniform_index(4)) {
      case 0:
        b.conv(1 + rng.uniform_index(64), 3, 1, 1).activation();
        break;
      case 1:
        if (b.cur_h() >= 2 && b.cur_w() >= 2) b.pool(2);
        break;
      case 2:
        b.batchnorm();
        break;
      default:
        b.activation();
        break;
    }
  }
  b.flatten().dense(10);
  const nn::NetworkSpec net = std::move(b).build();
  // Chaining invariant: each layer's input dims equal the previous output.
  for (std::size_t i = 1; i < net.layers.size(); ++i) {
    EXPECT_EQ(net.layers[i].in_c, net.layers[i - 1].out_c);
    EXPECT_EQ(net.layers[i].in_h, net.layers[i - 1].out_h);
    EXPECT_EQ(net.layers[i].in_w, net.layers[i - 1].out_w);
  }
  // Every weighted layer maps without error at X = 1.
  const auto m = mapping::plan_naive(net, {128, 128});
  EXPECT_EQ(m.layers.size(), net.weighted_layers());
}

TEST_P(SeededFuzz, PlannerInvariantsForRandomBudgets) {
  Rng rng(GetParam());
  nn::NetworkSpecBuilder b("fuzz", 3, 32, 32);
  b.conv(16 + rng.uniform_index(64), 3, 1, 1).activation().pool(2);
  b.conv(16 + rng.uniform_index(128), 3, 1, 1).activation().pool(2);
  b.flatten().dense(10);
  const nn::NetworkSpec net = std::move(b).build();

  const auto naive = mapping::plan_naive(net, {128, 128});
  for (int i = 0; i < 8; ++i) {
    const std::size_t budget =
        naive.total_arrays() + rng.uniform_index(20000);
    const auto plan = mapping::plan_under_budget(net, {128, 128}, budget);
    EXPECT_LE(plan.total_arrays(), budget);
    EXPECT_LE(plan.stage_steps(), naive.stage_steps());
    for (const auto& l : plan.layers) {
      EXPECT_GE(l.replication, 1u);
      EXPECT_LE(l.replication,
                std::max<std::size_t>(l.spec.vectors_per_sample(), 1));
    }
  }
}

TEST_P(SeededFuzz, MatmulAssociatesWithTranspose) {
  Rng rng(GetParam());
  const std::size_t m = 1 + rng.uniform_index(12), k = 1 + rng.uniform_index(12),
                    n = 1 + rng.uniform_index(12);
  const Tensor a = Tensor::normal(Shape{m, k}, rng, 0.0f, 1.0f);
  const Tensor b = Tensor::normal(Shape{k, n}, rng, 0.0f, 1.0f);
  // (A B)^T == B^T A^T
  const Tensor lhs = ops::transpose(ops::matmul(a, b));
  const Tensor rhs = ops::matmul(ops::transpose(b), ops::transpose(a));
  ASSERT_EQ(lhs.shape(), rhs.shape());
  for (std::size_t i = 0; i < lhs.numel(); ++i)
    EXPECT_NEAR(lhs[i], rhs[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace reramdl
