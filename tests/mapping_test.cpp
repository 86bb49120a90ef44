#include <gtest/gtest.h>

#include "common/check.hpp"
#include "mapping/planner.hpp"
#include "workload/model_zoo.hpp"

namespace reramdl::mapping {
namespace {

nn::LayerSpec fig4_conv() {
  // The paper's running example: 114x114x128 -> 112x112x256 with 3x3
  // kernels.
  nn::NetworkSpecBuilder b("fig4", 128, 114, 114);
  b.conv(256, 3);
  return std::move(b).build().layers[0];
}

TEST(LayerMapping, Fig4NaiveScheme) {
  const MappingConfig cfg{128, 128};
  const LayerMapping m = map_layer(fig4_conv(), cfg, 1);
  EXPECT_EQ(m.spec.matrix_rows(), 1152u);
  EXPECT_EQ(m.spec.matrix_cols(), 256u);
  EXPECT_EQ(m.row_tiles, 9u);
  EXPECT_EQ(m.col_tiles, 2u);
  EXPECT_EQ(m.arrays(), 18u);
  // "the given example will take 12544 cycles to get all outputs"
  EXPECT_EQ(m.steps_per_sample(), 12544u);
}

TEST(LayerMapping, Fig4BalancedSchemeX256) {
  // "Fig. 4 is an example with X = 256."
  const MappingConfig cfg{128, 128};
  const LayerMapping m = map_layer(fig4_conv(), cfg, 256);
  EXPECT_EQ(m.arrays(), 18u * 256u);
  EXPECT_EQ(m.steps_per_sample(), 49u);  // ceil(12544 / 256)
}

TEST(LayerMapping, FullReplicationIsOneCycle) {
  // "If X = 12544, the results of a layer could be generated in just one
  // cycle but the hardware cost is excessive."
  const MappingConfig cfg{128, 128};
  const LayerMapping m = map_layer(fig4_conv(), cfg, 12544);
  EXPECT_EQ(m.steps_per_sample(), 1u);
  EXPECT_EQ(m.arrays(), 18u * 12544u);
}

TEST(LayerMapping, ReplicationBeyondVectorsThrows) {
  const MappingConfig cfg{128, 128};
  EXPECT_THROW(map_layer(fig4_conv(), cfg, 12545), CheckError);
}

TEST(LayerMapping, DenseLayerSingleVector) {
  nn::NetworkSpecBuilder b("fc", 784, 1, 1);
  b.dense(512);
  const auto spec = std::move(b).build().layers[0];
  const LayerMapping m = map_layer(spec, {128, 128}, 1);
  EXPECT_EQ(m.row_tiles, 7u);  // ceil(784/128)
  EXPECT_EQ(m.col_tiles, 4u);
  EXPECT_EQ(m.steps_per_sample(), 1u);
}

TEST(LayerMapping, UnweightedLayerRejected) {
  nn::NetworkSpecBuilder b("pool", 8, 8, 8);
  b.pool(2);
  EXPECT_THROW(map_layer(std::move(b).build().layers[0], {128, 128}, 1),
               CheckError);
}

TEST(Planner, NaivePlanUsesNoReplication) {
  const auto net = workload::spec_lenet5();
  const NetworkMapping m = plan_naive(net, {128, 128});
  EXPECT_EQ(m.layers.size(), net.weighted_layers());
  for (const auto& l : m.layers) EXPECT_EQ(l.replication, 1u);
}

TEST(Planner, BalancedPlanMeetsTargetSteps) {
  const auto net = workload::spec_lenet5();
  for (const std::size_t target : {1u, 7u, 50u, 200u}) {
    const NetworkMapping m = plan_balanced(net, {128, 128}, target);
    EXPECT_LE(m.stage_steps(), target);
  }
}

TEST(Planner, BalancedArraysDecreaseWithTarget) {
  const auto net = workload::spec_lenet5();
  std::size_t prev = plan_balanced(net, {128, 128}, 1).total_arrays();
  for (const std::size_t target : {2u, 8u, 64u, 1024u}) {
    const std::size_t arrays = plan_balanced(net, {128, 128}, target).total_arrays();
    EXPECT_LE(arrays, prev);
    prev = arrays;
  }
}

TEST(Planner, BudgetPlanRespectsBudget) {
  const auto net = workload::spec_lenet5();
  const std::size_t naive_arrays = plan_naive(net, {128, 128}).total_arrays();
  for (const std::size_t budget : {naive_arrays, naive_arrays * 4, naive_arrays * 64}) {
    const NetworkMapping m = plan_under_budget(net, {128, 128}, budget);
    EXPECT_LE(m.total_arrays(), budget);
  }
}

TEST(Planner, BiggerBudgetNeverSlower) {
  const auto net = workload::spec_alexnet();
  std::size_t prev_steps =
      plan_under_budget(net, {128, 128}, 512).stage_steps();
  for (const std::size_t budget : {2048u, 8192u, 32768u}) {
    const std::size_t steps = plan_under_budget(net, {128, 128}, budget).stage_steps();
    EXPECT_LE(steps, prev_steps);
    prev_steps = steps;
  }
}

TEST(Planner, InfeasibleBudgetFallsBackToNaive) {
  const auto net = workload::spec_alexnet();
  const NetworkMapping m = plan_under_budget(net, {128, 128}, 1);
  for (const auto& l : m.layers) EXPECT_EQ(l.replication, 1u);
}

TEST(Planner, FullBudgetReachesSingleStep) {
  const auto net = workload::spec_lenet5();
  // A generous budget should drive every stage to one step per sample.
  const NetworkMapping m = plan_under_budget(net, {128, 128}, 1u << 20);
  EXPECT_EQ(m.stage_steps(), 1u);
}

TEST(NetworkMapping, TotalsAggregate) {
  const auto net = workload::spec_mlp_mnist_a();
  const NetworkMapping m = plan_naive(net, {128, 128});
  std::size_t arrays = 0, cells = 0;
  for (const auto& l : m.layers) {
    arrays += l.arrays();
    cells += l.weight_cells();
  }
  EXPECT_EQ(m.total_arrays(), arrays);
  EXPECT_EQ(m.total_weight_cells(), cells);
  EXPECT_EQ(cells, net.total_weights());  // X = 1: one copy of every weight
}

TEST(NetworkMapping, ArraySizeTradeoff) {
  // Smaller arrays need more tiles for the same network.
  const auto net = workload::spec_mlp_mnist_b();
  const std::size_t big = plan_naive(net, {256, 256}).total_arrays();
  const std::size_t small = plan_naive(net, {64, 64}).total_arrays();
  EXPECT_GT(small, big);
}

TEST(Planner, MaxLayerArraysClampsReplication) {
  const auto net = workload::spec_vgg_a();
  const auto unbounded = plan_under_budget(net, {128, 128}, 16384);
  const std::size_t cap = 256;  // one pipelayer bank
  const auto bounded = plan_under_budget(net, {128, 128}, 16384, cap);
  ASSERT_EQ(bounded.layers.size(), unbounded.layers.size());
  std::size_t unbounded_max = 0;
  for (const auto& l : unbounded.layers)
    unbounded_max = std::max(unbounded_max, l.arrays());
  ASSERT_GT(unbounded_max, cap);  // the knob has something to clamp
  for (const auto& l : bounded.layers) {
    // Clamped to the cap unless a single replica already exceeds it (then
    // the layer keeps X = 1).
    if (l.arrays() > cap) {
      EXPECT_EQ(l.replication, 1u);
    }
  }
  EXPECT_LE(bounded.total_arrays(), unbounded.total_arrays());
}

}  // namespace
}  // namespace reramdl::mapping
