// Training-step plan cache / workspace arena acceptance tests: each layer's
// one plan-cached path must be bit-identical to the uncached reference step
// in tests/oracle for every layer type and thread count, plans must rebuild
// correctly across shape changes, and the arena must stop allocating once
// warm.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/trainer.hpp"
#include "nn/transposed_conv2d.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "workload/datasets.hpp"
#include "workload/model_zoo.hpp"

namespace reramdl::nn {
namespace {

// Restores the pool size after each test.
class PlanCacheTest : public ::testing::Test {
 protected:
  void TearDown() override { parallel::set_thread_count(0); }
};

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " differs at flat index " << i;
}

// Runs one forward(train)+backward through `layer` and returns
// {output, input grad}; parameter gradients accumulate in the layer.
std::pair<Tensor, Tensor> run_step(Layer& layer, const Tensor& x,
                                   const Tensor& gout) {
  Tensor y = layer.forward(x, /*train=*/true);
  Tensor gx = layer.backward(gout);
  return {std::move(y), std::move(gx)};
}

// Evaluates the uncached oracle step `reference(layer, x, gout)` once at 1
// thread, then checks that a layer built from the same seed reproduces
// output, input gradient, and parameter gradients bitwise at each thread
// count.
template <typename MakeLayer, typename Reference>
void check_layer_bit_identity(MakeLayer make, Reference reference,
                              const Shape& in_shape) {
  Rng data_rng(42);
  const Tensor x = random_tensor(in_shape, data_rng);

  parallel::set_thread_count(1);
  Rng ref_rng(7);
  auto ref_layer = make(ref_rng);
  const Shape out_shape = ref_layer->forward(x, /*train=*/false).shape();
  const Tensor gout = random_tensor(out_shape, data_rng);
  const oracle::LayerStep ref = reference(*ref_layer, x, gout);

  for (std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    parallel::set_thread_count(threads);
    Rng rng(7);
    auto layer = make(rng);
    auto [y, gx] = run_step(*layer, x, gout);
    expect_bitwise_equal(y, ref.y, "forward output");
    expect_bitwise_equal(gx, ref.gx, "input gradient");
    auto pp = layer->params();
    ASSERT_EQ(pp.size(), 2u);
    expect_bitwise_equal(*pp[0].grad, ref.gw, "weight gradient");
    expect_bitwise_equal(*pp[1].grad, ref.gb, "bias gradient");
  }
}

auto conv_reference() {
  return [](Conv2D& l, const Tensor& x, const Tensor& gout) {
    return oracle::conv_step(x, l.weights(), l.bias(), l.geometry(), gout);
  };
}

auto dense_reference() {
  return [](Dense& l, const Tensor& x, const Tensor& gout) {
    return oracle::dense_step(x, l.weights(), l.bias(), gout);
  };
}

TEST_F(PlanCacheTest, Conv2DMatchesUncachedPathBitwise) {
  check_layer_bit_identity(
      [](Rng& rng) {
        return std::make_unique<Conv2D>(3, 12, 12, 8, 3, 1, 1, rng);
      },
      conv_reference(), Shape{4, 3, 12, 12});
}

TEST_F(PlanCacheTest, Conv2DStridedNoPadMatchesUncachedPathBitwise) {
  check_layer_bit_identity(
      [](Rng& rng) {
        return std::make_unique<Conv2D>(2, 13, 11, 5, 3, 2, 0, rng);
      },
      conv_reference(), Shape{3, 2, 13, 11});
}

TEST_F(PlanCacheTest, TransposedConv2DMatchesUncachedPathBitwise) {
  check_layer_bit_identity(
      [](Rng& rng) {
        return std::make_unique<TransposedConv2D>(4, 7, 7, 3, 4, 2, 1, rng);
      },
      [](TransposedConv2D& l, const Tensor& x, const Tensor& gout) {
        return oracle::tconv_step(x, l.weights(), l.bias(), 4, 2, 1, gout);
      },
      Shape{4, 4, 7, 7});
}

TEST_F(PlanCacheTest, DenseMatchesUncachedPathBitwise) {
  check_layer_bit_identity(
      [](Rng& rng) { return std::make_unique<Dense>(37, 19, rng); },
      dense_reference(), Shape{8, 37});
}

// LeNet-small's four weighted layers (workload::make_lenet_small) at its
// training batch of 16: the shapes the whole-run test below composes.
TEST_F(PlanCacheTest, LeNetSmallLayersMatchUncachedPathBitwise) {
  check_layer_bit_identity(
      [](Rng& rng) {
        return std::make_unique<Conv2D>(1, 28, 28, 8, 5, 1, 2, rng);
      },
      conv_reference(), Shape{16, 1, 28, 28});
  check_layer_bit_identity(
      [](Rng& rng) {
        return std::make_unique<Conv2D>(8, 14, 14, 16, 5, 1, 0, rng);
      },
      conv_reference(), Shape{16, 8, 14, 14});
  check_layer_bit_identity(
      [](Rng& rng) { return std::make_unique<Dense>(16 * 5 * 5, 64, rng); },
      dense_reference(), Shape{16, 16 * 5 * 5});
  check_layer_bit_identity(
      [](Rng& rng) { return std::make_unique<Dense>(64, 10, rng); },
      dense_reference(), Shape{16, 64});
}

// Whole training runs (LeNet on synthetic MNIST) must produce the same loss
// trajectory and final weights at every thread count; the per-layer steps
// are pinned to the oracle above.
TEST_F(PlanCacheTest, TrainingRunBitIdenticalAcrossThreadCounts) {
  Rng data_rng(200);
  const auto train = workload::make_mnist_like(96, data_rng);

  auto run = [&]() {
    Rng rng(100);
    auto net = workload::make_lenet_small(rng);
    Sgd opt(net.params(), 0.05f, 0.9f);
    Trainer trainer(net, opt);
    std::vector<double> losses;
    for (int epoch = 0; epoch < 2; ++epoch)
      losses.push_back(
          trainer.train_epoch(train.images, train.labels, 16, rng).mean_loss);
    std::vector<float> weights;
    for (const auto& p : net.params())
      for (std::size_t i = 0; i < p.value->numel(); ++i)
        weights.push_back((*p.value)[i]);
    return std::make_pair(losses, weights);
  };

  parallel::set_thread_count(1);
  const auto ref = run();
  for (std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    parallel::set_thread_count(threads);
    const auto got = run();
    ASSERT_EQ(got.first.size(), ref.first.size());
    for (std::size_t i = 0; i < ref.first.size(); ++i)
      ASSERT_EQ(got.first[i], ref.first[i]) << "epoch " << i << " loss";
    ASSERT_EQ(got.second.size(), ref.second.size());
    for (std::size_t i = 0; i < ref.second.size(); ++i)
      ASSERT_EQ(got.second[i], ref.second[i]) << "weight " << i;
  }
}

// Changing the batch size mid-stream must re-key the execution plan and
// still match the reference path exactly.
TEST_F(PlanCacheTest, BatchShapeChangeRekeysPlan) {
  Rng data_rng(55);
  const Tensor x4 = random_tensor(Shape{4, 3, 10, 10}, data_rng);
  const Tensor x2 = random_tensor(Shape{2, 3, 10, 10}, data_rng);

  Rng rng(9);
  Conv2D conv(3, 10, 10, 6, 3, 1, 1, rng);
  const Tensor r4 =
      oracle::conv_forward(x4, conv.weights(), conv.bias(), conv.geometry());
  const Tensor r2 =
      oracle::conv_forward(x2, conv.weights(), conv.bias(), conv.geometry());
  expect_bitwise_equal(conv.forward(x4, true), r4, "batch 4");
  expect_bitwise_equal(conv.forward(x2, true), r2, "batch 2");
  expect_bitwise_equal(conv.forward(x4, true), r4, "batch 4 again");
}

TEST_F(PlanCacheTest, CacheHitMissCountersTrackBatchKey) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& reg = obs::Registry::instance();
  const auto hits0 = reg.counter("plan.cache_hits").value();
  const auto misses0 = reg.counter("plan.cache_misses").value();

  Rng rng(1);
  Conv2D conv(1, 8, 8, 4, 3, 1, 1, rng);
  Rng data_rng(2);
  const Tensor a = random_tensor(Shape{4, 1, 8, 8}, data_rng);
  const Tensor b = random_tensor(Shape{2, 1, 8, 8}, data_rng);
  conv.forward(a, true);  // miss: first build
  conv.forward(a, true);  // hit
  conv.forward(b, true);  // miss: batch re-key
  conv.forward(b, true);  // hit

  EXPECT_EQ(reg.counter("plan.cache_hits").value() - hits0, 2u);
  EXPECT_EQ(reg.counter("plan.cache_misses").value() - misses0, 2u);
  obs::set_metrics_enabled(was_enabled);
}

// After the warm-up pass has sized every arena slot, further epochs of the
// same shapes must not grow any workspace: steady-state training performs
// zero arena allocations.
TEST_F(PlanCacheTest, ArenaStopsGrowingAfterWarmup) {
  Rng data_rng(300);
  // 40 samples with batch 16 exercises the partial tail batch too.
  const auto train = workload::make_mnist_like(40, data_rng);
  Rng rng(301);
  auto net = workload::make_lenet_small(rng);
  Sgd opt(net.params(), 0.01f, 0.9f);
  Trainer trainer(net, opt);

  trainer.train_epoch(train.images, train.labels, 16, rng);
  trainer.evaluate(train.images, train.labels, 16);
  const auto warm_events = scratch::arena_growth_events();
  const auto warm_bytes = scratch::arena_bytes_reserved();
  EXPECT_GT(warm_events, 0u);
  EXPECT_GT(warm_bytes, 0u);

  for (int epoch = 0; epoch < 3; ++epoch) {
    trainer.train_epoch(train.images, train.labels, 16, rng);
    trainer.evaluate(train.images, train.labels, 16);
  }
  EXPECT_EQ(scratch::arena_growth_events(), warm_events)
      << "steady-state training allocated through the arena";
  EXPECT_EQ(scratch::arena_bytes_reserved(), warm_bytes);
}

TEST_F(PlanCacheTest, WorkspaceLedgerTracksGrowthAndRelease) {
  const auto before = scratch::arena_bytes_reserved();
  {
    Workspace ws;
    Tensor& t = ws.tensor(0, Shape{4, 8});
    EXPECT_GE(ws.bytes_reserved(), 4 * 8 * sizeof(float));
    EXPECT_EQ(scratch::arena_bytes_reserved(), before + ws.bytes_reserved());
    t[0] = 1.0f;
    // Shrinking and re-growing within capacity is free.
    const auto events = scratch::arena_growth_events();
    ws.tensor(0, Shape{2, 2});
    ws.tensor(0, Shape{4, 8});
    EXPECT_EQ(scratch::arena_growth_events(), events);
    // Slot references stay valid when later slots grow the table.
    Tensor& t2 = ws.tensor(7, Shape{16});
    t2[0] = 2.0f;
    EXPECT_EQ(ws.tensor(0, Shape{4, 8}).data(), t.data());
  }
  EXPECT_EQ(scratch::arena_bytes_reserved(), before);
}

// The byte cap must release least-recently-used slots (never the slot being
// checked out), keep the process ledger consistent, and count evictions.
TEST_F(PlanCacheTest, WorkspaceByteCapEvictsLeastRecentlyUsed) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto evict0 =
      obs::Registry::instance().counter("plan.cache_evictions").value();
  const auto ledger0 = scratch::arena_bytes_reserved();
  {
    Workspace ws;
    constexpr std::size_t kSlotBytes = 1024 * sizeof(float);
    ws.set_byte_cap(3 * kSlotBytes);
    Tensor& a = ws.tensor(0, Shape{1024});
    ws.tensor(1, Shape{1024});
    ws.tensor(2, Shape{1024});
    ws.trim();
    EXPECT_EQ(ws.evictions(), 0u);  // exactly at the cap, nothing evicted
    ws.tensor(0, Shape{1024});      // refresh slot 0: slot 1 is now LRU
    ws.tensor(3, Shape{1024});      // over the cap, but tensor() never evicts
    EXPECT_EQ(ws.evictions(), 0u);
    EXPECT_GT(ws.bytes_reserved(), ws.byte_cap());
    ws.trim();  // pass boundary: slot 1 must go
    EXPECT_EQ(ws.evictions(), 1u);
    EXPECT_LE(ws.bytes_reserved(), ws.byte_cap());
    // Slot 0 survived the eviction pass without reallocation.
    EXPECT_EQ(ws.tensor(0, Shape{1024}).data(), a.data());
    // Re-checking-out the victim re-grows it; the next trim evicts the new
    // LRU (slot 2 — slots 0, 1 and 3 were all touched more recently).
    ws.tensor(1, Shape{1024});
    ws.trim();
    EXPECT_EQ(ws.evictions(), 2u);
    EXPECT_LE(ws.bytes_reserved(), ws.byte_cap());
    // The ledger tracks the workspace through growth and eviction alike.
    EXPECT_EQ(scratch::arena_bytes_reserved(), ledger0 + ws.bytes_reserved());
    // A slot larger than the whole cap: trim evicts everything else but
    // keeps the most-recently-used slot resident (no thrash).
    Tensor& big = ws.tensor(4, Shape{8192});
    EXPECT_EQ(big.numel(), 8192u);
    ws.trim();
    EXPECT_EQ(big.numel(), 8192u);  // survived its own trim
    EXPECT_GT(ws.bytes_reserved(), ws.byte_cap());
    EXPECT_EQ(ws.bytes_reserved(), 8192 * sizeof(float));
    const auto evictions = ws.evictions();
    EXPECT_EQ(evictions, 5u);
    EXPECT_EQ(obs::Registry::instance().counter("plan.cache_evictions").value(),
              evict0 + evictions);
  }
  EXPECT_EQ(scratch::arena_bytes_reserved(), ledger0);
  obs::set_metrics_enabled(was_enabled);
}

// A conv layer driven with varying batch sizes under a tight arena cap must
// evict (bounding the arena) while staying bit-identical to the uncapped run.
TEST_F(PlanCacheTest, BoundedArenaVaryingBatchMatchesUncapped) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto default_cap = Workspace::default_byte_cap();
  const auto evict0 =
      obs::Registry::instance().counter("plan.cache_evictions").value();

  Rng data_rng(77);
  std::vector<Tensor> xs, gouts;
  for (std::size_t b : {8u, 2u, 6u, 4u, 8u, 1u})
    xs.push_back(random_tensor(Shape{b, 3, 10, 10}, data_rng));

  auto make = [](Rng& rng) {
    return std::make_unique<Conv2D>(3, 10, 10, 6, 3, 1, 1, rng);
  };

  Workspace::set_default_byte_cap(0);  // reference: unlimited
  Rng ref_rng(9);
  auto ref = make(ref_rng);
  std::vector<Tensor> ref_y, ref_gx;
  for (const Tensor& x : xs) {
    ref_y.push_back(ref->forward(x, true));
    gouts.push_back(random_tensor(ref_y.back().shape(), data_rng));
    ref_gx.push_back(ref->backward(gouts.back()));
  }

  // 64 KiB is smaller than one batch-8 im2col panel, so every batch-size
  // change forces evictions.
  Workspace::set_default_byte_cap(64 * 1024);
  Rng rng(9);
  auto capped = make(rng);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "step " << i);
    expect_bitwise_equal(capped->forward(xs[i], true), ref_y[i], "output");
    expect_bitwise_equal(capped->backward(gouts[i]), ref_gx[i],
                         "input gradient");
  }
  EXPECT_GT(obs::Registry::instance().counter("plan.cache_evictions").value(),
            evict0)
      << "tight cap with varying batches should have evicted";

  Workspace::set_default_byte_cap(default_cap);
  obs::set_metrics_enabled(was_enabled);
}

}  // namespace
}  // namespace reramdl::nn
