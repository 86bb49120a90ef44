// Tests for the host-parallel execution engine (common/parallel.hpp) and the
// determinism contract of the kernels built on it: results must be
// bit-identical for RERAMDL_THREADS=1 vs RERAMDL_THREADS=8.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "circuit/crossbar_grid.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "oracle.hpp"

namespace {

using namespace reramdl;

// Restores the ambient thread count when a test finishes.
struct ThreadCountGuard {
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

TEST(ParallelFor, EmptyRangeIsNoOp) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  std::atomic<int> calls{0};
  parallel::parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  parallel::parallel_for(7, 3, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, GrainLargerThanRangeIsOneChunk) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  std::atomic<int> calls{0};
  std::size_t seen_b = 99, seen_e = 99;
  parallel::parallel_for(2, 9, 100, [&](std::size_t b, std::size_t e) {
    ++calls;
    seen_b = b;
    seen_e = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_b, 2u);
  EXPECT_EQ(seen_e, 9u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    parallel::set_thread_count(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel::parallel_for(0, 1000, 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ParallelFor, ZeroGrainTreatedAsOne) {
  ThreadCountGuard guard;
  parallel::set_thread_count(2);
  std::atomic<int> total{0};
  parallel::parallel_for(0, 10, 0, [&](std::size_t b, std::size_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ParallelFor, NestedCallsRunWithoutDeadlock) {
  ThreadCountGuard guard;
  parallel::set_thread_count(8);
  std::atomic<int> inner_total{0};
  parallel::parallel_for(0, 16, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // The nested region must run inline on the worker.
      parallel::parallel_for(0, 8, 1, [&](std::size_t ib, std::size_t ie) {
        EXPECT_TRUE(parallel::in_parallel_region());
        inner_total += static_cast<int>(ie - ib);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 16 * 8);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  EXPECT_THROW(
      parallel::parallel_for(0, 100, 1,
                             [&](std::size_t b, std::size_t) {
                               if (b == 42) throw std::runtime_error("boom");
                             }),
      std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<int> total{0};
  parallel::parallel_for(0, 10, 1, [&](std::size_t b, std::size_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ParallelReduce, DeterministicAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(123);
  std::vector<double> v(10007);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);

  const auto map = [&](std::size_t b, std::size_t e) {
    return std::accumulate(v.begin() + static_cast<long>(b),
                           v.begin() + static_cast<long>(e), 0.0);
  };
  const auto join = [](double a, double b) { return a + b; };

  parallel::set_thread_count(1);
  const double r1 = parallel::parallel_reduce(0, v.size(), 64, 0.0, map, join);
  parallel::set_thread_count(8);
  const double r8 = parallel::parallel_reduce(0, v.size(), 64, 0.0, map, join);
  EXPECT_EQ(std::memcmp(&r1, &r8, sizeof(double)), 0);

  parallel::set_thread_count(3);
  const double r3 = parallel::parallel_reduce(0, v.size(), 64, 0.0, map, join);
  EXPECT_EQ(std::memcmp(&r1, &r3, sizeof(double)), 0);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  EXPECT_EQ(parallel::parallel_reduce(
                3, 3, 4, -7.5,
                [](std::size_t, std::size_t) { return 1.0; },
                [](double a, double b) { return a + b; }),
            -7.5);
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(ParallelDeterminism, MatmulBitIdenticalOneVsEightThreads) {
  ThreadCountGuard guard;
  Rng rng(7);
  const Tensor a = Tensor::uniform(Shape{173, 211}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape{211, 157}, rng, -1.0f, 1.0f);
  const Tensor g = Tensor::uniform(Shape{173, 157}, rng, -1.0f, 1.0f);

  parallel::set_thread_count(1);
  const Tensor c1 = ops::matmul(a, b);
  const Tensor tb1 = ops::matmul_transposed_b(g, b);
  const Tensor ta1 = ops::matmul_transposed_a(a, g);

  parallel::set_thread_count(8);
  const Tensor c8 = ops::matmul(a, b);
  const Tensor tb8 = ops::matmul_transposed_b(g, b);
  const Tensor ta8 = ops::matmul_transposed_a(a, g);

  EXPECT_TRUE(bit_identical(c1, c8));
  EXPECT_TRUE(bit_identical(tb1, tb8));
  EXPECT_TRUE(bit_identical(ta1, ta8));
}

// Regression for the historical accumulation inconsistency: matmul used to
// sum partial products in float while the transposed variants summed in
// double. All three now accumulate in double, so on a shared random problem
// the three ways of computing the same product must agree to double-dot
// accuracy (they associate differently, so allow tiny rounding slack).
TEST(ParallelDeterminism, MatmulVariantsAgreeOnSharedProblem) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  Rng rng(99);
  const Tensor a = Tensor::uniform(Shape{96, 301}, rng, -2.0f, 2.0f);
  const Tensor b = Tensor::uniform(Shape{301, 88}, rng, -2.0f, 2.0f);

  // C = A*B three ways: directly, as A * (B^T)^T, and as (A^T)^T * B.
  const Tensor c = ops::matmul(a, b);
  const Tensor c_tb = ops::matmul_transposed_b(a, ops::transpose(b));
  const Tensor c_ta = ops::matmul_transposed_a(ops::transpose(a), b);

  ASSERT_EQ(c.shape(), c_tb.shape());
  ASSERT_EQ(c.shape(), c_ta.shape());
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.data()[i], c_tb.data()[i], 1e-4f) << "at " << i;
    EXPECT_NEAR(c.data()[i], c_ta.data()[i], 1e-4f) << "at " << i;
  }
}

TEST(ParallelDeterminism, CrossbarGridMvmBitIdenticalOneVsEightThreads) {
  ThreadCountGuard guard;
  Rng rng(42);
  circuit::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  // 5x4 = 20 tiles with ragged edges.
  const Tensor w = Tensor::uniform(Shape{150, 120}, rng, -1.0f, 1.0f);
  std::vector<float> x(150);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const auto run = [&]() {
    circuit::CrossbarGrid grid(cfg);
    grid.program(w, 1.0);
    return oracle::compute_row(grid, x, 1.0);
  };

  parallel::set_thread_count(1);
  const std::vector<float> y1 = run();
  parallel::set_thread_count(8);
  const std::vector<float> y8 = run();

  ASSERT_EQ(y1.size(), y8.size());
  EXPECT_EQ(std::memcmp(y1.data(), y8.data(), y1.size() * sizeof(float)), 0);
}

TEST(ParallelDeterminism, Im2colBitIdenticalOneVsEightThreads) {
  ThreadCountGuard guard;
  Rng rng(5);
  const Tensor x = Tensor::uniform(Shape{4, 3, 17, 17}, rng, -1.0f, 1.0f);
  const ConvGeometry g{3, 17, 17, 3, 3, 2, 1};

  parallel::set_thread_count(1);
  const Tensor cols1 = im2col(x, g);
  const Tensor back1 = col2im(cols1, g, 4);
  parallel::set_thread_count(8);
  const Tensor cols8 = im2col(x, g);
  const Tensor back8 = col2im(cols8, g, 4);

  EXPECT_TRUE(bit_identical(cols1, cols8));
  EXPECT_TRUE(bit_identical(back1, back8));
}

}  // namespace
