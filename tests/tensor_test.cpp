#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace reramdl {
namespace {

TEST(Shape, RankDimsNumel) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s[0], 2u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 4u);
  EXPECT_EQ(s.numel(), 24u);
}

TEST(Shape, RowMajorStrides) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.stride(0), 12u);
  EXPECT_EQ(s.stride(1), 4u);
  EXPECT_EQ(s.stride(2), 1u);
}

TEST(Shape, EqualityAndToString) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_EQ(Shape({2, 3}).to_string(), "[2, 3]");
}

TEST(Shape, OutOfRangeDimThrows) {
  const Shape s{2};
  EXPECT_THROW(s.dim(1), CheckError);
}

TEST(Tensor, ConstructionFillsValue) {
  Tensor t(Shape{2, 2}, 3.0f);
  EXPECT_EQ(t.numel(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t[i], 3.0f);
}

TEST(Tensor, MultiDimAccessorsRowMajor) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t[5], 7.0f);
  Tensor u(Shape{2, 2, 2, 2});
  u.at(1, 0, 1, 0) = 9.0f;
  EXPECT_FLOAT_EQ(u[8 + 2], 9.0f);
}

TEST(Tensor, AccessorsBoundsChecked) {
  Tensor t(Shape{2, 3});
  EXPECT_THROW(t.at(2, 0), CheckError);
  EXPECT_THROW(t.at(0, 3), CheckError);
  EXPECT_THROW(t.at(0), CheckError);  // rank mismatch
  EXPECT_THROW(t[6], CheckError);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 3});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped(Shape{3, 2});
  for (std::size_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
  EXPECT_THROW(t.reshaped(Shape{4, 2}), CheckError);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a(Shape{3}, 1.0f), b(Shape{3}, 2.0f);
  a += b;
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a[1], 1.0f);
  a *= 4.0f;
  EXPECT_FLOAT_EQ(a[2], 4.0f);
}

TEST(Tensor, UniformInitializerInRange) {
  Rng rng(1);
  const Tensor t = Tensor::uniform(Shape{1000}, rng, -2.0f, 2.0f);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 2.0f);
  }
}

TEST(Tensor, HeNormalScalesWithFanIn) {
  Rng rng(2);
  const Tensor t = Tensor::he_normal(Shape{200, 50}, rng, 200);
  double var = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i)
    var += static_cast<double>(t[i]) * t[i];
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(var, 2.0 / 200.0, 2e-3);
}

TEST(Tensor, SumAndAbsMax) {
  Tensor t(Shape{3});
  t[0] = -5.0f;
  t[1] = 2.0f;
  t[2] = 1.0f;
  EXPECT_FLOAT_EQ(t.sum(), -2.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 5.0f);
}

// ---- ops ---------------------------------------------------------------

Tensor iota(Shape s) {
  Tensor t(s);
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i + 1);
  return t;
}

TEST(Ops, MatmulKnownValues) {
  // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
  const Tensor a = iota(Shape{2, 2});
  Tensor b(Shape{2, 2});
  b[0] = 5;
  b[1] = 6;
  b[2] = 7;
  b[3] = 8;
  const Tensor c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  EXPECT_THROW(ops::matmul(Tensor(Shape{2, 3}), Tensor(Shape{2, 3})), CheckError);
}

struct MatmulDims {
  std::size_t m, k, n;
};

class MatmulVariants : public ::testing::TestWithParam<MatmulDims> {};

TEST_P(MatmulVariants, TransposedFormsAgreeWithPlain) {
  const auto [m, k, n] = GetParam();
  Rng rng(99);
  const Tensor a = Tensor::normal(Shape{m, k}, rng, 0.0f, 1.0f);
  const Tensor b = Tensor::normal(Shape{k, n}, rng, 0.0f, 1.0f);
  const Tensor c = ops::matmul(a, b);

  // matmul_transposed_b(a, b^T) == a b
  const Tensor bt = ops::transpose(b);
  const Tensor c2 = ops::matmul_transposed_b(a, bt);
  // matmul_transposed_a(a^T, b) == a b
  const Tensor at = ops::transpose(a);
  const Tensor c3 = ops::matmul_transposed_a(at, b);

  ASSERT_EQ(c2.shape(), c.shape());
  ASSERT_EQ(c3.shape(), c.shape());
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c2[i], c[i], 1e-3f);
    EXPECT_NEAR(c3[i], c[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, MatmulVariants,
    ::testing::Values(MatmulDims{1, 1, 1}, MatmulDims{2, 3, 4},
                      MatmulDims{7, 5, 3}, MatmulDims{16, 16, 16},
                      MatmulDims{1, 32, 8}, MatmulDims{33, 17, 5}));

TEST(Ops, AddRowBiasBroadcasts) {
  Tensor x(Shape{2, 3}, 1.0f);
  Tensor b(Shape{3});
  b[0] = 10;
  b[1] = 20;
  b[2] = 30;
  ops::add_row_bias(x, b);
  EXPECT_FLOAT_EQ(x.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(x.at(1, 2), 31.0f);
}

TEST(Ops, ColumnSums) {
  const Tensor x = iota(Shape{2, 3});  // rows [1,2,3],[4,5,6]
  const Tensor s = ops::column_sums(x);
  EXPECT_FLOAT_EQ(s[0], 5.0f);
  EXPECT_FLOAT_EQ(s[1], 7.0f);
  EXPECT_FLOAT_EQ(s[2], 9.0f);
}

TEST(Ops, TransposeInvolution) {
  Rng rng(3);
  const Tensor x = Tensor::normal(Shape{4, 7}, rng, 0.0f, 1.0f);
  const Tensor tt = ops::transpose(ops::transpose(x));
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(tt[i], x[i]);
}

// Restores the pool's thread count no matter how a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

// Uniform [-1, 1) matrix with each element zeroed with probability zero_prob.
Tensor with_zeros(std::size_t m, std::size_t k, double zero_prob,
                  unsigned seed) {
  Rng rng(seed);
  Tensor t = Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (rng.uniform(0.0, 1.0) < zero_prob) t[i] = 0.0f;
  return t;
}

TEST(Ops, MatmulZeroRowsInAProduceZeroOutputRows) {
  Tensor a = with_zeros(40, 60, 0.7, 31);
  for (std::size_t j = 0; j < 60; ++j) a.at(3, j) = 0.0f;  // force a zero row
  Rng rng(6);
  const Tensor b = Tensor::uniform(Shape{60, 20}, rng, -1.0f, 1.0f);
  const Tensor c = ops::matmul(a, b);
  for (std::size_t j = 0; j < 20; ++j) EXPECT_EQ(c.at(3, j), 0.0f);
}

TEST(Ops, MatmulScratchLedgerStopsGrowingAfterWarmup) {
  ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const Tensor a = with_zeros(96, 96, 0.75, 53);
  Rng rng(8);
  const Tensor b = Tensor::uniform(Shape{96, 48}, rng, -1.0f, 1.0f);

  for (int i = 0; i < 2; ++i) (void)ops::matmul(a, b);  // warm the pools
  const std::size_t warm_bytes = scratch::buffer_bytes_allocated();
  const std::uint64_t warm_growths = scratch::buffer_growth_events();
  for (int i = 0; i < 8; ++i) (void)ops::matmul(a, b);
  EXPECT_EQ(scratch::buffer_bytes_allocated(), warm_bytes);
  EXPECT_EQ(scratch::buffer_growth_events(), warm_growths);
}

// ---- input_range (the crossbar executor's spike-driver range) -------------

TEST(InputRange, MaxAbsAndNonFiniteElements) {
  // Row 1 is all-zero; row 2 holds the max.
  Tensor a(Shape{3, 4});
  const float vals[12] = {0.5f, 0.0f, -0.25f, 0.0f,  //
                          0.0f, 0.0f, 0.0f,   0.0f,  //
                          0.0f, 2.5f, -3.0f,  1.0f};
  std::memcpy(a.data(), vals, sizeof(vals));
  EXPECT_DOUBLE_EQ(ops::input_range(a), 3.0);
  // One Inf or NaN anywhere makes the range infinite (std::max alone would
  // drop the NaN).
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    a[5] = bad;
    EXPECT_EQ(ops::input_range(a), std::numeric_limits<double>::infinity())
        << bad;
  }
}

TEST(InputRange, AllZeroMatrixFloorsAtDriverEpsilon) {
  // Still a valid spike-driver range.
  EXPECT_DOUBLE_EQ(ops::input_range(Tensor::zeros(Shape{5, 7})), 1e-12);
}

TEST(InputRange, EmptyMatrixFloorsAtDriverEpsilon) {
  EXPECT_DOUBLE_EQ(ops::input_range(Tensor(Shape{0, 0})), 1e-12);
  EXPECT_DOUBLE_EQ(ops::input_range(Tensor(Shape{0, 4})), 1e-12);
}

TEST(InputRange, ExactAcrossThreadCounts) {
  ThreadCountGuard guard;
  const Tensor a = with_zeros(301, 97, 0.6, 17);
  parallel::set_thread_count(1);
  const double ref = ops::input_range(a);
  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    parallel::set_thread_count(threads);
    EXPECT_EQ(ops::input_range(a), ref) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace reramdl
