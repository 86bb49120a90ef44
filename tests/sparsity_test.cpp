// Sparsity-aware execution (DESIGN.md §12): the fused scanner, the runtime
// variant selector (RERAMDL_SPARSE_THRESHOLD policy), and the zero-skipping
// GEMM variants' bit-identity contract against the dense oracle — for every
// matmul flavor, across sparsity levels and thread counts — plus the obs
// counters and the scratch-buffer ledger's steady-state behavior.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "circuit/crossbar_grid.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "obs/obs.hpp"
#include "tensor/ops.hpp"
#include "tensor/sparsity.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace reramdl;

// Restores the selector policy and thread count no matter how a test exits.
struct PolicyGuard {
  ~PolicyGuard() {
    sparsity::set_threshold(-1.0);
    unsetenv("RERAMDL_SPARSE_THRESHOLD");
    parallel::set_thread_count(0);
  }
};

Tensor sparse_matrix(std::size_t m, std::size_t k, double zero_prob,
                     unsigned seed) {
  Rng rng(seed);
  Tensor t = Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (rng.uniform(0.0, 1.0) < zero_prob) t[i] = 0.0f;
  return t;
}

TEST(SparsityScan, CountsZerosRowsAndMax) {
  // Row 1 is all-zero; row 2 holds the max.
  Tensor a(Shape{3, 4});
  const float vals[12] = {0.5f, 0.0f, -0.25f, 0.0f,  //
                          0.0f, 0.0f, 0.0f,   0.0f,  //
                          0.0f, 2.5f, -3.0f,  1.0f};
  std::memcpy(a.data(), vals, sizeof(vals));

  std::uint8_t flags[3] = {9, 9, 9};
  const sparsity::ScanStats s = sparsity::scan_rows(a.data(), 3, 4, flags);
  EXPECT_EQ(s.rows, 3u);
  EXPECT_EQ(s.cols, 4u);
  EXPECT_EQ(s.zero_elems, 7u);
  EXPECT_EQ(s.zero_rows, 1u);
  EXPECT_DOUBLE_EQ(s.max_abs, 3.0);
  EXPECT_DOUBLE_EQ(s.zero_fraction(), 7.0 / 12.0);
  EXPECT_EQ(flags[0], 1u);
  EXPECT_EQ(flags[1], 0u);
  EXPECT_EQ(flags[2], 1u);
  EXPECT_TRUE(s.finite());
  // One Inf or NaN anywhere makes the range infinite (std::max alone would
  // drop the NaN).
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    a[5] = bad;
    EXPECT_FALSE(sparsity::scan_rows(a.data(), 3, 4).finite()) << bad;
  }
}

TEST(SparsityScan, AllZeroMatrixFloorsMaxAtDriverEpsilon) {
  Tensor a = Tensor::zeros(Shape{5, 7});
  const sparsity::ScanStats s = sparsity::scan_rows(a.data(), 5, 7);
  EXPECT_EQ(s.zero_elems, 35u);
  EXPECT_EQ(s.zero_rows, 5u);
  EXPECT_DOUBLE_EQ(s.zero_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(s.max_abs, 1e-12);  // still a valid spike-driver range
}

TEST(SparsityScan, EmptyMatrixIsDense) {
  const sparsity::ScanStats s = sparsity::scan_rows(nullptr, 0, 0);
  EXPECT_DOUBLE_EQ(s.zero_fraction(), 0.0);
}

TEST(SparsityScan, ExactAcrossThreadCounts) {
  PolicyGuard guard;
  const Tensor a = sparse_matrix(301, 97, 0.6, 17);
  parallel::set_thread_count(1);
  const sparsity::ScanStats ref = sparsity::scan_rows(a.data(), 301, 97);
  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    parallel::set_thread_count(threads);
    const sparsity::ScanStats s = sparsity::scan_rows(a.data(), 301, 97);
    EXPECT_EQ(s.zero_elems, ref.zero_elems) << "threads=" << threads;
    EXPECT_EQ(s.zero_rows, ref.zero_rows) << "threads=" << threads;
    EXPECT_EQ(s.max_abs, ref.max_abs) << "threads=" << threads;
  }
}

TEST(SparsitySelector, ThresholdBoundaries) {
  PolicyGuard guard;
  sparsity::set_threshold(0.6);
  EXPECT_TRUE(sparsity::select_sparse(0.6));  // exactly at threshold: sparse
  EXPECT_TRUE(sparsity::select_sparse(0.75));
  EXPECT_FALSE(sparsity::select_sparse(0.5999));
  sparsity::set_threshold(2.0);  // clamps to 1.0
  EXPECT_TRUE(sparsity::select_sparse(1.0));
  EXPECT_FALSE(sparsity::select_sparse(0.999));
}

TEST(SparsitySelector, ZeroThresholdForcesDense) {
  PolicyGuard guard;
  sparsity::set_threshold(0.0);
  EXPECT_FALSE(sparsity::select_sparse(1.0));  // even a fully zero input
  setenv("RERAMDL_SPARSE_THRESHOLD", "0", 1);
  sparsity::set_threshold(-1.0);  // drop override, re-read environment
  EXPECT_DOUBLE_EQ(sparsity::threshold(), 0.0);
  EXPECT_FALSE(sparsity::select_sparse(1.0));
}

TEST(SparsitySelector, EnvOverridesDefault) {
  PolicyGuard guard;
  unsetenv("RERAMDL_SPARSE_THRESHOLD");
  sparsity::set_threshold(-1.0);
  EXPECT_DOUBLE_EQ(sparsity::threshold(), 0.5);  // compiled-in default
  setenv("RERAMDL_SPARSE_THRESHOLD", "0.25", 1);
  sparsity::set_threshold(-1.0);
  EXPECT_DOUBLE_EQ(sparsity::threshold(), 0.25);
}

TEST(SparsitySelector, InvalidEnvWarnsOnceAndFallsBack) {
  PolicyGuard guard;
  setenv("RERAMDL_SPARSE_THRESHOLD", "banana", 1);
  sparsity::set_threshold(-1.0);
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(sparsity::threshold(), 0.5);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("RERAMDL_SPARSE_THRESHOLD"), std::string::npos);

  // Still invalid (out of [0, 1] this time): same fallback, but the shared
  // env helpers warn once per variable per process — no second line.
  setenv("RERAMDL_SPARSE_THRESHOLD", "1.5", 1);
  sparsity::set_threshold(-1.0);
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(sparsity::threshold(), 0.5);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// Dense-oracle harness: runs `fn` with the policy forced dense, then forced
// sparse, and expects bitwise-equal outputs.
template <typename Fn>
void expect_sparse_matches_dense(Fn&& fn, const char* what) {
  sparsity::set_threshold(0.0);
  const Tensor dense = fn();
  sparsity::set_threshold(1e-9);  // any nonzero fraction selects sparse
  const Tensor sparse = fn();
  ASSERT_EQ(dense.shape(), sparse.shape()) << what;
  EXPECT_EQ(std::memcmp(dense.data(), sparse.data(),
                        dense.numel() * sizeof(float)),
            0)
      << what;
}

TEST(SparsityGemm, AllVariantsBitIdenticalToDenseOracle) {
  PolicyGuard guard;
  // Awkward shapes straddle the kernels' M/N/K blocking; sparsity levels
  // cover the selector's whole range including fully-zero A.
  const std::size_t m = 70, k = 130, n = 50;
  for (const double zp : {0.5, 0.75, 0.9, 1.0}) {
    const Tensor a =
        sparse_matrix(m, k, zp, 23u + static_cast<unsigned>(zp * 100));
    Rng rng(5);
    // b doubles as the packed form's BT operand (both are [k, n]).
    const Tensor b = Tensor::uniform(Shape{k, n}, rng, -1.0f, 1.0f);
    const Tensor g = Tensor::uniform(Shape{m, n}, rng, -1.0f, 1.0f);
    const Tensor acc0 = Tensor::uniform(Shape{k, n}, rng, -1.0f, 1.0f);

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      parallel::set_thread_count(threads);
      expect_sparse_matches_dense([&] { return ops::matmul(a, b); },
                                  "matmul");
      expect_sparse_matches_dense(
          [&] { return ops::matmul_transposed_b_packed(a, b); },
          "matmul_transposed_b_packed");
      expect_sparse_matches_dense([&] { return ops::matmul_transposed_a(a, g); },
                                  "matmul_transposed_a");
      expect_sparse_matches_dense(
          [&] {
            Tensor c = acc0;
            ops::matmul_transposed_a_acc(a, g, c);
            return c;
          },
          "matmul_transposed_a_acc");
    }
  }
}

TEST(SparsityGemm, ZeroRowsInAProduceZeroOutputRows) {
  PolicyGuard guard;
  sparsity::set_threshold(0.1);
  Tensor a = sparse_matrix(40, 60, 0.7, 31);
  for (std::size_t j = 0; j < 60; ++j) a.at(3, j) = 0.0f;  // force a zero row
  Rng rng(6);
  const Tensor b = Tensor::uniform(Shape{60, 20}, rng, -1.0f, 1.0f);
  const Tensor c = ops::matmul(a, b);
  for (std::size_t j = 0; j < 20; ++j) EXPECT_EQ(c.at(3, j), 0.0f);
}

TEST(SparsityObs, SelectionAndSkipCountersAdvance) {
  PolicyGuard guard;
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& reg = obs::Registry::instance();
  const std::uint64_t skipped0 = reg.counter("sparsity.rows_skipped").value();
  const std::uint64_t sparse0 = reg.counter("sparsity.sparse_calls").value();
  const std::uint64_t dense0 = reg.counter("sparsity.dense_calls").value();
  const std::uint64_t frac0 = reg.histogram("sparsity.fraction").count();

  const Tensor a = sparse_matrix(64, 64, 0.8, 41);
  const sparsity::ScanStats scan = sparsity::scan_rows(a.data(), 64, 64);
  Rng rng(7);
  const Tensor b = Tensor::uniform(Shape{64, 32}, rng, -1.0f, 1.0f);

  sparsity::set_threshold(0.1);  // well below the ~80% measured fraction
  (void)ops::matmul(a, b);
  EXPECT_EQ(reg.counter("sparsity.rows_skipped").value(),
            skipped0 + scan.zero_elems);
  EXPECT_EQ(reg.counter("sparsity.sparse_calls").value(), sparse0 + 1);
  EXPECT_EQ(reg.histogram("sparsity.fraction").count(), frac0 + 1);

  sparsity::set_threshold(0.99);  // above it: dense, no rows skipped
  (void)ops::matmul(a, b);
  EXPECT_EQ(reg.counter("sparsity.rows_skipped").value(),
            skipped0 + scan.zero_elems);
  EXPECT_EQ(reg.counter("sparsity.dense_calls").value(), dense0 + 1);

  obs::set_metrics_enabled(was_enabled);
}

// RERAMDL_SPARSE_THRESHOLD boundary regressions on the grid MVM path
// (CrossbarGrid::compute_batch): the selector counters must match the path
// the call actually took, for each env boundary value. The env warn-once
// behavior for this variable is covered by InvalidEnvWarnsOnceAndFallsBack
// above (one warning per variable per process), so these tests assert the
// fallback *policy*, not fresh stderr lines.
struct GridPathFixture {
  PolicyGuard guard;
  bool was_enabled;
  circuit::CrossbarGrid grid;
  Tensor rows;       // [4, 48] ~60% zeros
  Tensor zero_rows;  // [4, 48] fully zero

  GridPathFixture()
      : was_enabled(obs::metrics_enabled()),
        grid(circuit::CrossbarConfig{}),
        rows(sparse_matrix(4, 48, 0.6, 71)),
        zero_rows(Tensor::zeros(Shape{4, 48})) {
    obs::set_metrics_enabled(true);
    Rng rng(72);
    const Tensor w = Tensor::uniform(Shape{48, 24}, rng, -1.0f, 1.0f);
    grid.program(w, 1.0);
  }
  ~GridPathFixture() { obs::set_metrics_enabled(was_enabled); }

  static std::uint64_t sparse_calls() {
    return obs::Registry::instance().counter("sparsity.sparse_calls").value();
  }
  static std::uint64_t dense_calls() {
    return obs::Registry::instance().counter("sparsity.dense_calls").value();
  }
};

TEST(SparsityGridPath, EnvZeroForcesDenseAndSuppressesScan) {
  GridPathFixture f;
  setenv("RERAMDL_SPARSE_THRESHOLD", "0", 1);
  sparsity::set_threshold(-1.0);  // drop override, re-read env
  ASSERT_DOUBLE_EQ(sparsity::threshold(), 0.0);

  // Unmeasured batch + zero threshold: the policy is dead, so the grid
  // skips the scan entirely and records no selection at all.
  const std::uint64_t sparse0 = f.sparse_calls(), dense0 = f.dense_calls();
  (void)f.grid.compute_batch(f.rows, 1.0);
  EXPECT_EQ(f.sparse_calls(), sparse0);
  EXPECT_EQ(f.dense_calls(), dense0);

  // Caller-measured fraction still records — and even a fully-zero batch
  // must go dense when the threshold is 0.
  (void)f.grid.compute_batch(f.zero_rows, 1.0, /*zero_fraction=*/1.0);
  EXPECT_EQ(f.sparse_calls(), sparse0);
  EXPECT_EQ(f.dense_calls(), dense0 + 1);
}

TEST(SparsityGridPath, EnvOneSelectsSparseOnlyForFullyZeroBatch) {
  GridPathFixture f;
  setenv("RERAMDL_SPARSE_THRESHOLD", "1.0", 1);
  sparsity::set_threshold(-1.0);
  ASSERT_DOUBLE_EQ(sparsity::threshold(), 1.0);

  // ~60% zeros: scanned (threshold is live), fraction < 1 -> dense path.
  const std::uint64_t sparse0 = f.sparse_calls(), dense0 = f.dense_calls();
  (void)f.grid.compute_batch(f.rows, 1.0);
  EXPECT_EQ(f.sparse_calls(), sparse0);
  EXPECT_EQ(f.dense_calls(), dense0 + 1);

  // Fully-zero batch: scan measures exactly 1.0, the >= boundary selects
  // sparse, and the zero-skipping path trivially yields an all-zero output.
  const Tensor out = f.grid.compute_batch(f.zero_rows, 1.0);
  EXPECT_EQ(f.sparse_calls(), sparse0 + 1);
  EXPECT_EQ(f.dense_calls(), dense0 + 1);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], 0.0f);
}

TEST(SparsityGridPath, InvalidEnvFallsBackToDefaultBoundary) {
  GridPathFixture f;
  setenv("RERAMDL_SPARSE_THRESHOLD", "not-a-number", 1);
  sparsity::set_threshold(-1.0);
  ASSERT_DOUBLE_EQ(sparsity::threshold(), 0.5);  // compiled-in default

  // Caller-measured fractions pin the boundary exactly: 0.5 is sparse
  // (>= threshold), anything below is dense. The sparse kernel only skips
  // exact zeros, so a conservative claimed fraction stays bit-correct.
  const std::uint64_t sparse0 = f.sparse_calls(), dense0 = f.dense_calls();
  (void)f.grid.compute_batch(f.rows, 1.0, /*zero_fraction=*/0.5);
  EXPECT_EQ(f.sparse_calls(), sparse0 + 1);
  EXPECT_EQ(f.dense_calls(), dense0);
  (void)f.grid.compute_batch(f.rows, 1.0, /*zero_fraction=*/0.4999);
  EXPECT_EQ(f.sparse_calls(), sparse0 + 1);
  EXPECT_EQ(f.dense_calls(), dense0 + 1);

  // Sparse and dense selections must agree bitwise on the same batch.
  sparsity::set_threshold(0.0);
  const Tensor dense_out = f.grid.compute_batch(f.rows, 1.0);
  sparsity::set_threshold(1e-9);
  const Tensor sparse_out = f.grid.compute_batch(f.rows, 1.0);
  ASSERT_EQ(dense_out.shape(), sparse_out.shape());
  EXPECT_EQ(std::memcmp(dense_out.data(), sparse_out.data(),
                        dense_out.numel() * sizeof(float)),
            0);
}

TEST(SparsityGridPath, AttributionBucketsMatchSelectedPath) {
  GridPathFixture f;
  f.grid.set_obs_label("test/gridpath");
  auto& attr = obs::Attribution::instance();
  const double sparse0 = attr.total("test/gridpath", "sparse_calls");
  const double dense0 = attr.total("test/gridpath", "dense_calls");

  sparsity::set_threshold(0.5);
  (void)f.grid.compute_batch(f.rows, 1.0, /*zero_fraction=*/0.9);
  (void)f.grid.compute_batch(f.rows, 1.0, /*zero_fraction=*/0.1);
  EXPECT_DOUBLE_EQ(attr.total("test/gridpath", "sparse_calls"), sparse0 + 1);
  EXPECT_DOUBLE_EQ(attr.total("test/gridpath", "dense_calls"), dense0 + 1);
}

TEST(SparsityScratch, BufferLedgerStopsGrowingAfterWarmup) {
  PolicyGuard guard;
  parallel::set_thread_count(1);
  sparsity::set_threshold(0.1);
  const Tensor a = sparse_matrix(96, 96, 0.75, 53);
  Rng rng(8);
  const Tensor b = Tensor::uniform(Shape{96, 48}, rng, -1.0f, 1.0f);

  for (int i = 0; i < 2; ++i) (void)ops::matmul(a, b);  // warm the pools
  const std::size_t warm_bytes = scratch::buffer_bytes_allocated();
  const std::uint64_t warm_growths = scratch::buffer_growth_events();
  for (int i = 0; i < 8; ++i) (void)ops::matmul(a, b);
  EXPECT_EQ(scratch::buffer_bytes_allocated(), warm_bytes);
  EXPECT_EQ(scratch::buffer_growth_events(), warm_growths);
}

}  // namespace
