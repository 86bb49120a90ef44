#include "tensor/sparsity.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "obs/obs.hpp"

namespace reramdl::sparsity {

namespace {

constexpr double kDefaultThreshold = 0.5;

// Negative means "unset": the next threshold() call reads the environment.
std::atomic<double>& threshold_override() {
  static std::atomic<double> v{-1.0};
  return v;
}

}  // namespace

ScanStats scan_rows(const float* data, std::size_t rows, std::size_t cols,
                    std::uint8_t* row_nonzero) {
  ScanStats s;
  s.rows = rows;
  s.cols = cols;
  if (rows == 0 || cols == 0) return s;

  // Per-row partials (zero count + row max) written by independent row-block
  // chunks, folded serially below. Integer sums and max are both
  // association-insensitive, so the fold is exact for any chunking.
  scratch::Buffer<std::uint32_t> row_zeros(rows);
  scratch::Buffer<float> row_max(rows);
  parallel::parallel_for(0, rows, 64, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* row = data + i * cols;
      std::uint32_t zeros = 0, nonfinite = 0;
      float m = 0.0f;
      for (std::size_t j = 0; j < cols; ++j) {
        const float a = std::fabs(row[j]);
        zeros += (row[j] == 0.0f) ? 1u : 0u;
        // True for Inf and NaN; std::max below would drop a NaN.
        nonfinite += (a <= std::numeric_limits<float>::max()) ? 0u : 1u;
        m = std::max(m, a);
      }
      row_zeros[i] = zeros;
      row_max[i] = nonfinite != 0 ? std::numeric_limits<float>::infinity() : m;
      if (row_nonzero != nullptr)
        row_nonzero[i] = (zeros == cols) ? 0u : 1u;
    }
  });

  double max_abs = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    s.zero_elems += row_zeros[i];
    if (row_zeros[i] == cols) ++s.zero_rows;
    max_abs = std::max(max_abs, static_cast<double>(row_max[i]));
  }
  s.max_abs = std::max(max_abs, 1e-12);
  return s;
}

double threshold() {
  double t = threshold_override().load(std::memory_order_relaxed);
  if (t < 0.0) {
    t = env::env_double("RERAMDL_SPARSE_THRESHOLD", kDefaultThreshold, 0.0,
                        1.0);
    threshold_override().store(t, std::memory_order_relaxed);
  }
  return t;
}

void set_threshold(double t) {
  threshold_override().store(t < 0.0 ? -1.0 : std::min(t, 1.0),
                             std::memory_order_relaxed);
}

bool select_sparse(double zero_fraction) {
  const double t = threshold();
  return t > 0.0 && zero_fraction >= t;
}

void record_selection(double zero_fraction, bool sparse) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static obs::Histogram& fraction = reg.histogram("sparsity.fraction");
  static obs::Counter& sparse_calls = reg.counter("sparsity.sparse_calls");
  static obs::Counter& dense_calls = reg.counter("sparsity.dense_calls");
  fraction.record(zero_fraction * 100.0);
  (sparse ? sparse_calls : dense_calls).add();
}

void count_rows_skipped(std::uint64_t n) {
  if (n == 0 || !obs::metrics_enabled()) return;
  static obs::Counter& skipped =
      obs::Registry::instance().counter("sparsity.rows_skipped");
  skipped.add(n);
}

}  // namespace reramdl::sparsity
