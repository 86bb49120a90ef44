// Sparsity-aware execution support (DESIGN.md §12).
//
// The paper's weighted-spike input encoding makes zero activations literally
// free in the arrays — a wordline that never fires costs no crossbar cycles
// — and ReLU-heavy nets routinely run at 50%+ activation sparsity. The host
// kernels exploit that through three pieces that live here:
//
//   * scan_rows: one fused traversal of an [rows, cols] activation matrix
//     producing the per-row nonzero bitmap, the zero-element fraction, and
//     the absolute max (the per-layer spike-driver range the crossbar
//     executor previously computed with its own separate pass), which also
//     flags non-finite elements. Parallelized over row blocks; every
//     reduction (integer sums, max) is association-insensitive, so the
//     result is exact for any RERAMDL_THREADS.
//   * a threshold policy choosing the dense or the zero-skipping kernel
//     variant per call: env-tunable RERAMDL_SPARSE_THRESHOLD in [0, 1]
//     (fraction of zero elements at or above which the sparse variant runs;
//     0 forces dense, the compiled-in default is 0.5). The dense path is
//     always kept as the oracle — every sparse variant is bit-identical to
//     it, so the selector is a pure performance decision.
//   * obs plumbing: a "sparsity.fraction" histogram (recorded in percent so
//     the log-scale buckets spread), sparse/dense selection counters, and
//     the "sparsity.rows_skipped" counter fed by the skipping kernels.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace reramdl::sparsity {

// Result of one fused scan over an [rows, cols] row-major float matrix.
struct ScanStats {
  std::size_t rows = 0, cols = 0;
  std::uint64_t zero_elems = 0;  // elements exactly == 0.0f
  std::uint64_t zero_rows = 0;   // rows with every element zero
  // max |x|, floored at 1e-12 so it is always a valid input range; +inf
  // when any element is non-finite (NaN included), so finite() needs no
  // second pass.
  double max_abs = 1e-12;

  bool finite() const { return std::isfinite(max_abs); }
  double zero_fraction() const {
    const std::uint64_t n = static_cast<std::uint64_t>(rows) * cols;
    return n == 0 ? 0.0
                  : static_cast<double>(zero_elems) / static_cast<double>(n);
  }
};

// Fused single-traversal scan. When row_nonzero is non-null it must have
// `rows` entries and receives 1 for rows with any nonzero element, else 0
// (the per-row bitmap the zero-skipping kernels consume). Allocation-free in
// steady state: per-row partials stage through the thread-local
// scratch::Buffer pools.
ScanStats scan_rows(const float* data, std::size_t rows, std::size_t cols,
                    std::uint8_t* row_nonzero = nullptr);

// Selector policy. threshold() lazily reads RERAMDL_SPARSE_THRESHOLD via the
// shared env helpers (invalid or out-of-[0,1] values warn once and fall back
// to the default); set_threshold overrides it programmatically (benches,
// tests) — pass a negative value to drop the override and re-read the
// environment on the next call.
double threshold();
void set_threshold(double t);

// True when the policy would run the zero-skipping variant for a call whose
// input has the given fraction of zero elements: threshold() > 0 and
// zero_fraction >= threshold() (a fraction exactly at the threshold selects
// sparse; threshold 0 disables sparse execution entirely).
bool select_sparse(double zero_fraction);

// Obs hooks (single relaxed load when metrics are disabled).
void record_selection(double zero_fraction, bool sparse);
void count_rows_skipped(std::uint64_t n);

}  // namespace reramdl::sparsity
