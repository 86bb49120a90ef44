#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "common/simd.hpp"
#include "obs/obs.hpp"

namespace reramdl::ops {

namespace {

// Shared per-variant instrumentation: call counter, flop counter (2*m*k*n
// multiply-adds), and a latency histogram via the returned timer. The
// disabled path is one relaxed load plus the timer's.
void obs_count_matmul(const char* variant, std::size_t m, std::size_t k,
                      std::size_t n) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static obs::Counter& calls = reg.counter("ops.matmul.calls");
  static obs::Counter& flops = reg.counter("ops.matmul.flops");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2) * m * k * n);
  reg.counter(std::string("ops.") + variant + ".calls").add();
}

// Cache-blocking parameters shared by the matmul variants. The M x N output
// is tiled; each (row-block, col-block) tile accumulates over K in panels
// through a local double buffer, so every product sums in double in a fixed
// k-ascending order — bit-identical for any thread count, since the
// row-block decomposition depends only on the shapes.
constexpr std::size_t kBlockM = 32;
constexpr std::size_t kBlockN = 128;
constexpr std::size_t kBlockK = 256;

// Row-block bodies of the blocked kernels, extracted into free functions so
// RERAMDL_TARGET_CLONES can vectorize them with runtime CPU dispatch. The
// loop structure (and so the FP sequence of every output element) is
// identical across clones; only the lane width differs.
RERAMDL_TARGET_CLONES
void matmul_row_block(const float* pa, const float* pb, float* pc,
                      std::size_t i0, std::size_t i1, std::size_t k,
                      std::size_t n, double* acc) {
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::size_t j1 = std::min(j0 + kBlockN, n);
    const std::size_t bn = j1 - j0;
    std::fill(acc, acc + (i1 - i0) * bn, 0.0);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, k);
      for (std::size_t i = i0; i < i1; ++i) {
        double* arow = acc + (i - i0) * bn;
        for (std::size_t p = p0; p < p1; ++p) {
          const double av = pa[i * k + p];
          if (av == 0.0) continue;
          const float* brow = pb + p * n + j0;
          for (std::size_t j = 0; j < bn; ++j) arow[j] += av * brow[j];
        }
      }
    }
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = acc + (i - i0) * bn;
      float* crow = pc + i * n + j0;
      for (std::size_t j = 0; j < bn; ++j) crow[j] = static_cast<float>(arow[j]);
    }
  }
}

void matmul_kernel(const float* pa, const float* pb, float* pc, std::size_t m,
                   std::size_t k, std::size_t n) {
  parallel::parallel_for(0, m, kBlockM, [&](std::size_t i0, std::size_t i1) {
    // Thread-local scratch: the accumulator panel is reused across calls on
    // each worker instead of heap-allocated per row block.
    scratch::Buffer<double> acc(kBlockM * kBlockN);
    matmul_row_block(pa, pb, pc, i0, i1, k, n, acc.data());
  });
}

RERAMDL_TARGET_CLONES
void mm_tb_packed_row_block(const float* pa, const float* pbt, float* pc,
                            std::size_t i0, std::size_t i1, std::size_t k,
                            std::size_t n, double* acc) {
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::size_t j1 = std::min(j0 + kBlockN, n);
    const std::size_t bn = j1 - j0;
    std::fill(acc, acc + (i1 - i0) * bn, 0.0);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, k);
      for (std::size_t i = i0; i < i1; ++i) {
        double* arow = acc + (i - i0) * bn;
        for (std::size_t p = p0; p < p1; ++p) {
          const double av = pa[i * k + p];
          const float* btrow = pbt + p * n + j0;
          for (std::size_t j = 0; j < bn; ++j) arow[j] += av * btrow[j];
        }
      }
    }
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = acc + (i - i0) * bn;
      float* crow = pc + i * n + j0;
      for (std::size_t j = 0; j < bn; ++j) crow[j] = static_cast<float>(arow[j]);
    }
  }
}

// C = A^T B (the dW GEMM) runs as output panels of at most kTaPanelK x
// kTaPanelN, one work item each. A panel walks the m reduction rows in
// passes of kTaPassRows (the pass's A and B strips stay in L1 across the
// panel's register tiles) and holds a kTaTileK x kTaTileN tile of sums in
// registers through each pass. Every output element still sums its whole
// reduction in one i-ascending double accumulation.
constexpr std::size_t kTaTileK = 4;
constexpr std::size_t kTaTileN = 8;
constexpr std::size_t kTaPanelK = 32;
constexpr std::size_t kTaPanelN = 64;
constexpr std::size_t kTaPassRows = 128;
// Panels narrow (down to one register tile of rows) until there are at
// least this many, so conv1's 25 x 8 dW spreads over the pool. It is a
// shape rule only: the panels of a given (k, n) are the same for every pool
// width.
constexpr std::size_t kTaMinPanels = 8;

// One register tile's pass over rows [i0, i1): acc holds the tile's tk x tn
// running sums at row stride ldacc. kSkipZeroA drops the products of zero A
// elements, as the scalar loop this replaces did; without it they are
// added, which is a bitwise no-op unless the B element is Inf or NaN.
//
// Full kTaTileK x kTaTileN tiles are written with GCC vector types, so the
// sums stay in registers and the loop vectorizer leaves the i loop alone
// (GCC 12 vectorized the scalar form across i with loads past the last row
// of A). Edge tiles loop to tk and tn; their inner j loop is the one that
// vectorizes.
using V4d = double __attribute__((vector_size(32)));
using V4f = float __attribute__((vector_size(16)));
static_assert(kTaTileN == 8, "the full tile holds each row in two V4d");

template <bool kSkipZeroA>
inline __attribute__((always_inline)) void mm_ta_full_tile(
    const float* pa, const float* pb, std::size_t i0, std::size_t i1,
    std::size_t k, std::size_t n, double* acc, std::size_t ldacc) {
  V4d t[kTaTileK][2];
  for (std::size_t p = 0; p < kTaTileK; ++p) {
    std::memcpy(&t[p][0], acc + p * ldacc, sizeof(V4d));
    std::memcpy(&t[p][1], acc + p * ldacc + 4, sizeof(V4d));
  }
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    V4f lo, hi;
    std::memcpy(&lo, pb + i * n, sizeof(V4f));
    std::memcpy(&hi, pb + i * n + 4, sizeof(V4f));
    const V4d b0 = __builtin_convertvector(lo, V4d);
    const V4d b1 = __builtin_convertvector(hi, V4d);
    for (std::size_t p = 0; p < kTaTileK; ++p) {
      const double av = arow[p];
      if (kSkipZeroA && av == 0.0) continue;
      t[p][0] += av * b0;
      t[p][1] += av * b1;
    }
  }
  for (std::size_t p = 0; p < kTaTileK; ++p) {
    std::memcpy(acc + p * ldacc, &t[p][0], sizeof(V4d));
    std::memcpy(acc + p * ldacc + 4, &t[p][1], sizeof(V4d));
  }
}

template <bool kSkipZeroA>
inline __attribute__((always_inline)) void mm_ta_edge_tile(
    const float* pa, const float* pb, std::size_t i0, std::size_t i1,
    std::size_t k, std::size_t n, std::size_t tk, std::size_t tn, double* acc,
    std::size_t ldacc) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::size_t p = 0; p < tk; ++p) {
      const double av = arow[p];
      if (kSkipZeroA && av == 0.0) continue;
      double* trow = acc + p * ldacc;
      for (std::size_t j = 0; j < tn; ++j) trow[j] += av * brow[j];
    }
  }
}

template <bool kSkipZeroA>
inline __attribute__((always_inline)) void mm_ta_panel_sums(
    const float* pa, const float* pb, std::size_t m, std::size_t k,
    std::size_t n, std::size_t p0, std::size_t p1, std::size_t j0,
    std::size_t j1, double* acc) {
  const std::size_t bn = j1 - j0;
  std::fill(acc, acc + (p1 - p0) * bn, 0.0);
  for (std::size_t i0 = 0; i0 < m; i0 += kTaPassRows) {
    const std::size_t i1 = std::min(i0 + kTaPassRows, m);
    for (std::size_t p = p0; p < p1; p += kTaTileK) {
      const std::size_t tk = std::min(kTaTileK, p1 - p);
      for (std::size_t j = j0; j < j1; j += kTaTileN) {
        const std::size_t tn = std::min(kTaTileN, j1 - j);
        double* tacc = acc + (p - p0) * bn + (j - j0);
        if (tk == kTaTileK && tn == kTaTileN)
          mm_ta_full_tile<kSkipZeroA>(pa + p, pb + j, i0, i1, k, n, tacc, bn);
        else
          mm_ta_edge_tile<kSkipZeroA>(pa + p, pb + j, i0, i1, k, n, tk, tn,
                                      tacc, bn);
      }
    }
  }
}

RERAMDL_TARGET_CLONES
void mm_ta_panel(const float* pa, const float* pb, float* pc, std::size_t m,
                 std::size_t k, std::size_t n, std::size_t p0, std::size_t p1,
                 std::size_t j0, std::size_t j1, bool accumulate,
                 double* acc) {
  const std::size_t bn = j1 - j0;
  mm_ta_panel_sums<false>(pa, pb, m, k, n, p0, p1, j0, j1, acc);
  // An added 0 * Inf or 0 * NaN product turns its sum into NaN for good, so
  // a panel with no NaN sum equals the zero-skipping loop bit for bit; only
  // a panel with one is redone with the skip.
  if (std::any_of(acc, acc + (p1 - p0) * bn,
                  [](double v) { return std::isnan(v); }))
    mm_ta_panel_sums<true>(pa, pb, m, k, n, p0, p1, j0, j1, acc);
  for (std::size_t p = p0; p < p1; ++p) {
    const double* arow = acc + (p - p0) * bn;
    float* crow = pc + p * n + j0;
    if (accumulate)
      for (std::size_t j = 0; j < bn; ++j)
        crow[j] += static_cast<float>(arow[j]);
    else
      for (std::size_t j = 0; j < bn; ++j)
        crow[j] = static_cast<float>(arow[j]);
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(a, b, c);
  return c;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c) {
  RERAMDL_CHECK_EQ(a.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(b.shape().rank(), 2u);
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  RERAMDL_CHECK_EQ(b.shape()[0], k);
  RERAMDL_TRACE_SCOPE("ops.matmul", "tensor");
  obs::ScopedHistogramTimer obs_timer("ops.matmul_ns");
  obs_count_matmul("matmul", m, k, n);
  c.reuse(Shape{m, n});
  matmul_kernel(a.data(), b.data(), c.data(), m, k, n);
}

Tensor matmul_transposed_b(const Tensor& a, const Tensor& b) {
  RERAMDL_CHECK_EQ(a.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(b.shape().rank(), 2u);
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[0];
  RERAMDL_CHECK_EQ(b.shape()[1], k);
  RERAMDL_TRACE_SCOPE("ops.matmul_transposed_b", "tensor");
  obs::ScopedHistogramTimer obs_timer("ops.matmul_ns");
  obs_count_matmul("matmul_transposed_b", m, k, n);
  Tensor c(Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Both operands are traversed along contiguous k-rows; blocking over j
  // keeps a panel of B rows hot while a row block of A streams through.
  parallel::parallel_for(0, m, kBlockM, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
      const std::size_t j1 = std::min(j0 + kBlockN, n);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* arow = pa + i * k;
        for (std::size_t j = j0; j < j1; ++j) {
          const float* brow = pb + j * k;
          double dot = 0.0;
          for (std::size_t p = 0; p < k; ++p)
            dot += static_cast<double>(arow[p]) * brow[p];
          pc[i * n + j] = static_cast<float>(dot);
        }
      }
    }
  });
  return c;
}

void matmul_transposed_b_packed_into(const Tensor& a, const Tensor& bt,
                                     Tensor& c) {
  RERAMDL_CHECK_EQ(a.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(bt.shape().rank(), 2u);
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = bt.shape()[1];
  RERAMDL_CHECK_EQ(bt.shape()[0], k);
  RERAMDL_TRACE_SCOPE("ops.matmul_transposed_b_packed", "tensor");
  obs::ScopedHistogramTimer obs_timer("ops.matmul_ns");
  obs_count_matmul("matmul_transposed_b_packed", m, k, n);
  c.reuse(Shape{m, n});
  const float* pa = a.data();
  const float* pbt = bt.data();
  float* pc = c.data();
  // Same shape as matmul_kernel, but no elementwise zero-skip branch: the
  // dot form this replaces sums every k-term. The k-ascending double accumulation per output element reproduces
  // the dot form's FP sequence exactly.
  parallel::parallel_for(0, m, kBlockM, [&](std::size_t i0, std::size_t i1) {
    scratch::Buffer<double> acc(kBlockM * kBlockN);
    mm_tb_packed_row_block(pa, pbt, pc, i0, i1, k, n, acc.data());
  });
}

Tensor matmul_transposed_b_packed(const Tensor& a, const Tensor& bt) {
  Tensor c;
  matmul_transposed_b_packed_into(a, bt, c);
  return c;
}

namespace {

// Shared core of matmul_transposed_a and its accumulate form; the only
// difference is the final panel store (= vs +=), which matches composing
// the allocating variant with Tensor::operator+= bit-for-bit.
void mm_ta_impl(const Tensor& a, const Tensor& b, float* pc, bool accumulate) {
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  const float* pa = a.data();
  const float* pb = b.data();
  // Work items are (k-panel x n-panel) output panels, sized from the shapes
  // alone: panels narrow (down to one register tile of rows) until there
  // are kTaMinPanels of them, so a small-k dW still fills the pool. Each
  // output element belongs to one panel and sums its full i-ascending
  // reduction there — the reduction is never split — so the result is
  // bit-identical for any pool width.
  if (k == 0 || n == 0) return;  // an empty C
  const std::size_t n_panels = (n + kTaPanelN - 1) / kTaPanelN;
  const std::size_t want_k = (kTaMinPanels + n_panels - 1) / n_panels;
  std::size_t panel_k = (k + want_k - 1) / want_k;
  panel_k = (panel_k + kTaTileK - 1) / kTaTileK * kTaTileK;
  panel_k = std::clamp(panel_k, kTaTileK, kTaPanelK);
  const std::size_t k_panels = (k + panel_k - 1) / panel_k;
  parallel::parallel_for(0, k_panels * n_panels, 1, [&](std::size_t w0,
                                                        std::size_t w1) {
    scratch::Buffer<double> acc(kTaPanelK * kTaPanelN);
    for (std::size_t w = w0; w < w1; ++w) {
      const std::size_t p0 = (w / n_panels) * panel_k;
      const std::size_t j0 = (w % n_panels) * kTaPanelN;
      mm_ta_panel(pa, pb, pc, m, k, n, p0, std::min(p0 + panel_k, k), j0,
                  std::min(j0 + kTaPanelN, n), accumulate, acc.data());
    }
  });
}

}  // namespace

Tensor matmul_transposed_a(const Tensor& a, const Tensor& b) {
  RERAMDL_CHECK_EQ(a.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(b.shape().rank(), 2u);
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  RERAMDL_CHECK_EQ(b.shape()[0], m);
  RERAMDL_TRACE_SCOPE("ops.matmul_transposed_a", "tensor");
  obs::ScopedHistogramTimer obs_timer("ops.matmul_ns");
  obs_count_matmul("matmul_transposed_a", m, k, n);
  Tensor c(Shape{k, n});
  mm_ta_impl(a, b, c.data(), /*accumulate=*/false);
  return c;
}

void matmul_transposed_a_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  RERAMDL_CHECK_EQ(a.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(b.shape().rank(), 2u);
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  RERAMDL_CHECK_EQ(b.shape()[0], m);
  RERAMDL_CHECK_EQ(c.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(c.shape()[0], k);
  RERAMDL_CHECK_EQ(c.shape()[1], n);
  RERAMDL_TRACE_SCOPE("ops.matmul_transposed_a", "tensor");
  obs::ScopedHistogramTimer obs_timer("ops.matmul_ns");
  obs_count_matmul("matmul_transposed_a", m, k, n);
  mm_ta_impl(a, b, c.data(), /*accumulate=*/true);
}

void add_row_bias(Tensor& x, const Tensor& bias) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(bias.shape().rank(), 1u);
  const std::size_t m = x.shape()[0], n = x.shape()[1];
  RERAMDL_CHECK_EQ(bias.shape()[0], n);
  float* px = x.data();
  const float* pb = bias.data();
  parallel::parallel_for(0, m, 64, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      for (std::size_t j = 0; j < n; ++j) px[i * n + j] += pb[j];
  });
}

Tensor column_sums(const Tensor& x) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 2u);
  const std::size_t m = x.shape()[0], n = x.shape()[1];
  Tensor s(Shape{n});
  const float* px = x.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) s[j] += px[i * n + j];
  return s;
}

void column_sums_acc(const Tensor& x, Tensor& acc) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 2u);
  const std::size_t m = x.shape()[0], n = x.shape()[1];
  RERAMDL_CHECK_EQ(acc.shape().rank(), 1u);
  RERAMDL_CHECK_EQ(acc.shape()[0], n);
  // Sum into a zeroed scratch panel in the same i-ascending float order as
  // column_sums, then fold into acc — the exact FP sequence of
  // acc += column_sums(x), without the temporary Tensor.
  scratch::Buffer<float> s(n);
  std::fill(s.begin(), s.end(), 0.0f);
  const float* px = x.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) s[j] += px[i * n + j];
  float* pa = acc.data();
  for (std::size_t j = 0; j < n; ++j) pa[j] += s[j];
}

double input_range(const Tensor& x) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 2u);
  const std::size_t m = x.shape()[0], k = x.shape()[1];
  // Per-row float maxima from independent row-block chunks, folded serially
  // in double below.
  // |x| compared as its bit pattern: for non-negative floats the integer
  // order is the float order, and Inf and every NaN sort above all finite
  // values, so one integer max both finds the range and flags them. Unlike
  // a float compare (which may trap, so GCC keeps its branch), it
  // vectorizes.
  constexpr std::uint32_t kInfBits = 0x7f800000u;
  scratch::Buffer<float> row_max(m);
  const float* px = x.data();
  parallel::parallel_for(0, m, 64, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* row = px + i * k;
      std::uint32_t r = 0;
      for (std::size_t j = 0; j < k; ++j)
        r = std::max(r, std::bit_cast<std::uint32_t>(row[j]) & 0x7fffffffu);
      row_max[i] = r < kInfBits ? std::bit_cast<float>(r)
                                : std::numeric_limits<float>::infinity();
    }
  });
  double range = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    range = std::max(range, static_cast<double>(row_max[i]));
  return std::max(range, 1e-12);
}

Tensor transpose(const Tensor& x) {
  Tensor t;
  transpose_into(x, t);
  return t;
}

void transpose_into(const Tensor& x, Tensor& out) {
  RERAMDL_CHECK_EQ(x.shape().rank(), 2u);
  const std::size_t m = x.shape()[0], n = x.shape()[1];
  out.reuse(Shape{n, m});
  const float* px = x.data();
  float* pt = out.data();
  parallel::parallel_for(0, m, 64, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      for (std::size_t j = 0; j < n; ++j) pt[j * m + i] = px[i * n + j];
  });
}

}  // namespace reramdl::ops
