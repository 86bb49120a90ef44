// Dense linear-algebra kernels for the NN library. These are the float
// reference implementations; the crossbar path in src/circuit computes the
// same contractions through quantized conductances.
//
// All three matmul variants are cache-blocked (M x N tiles with a K-panel
// inner kernel), accumulate partial products in double, and parallelize over
// output row blocks via common/parallel.hpp. Results are bit-identical for
// every RERAMDL_THREADS setting: the block decomposition depends only on the
// shapes and each block sums in a fixed k-ascending order.
//
// The `_into` / `_acc` variants are the workspace-arena forms used by the
// training-step fast path (tensor/workspace.hpp): identical kernels, but the
// result lands in (or accumulates into) a caller-owned tensor instead of a
// fresh allocation. Each is bit-identical to composing its allocating
// counterpart with `=` / `+=`.
#pragma once

#include "tensor/tensor.hpp"

namespace reramdl::ops {

// C[m,n] = A[m,k] * B[k,n]
Tensor matmul(const Tensor& a, const Tensor& b);
// As matmul, but writes into `c` (re-shaped via Tensor::reuse).
void matmul_into(const Tensor& a, const Tensor& b, Tensor& c);

// C[m,n] = A[m,k] * B[n,k]^T
Tensor matmul_transposed_b(const Tensor& a, const Tensor& b);

// C[m,n] = A[m,k] * BT[k,n] with matmul_transposed_b's accumulation
// semantics: per output element the k-products sum in double, k-ascending,
// with no zero-skip. Given bt = transpose(b) the result is bit-identical to
// matmul_transposed_b(a, b), but the axpy panel form vectorizes where the
// dot form is a serial FP reduction. Used by the backward fast path with a
// cached transposed-weight panel.
void matmul_transposed_b_packed_into(const Tensor& a, const Tensor& bt,
                                     Tensor& c);
Tensor matmul_transposed_b_packed(const Tensor& a, const Tensor& bt);

// C[k,n] = A[m,k]^T * B[m,n]
Tensor matmul_transposed_a(const Tensor& a, const Tensor& b);
// C[k,n] += A[m,k]^T * B[m,n]; bit-identical to c += matmul_transposed_a(a, b)
// without materializing the temporary (gradient accumulation fast path).
void matmul_transposed_a_acc(const Tensor& a, const Tensor& b, Tensor& c);

// y[m,n] = x[m,n] + bias[n] broadcast over rows.
void add_row_bias(Tensor& x, const Tensor& bias);

// Column-wise sum of a [m,n] matrix -> [n].
Tensor column_sums(const Tensor& x);
// acc[n] += column_sums(x); bit-identical to acc += column_sums(x).
void column_sums_acc(const Tensor& x, Tensor& acc);

// Spike-driver input range of a [m,k] matrix: max |x| floored at 1e-12, or
// +inf when any element is Inf or NaN, so one pass both sizes the range and
// flags input no crossbar can quantize. Parallel over row blocks; max is
// association-insensitive, so the result is exact for any RERAMDL_THREADS.
double input_range(const Tensor& x);

Tensor transpose(const Tensor& x);  // [m,n] -> [n,m]
// As transpose, but writes into `out` (re-shaped via Tensor::reuse).
void transpose_into(const Tensor& x, Tensor& out);

}  // namespace reramdl::ops
