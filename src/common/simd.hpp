#pragma once

// RERAMDL_TARGET_CLONES: GCC function multiversioning for hot numeric
// kernels. The repo builds for baseline x86-64 so binaries stay portable;
// annotated functions additionally get AVX2 / x86-64-v3 / AVX-512
// (x86-64-v4) clones selected once at load time via ifunc. This is bit-exact
// by construction for our kernels: each output element is an independent
// k-ascending double accumulation, so vectorizing across output lanes never
// reorders any sum, and FMA contraction cannot change results because a
// float*float product is exactly representable in double (24+24 mantissa
// bits < 53). The v4 tier widens lanes to 512 bits; lane width cannot
// change per-element rounding for the same reason.
//
// Disabled under sanitizers (ifunc dispatch confuses their interceptors) and
// on non-GCC / non-x86-64 toolchains, where it expands to nothing and the
// portable loop is used as-is.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define RERAMDL_TARGET_CLONES                                   \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v3", \
                               "arch=x86-64-v4")))
#else
#define RERAMDL_TARGET_CLONES
#endif
