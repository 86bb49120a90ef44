#include "device/quantizer.hpp"

#include "common/check.hpp"
#include "common/simd.hpp"

namespace reramdl::device {

namespace {

// Branch-free quantize() body, a free function so RERAMDL_TARGET_CLONES can
// multiversion it. Each step reproduces the scalar form exactly:
//   * the IEEE division by step (a reciprocal multiply rounds differently);
//   * std::clamp's comparisons, in its order, so -0.0 stays -0.0;
//   * llround as truncation plus a |frac| >= 0.5 step away from zero: the
//     clamped value is below 2^31 in magnitude, so the int32 conversion is
//     an exact truncation, frac = clamped - trunc is exact, and llround
//     rounds exactly when |frac| >= 0.5. Every level is an integer, so the
//     sums are exact and a zero level is +0.0, as double(llround(...)) is;
//   * the spike count as a SWAR popcount of |level| (< 2^31), which
//     vectorizes where std::popcount would keep the loop scalar.
// Only NaN differs (llround's result for it is unspecified); the crossbar
// hook rejects non-finite inputs before they get here.
RERAMDL_TARGET_CLONES
std::uint64_t quantize_kernel(const float* x, std::size_t n, double step,
                              double max_level, double* out) {
  std::uint64_t spikes = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double scaled = static_cast<double>(x[k]) / step;
    const double clamped = scaled < -max_level   ? -max_level
                           : max_level < scaled ? max_level
                                                : scaled;
    const std::int32_t t = static_cast<std::int32_t>(clamped);
    const double frac = clamped - static_cast<double>(t);
    const std::int32_t q =
        t + static_cast<std::int32_t>(frac >= 0.5) -
        static_cast<std::int32_t>(frac <= -0.5);
    out[k] = static_cast<double>(q);
    std::uint32_t v = static_cast<std::uint32_t>(q < 0 ? -q : q);
    v = v - ((v >> 1) & 0x55555555u);
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    v = (v + (v >> 4)) & 0x0f0f0f0fu;
    v = v + (v >> 8);
    v = (v + (v >> 16)) & 0x3fu;
    spikes += v;
  }
  return spikes;
}

}  // namespace

LinearQuantizer::LinearQuantizer(std::size_t bits, double max_abs)
    : bits_(bits),
      max_level_((std::int64_t{1} << bits) - 1),
      max_abs_(max_abs),
      step_(max_abs / static_cast<double>(max_level_)) {
  RERAMDL_CHECK_GE(bits, 1u);
  RERAMDL_CHECK_LE(bits, 31u);
  RERAMDL_CHECK_GT(max_abs, 0.0);
}

std::uint64_t LinearQuantizer::quantize_levels(const float* x, std::size_t n,
                                               double* out) const {
  return quantize_kernel(x, n, step_, static_cast<double>(max_level_), out);
}

std::vector<std::uint32_t> bit_slice(std::uint64_t magnitude,
                                     std::size_t bits_per_slice,
                                     std::size_t num_slices) {
  RERAMDL_CHECK_GE(bits_per_slice, 1u);
  RERAMDL_CHECK_LE(bits_per_slice * num_slices, 64u);
  const std::uint64_t mask = (std::uint64_t{1} << bits_per_slice) - 1;
  std::vector<std::uint32_t> slices(num_slices);
  for (std::size_t s = 0; s < num_slices; ++s)
    slices[s] = static_cast<std::uint32_t>((magnitude >> (s * bits_per_slice)) & mask);
  // The magnitude must fit in the available slices.
  RERAMDL_CHECK_EQ(magnitude >> (bits_per_slice * num_slices), 0u);
  return slices;
}

std::uint64_t bit_unslice(const std::vector<std::uint32_t>& slices,
                          std::size_t bits_per_slice) {
  std::uint64_t m = 0;
  for (std::size_t s = slices.size(); s > 0; --s)
    m = (m << bits_per_slice) | slices[s - 1];
  return m;
}

}  // namespace reramdl::device
