// Fixed-point quantization of weights and activations onto device levels.
//
// A signed weight of `total_bits` precision is represented as the difference
// of two unsigned magnitudes (positive / negative crossbar pair) and each
// magnitude is bit-sliced across total_bits / bits_per_cell cells, exactly
// the ISAAC-style composition PipeLayer adopts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace reramdl::device {

class LinearQuantizer {
 public:
  // Symmetric quantizer to integer magnitudes in [0, 2^bits - 1] with scale
  // `max_abs` (values saturate at the range edge).
  LinearQuantizer(std::size_t bits, double max_abs);

  std::size_t bits() const { return bits_; }
  std::int64_t max_level() const { return max_level_; }
  double max_abs() const { return max_abs_; }
  double step() const { return step_; }  // value represented by one level

  // value -> signed integer level in [-max_level, max_level]. Inline with a
  // step cached at construction: the batched crossbar path quantizes every
  // input element through this, so the per-call division-to-recompute-step
  // and the cross-TU call were measurable. The arithmetic is unchanged
  // (division by the identical precomputed double).
  std::int64_t quantize(double value) const {
    const double scaled = value / step_;
    const double clamped = std::clamp(scaled, -static_cast<double>(max_level_),
                                      static_cast<double>(max_level_));
    return static_cast<std::int64_t>(std::llround(clamped));
  }
  // quantize() over n values at once: out[k] = quantize(x[k]) as a double
  // for every non-NaN x[k], and the return value is the total popcount of
  // the level magnitudes (the spikes the drivers emit for them). One
  // vectorized routine serves every input-quantization site; see
  // quantizer.cpp for why it is bit-exact.
  std::uint64_t quantize_levels(const float* x, std::size_t n,
                                double* out) const;
  // signed integer level -> value.
  double dequantize(std::int64_t level) const {
    return static_cast<double>(level) * step_;
  }

 private:
  std::size_t bits_;
  std::int64_t max_level_;
  double max_abs_;
  double step_;
};

// Split an unsigned magnitude into little-endian slices of bits_per_slice
// bits each (slice 0 = least significant).
std::vector<std::uint32_t> bit_slice(std::uint64_t magnitude,
                                     std::size_t bits_per_slice,
                                     std::size_t num_slices);

// Reassemble slices into the magnitude.
std::uint64_t bit_unslice(const std::vector<std::uint32_t>& slices,
                          std::size_t bits_per_slice);

}  // namespace reramdl::device
