// Spike driver (PipeLayer component (a)): converts a digital input value to
// the weighted spike train driven onto a wordline, and serves as the write
// driver during weight updates. The weighted spike coding scheme sends one
// spike phase per input bit with significance 2^b, so an n-bit input needs n
// phases instead of 2^n unary spikes.
#pragma once

#include <cstdint>
#include <vector>

#include "device/quantizer.hpp"

namespace reramdl::circuit {

struct SpikeTrain {
  bool negative = false;                // drive phase polarity
  std::vector<std::uint8_t> bits;       // bits[b] = spike present in phase b
  std::size_t spike_count() const;
};

class SpikeDriver {
 public:
  SpikeDriver(std::size_t input_bits, double x_max);

  // Encode a value into its weighted spike train.
  SpikeTrain encode(double value) const;
  // Reconstruct the value represented by a spike train (driver DAC inverse;
  // used in tests to show encode is lossless up to quantization).
  double decode(const SpikeTrain& train) const;

  // Modeled dynamic drive energy for one train: each '1' phase costs one
  // spike's wordline charge; phases without a spike drive nothing, so a
  // zero input costs exactly zero (Sec. II-B). Default per-spike cost is a
  // 1-bit DAC drive in the ISAAC/PipeLayer energy regime; the arch layer
  // books array activation and static power separately.
  static constexpr double kDefaultSpikePj = 0.0039;
  double drive_energy_pj(const SpikeTrain& train,
                         double pj_per_spike = kDefaultSpikePj) const;

  std::size_t input_bits() const { return input_bits_; }
  const device::LinearQuantizer& quantizer() const { return quantizer_; }

 private:
  std::size_t input_bits_;
  device::LinearQuantizer quantizer_;
};

}  // namespace reramdl::circuit
