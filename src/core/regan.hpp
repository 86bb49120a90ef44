// ReGAN: the ReRAM PIM accelerator for GAN training (paper Sec. III-B).
// Maps the generator and discriminator onto FF subarrays, runs the
// three-phase training pipeline of Fig. 8, and applies the spatial-
// parallelism / computation-sharing optimizations of Fig. 9.
#pragma once

#include "arch/energy.hpp"
#include "core/accelerator_config.hpp"
#include "mapping/planner.hpp"
#include "nn/layer_spec.hpp"
#include "pipeline/analytic.hpp"

namespace reramdl::core {

class ReGanAccelerator {
 public:
  ReGanAccelerator(nn::NetworkSpec generator, nn::NetworkSpec discriminator,
                   AcceleratorConfig config);

  std::size_t l_g() const { return generator_.weighted_layers(); }
  std::size_t l_d() const { return discriminator_.weighted_layers(); }
  const mapping::NetworkMapping& network_mapping() const { return mapping_; }

  TimingReport training_report(std::size_t n, std::size_t batch,
                               const pipeline::ReGanOptions& opts) const;

  // Same hardware without the training pipeline: every sample's phase
  // completes before the next enters ((4L_D+L_G+2)B + (2L_D+2L_G+1)B cycles
  // per batch) — the "without the training pipeline" baseline of
  // Sec. III-B-2.
  TimingReport training_report_unpipelined(std::size_t n,
                                           std::size_t batch) const;

  arch::EnergyMeter training_energy_breakdown(
      std::size_t n, std::size_t batch,
      const pipeline::ReGanOptions& opts) const;

 private:
  double activations_per_sample(bool generator) const;
  double buffer_bytes_per_sample(bool generator) const;
  double programmed_cells(bool generator) const;
  std::size_t arrays_used(const pipeline::ReGanOptions& opts) const;
  std::size_t d_arrays() const;
  void book_training_energy(std::size_t n, std::size_t batch,
                            const pipeline::ReGanOptions& opts, double time_s,
                            arch::EnergyMeter& meter) const;

  nn::NetworkSpec generator_, discriminator_;
  AcceleratorConfig config_;
  // Combined mapping: generator's weighted layers first, then the
  // discriminator's.
  mapping::NetworkMapping mapping_;
  std::size_t g_weighted_ = 0;
};

}  // namespace reramdl::core
