#include "core/regan.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/units.hpp"
#include "pipeline/analytic.hpp"

namespace reramdl::core {
namespace {

nn::NetworkSpec merge_specs(const nn::NetworkSpec& g, const nn::NetworkSpec& d) {
  nn::NetworkSpec merged;
  merged.name = g.name + "+" + d.name;
  merged.input_c = g.input_c;
  merged.input_h = g.input_h;
  merged.input_w = g.input_w;
  merged.layers = g.layers;
  merged.layers.insert(merged.layers.end(), d.layers.begin(), d.layers.end());
  return merged;
}

}  // namespace

ReGanAccelerator::ReGanAccelerator(nn::NetworkSpec generator,
                                   nn::NetworkSpec discriminator,
                                   AcceleratorConfig config)
    : generator_(std::move(generator)),
      discriminator_(std::move(discriminator)),
      config_(std::move(config)) {
  RERAMDL_CHECK_GT(generator_.weighted_layers(), 0u);
  RERAMDL_CHECK_GT(discriminator_.weighted_layers(), 0u);
  g_weighted_ = generator_.weighted_layers();
  mapping_ = mapping::plan_under_budget(merge_specs(generator_, discriminator_),
                                        config_.mapping_config(),
                                        config_.array_budget());
}

double ReGanAccelerator::activations_per_sample(bool generator) const {
  // Energy-weighted array activations. Fractional-strided convs run over the
  // zero-inserted input (Fig. 7a); the spike drivers emit no spikes for the
  // inserted zeros, so only ~1/stride^2 of each dilated vector draws dynamic
  // energy on the wordlines and bitlines.
  double acts = 0.0;
  for (std::size_t i = 0; i < mapping_.layers.size(); ++i) {
    const bool is_g = i < g_weighted_;
    if (is_g != generator) continue;
    const auto& l = mapping_.layers[i];
    double layer_acts = static_cast<double>(l.row_tiles * l.col_tiles) *
                        static_cast<double>(l.spec.vectors_per_sample());
    if (l.spec.kind == nn::LayerKind::kTransposedConv)
      layer_acts /= static_cast<double>(l.spec.stride * l.spec.stride);
    acts += layer_acts;
  }
  return acts;
}

double ReGanAccelerator::buffer_bytes_per_sample(bool generator) const {
  const auto& net = generator ? generator_ : discriminator_;
  double bytes = 0.0;
  for (const auto& l : net.layers)
    bytes += 2.0 * 4.0 * static_cast<double>(l.out_size());
  return bytes;
}

double ReGanAccelerator::programmed_cells(bool generator) const {
  const std::size_t slices =
      config_.weight_bits / config_.chip.cell.bits_per_cell;
  double cells = 0.0;
  for (std::size_t i = 0; i < mapping_.layers.size(); ++i) {
    const bool is_g = i < g_weighted_;
    if (is_g != generator) continue;
    cells += static_cast<double>(mapping_.layers[i].weight_cells());
  }
  return cells * static_cast<double>(slices) * 2.0;
}

std::size_t ReGanAccelerator::d_arrays() const {
  std::size_t n = 0;
  for (std::size_t i = g_weighted_; i < mapping_.layers.size(); ++i)
    n += mapping_.layers[i].arrays();
  return n;
}

std::size_t ReGanAccelerator::arrays_used(
    const pipeline::ReGanOptions& opts) const {
  std::size_t n = mapping_.total_arrays();
  if (opts.spatial_parallelism) n += d_arrays();  // duplicated D copy
  return n;
}

void ReGanAccelerator::book_training_energy(std::size_t n, std::size_t batch,
                                            const pipeline::ReGanOptions& opts,
                                            double time_s,
                                            arch::EnergyMeter& meter) const {
  const double dn = static_cast<double>(n);
  const auto& costs = config_.chip.costs;
  const double act_g = activations_per_sample(/*generator=*/true);
  const double act_d = activations_per_sample(/*generator=*/false);

  // Crossbar passes per training sample (fwd / err-bwd / weight-grad each
  // re-run a network's contractions):
  //   ① D fwd+bwd+wgrad        : 3 x D
  //   ② G fwd, D fwd+bwd+wgrad : 1 x G + 3 x D
  //   ③ fresh pass (no CS)     : 3 x G + 2 x D (D has no wgrad here)
  //   ③ shared pass (CS)       : 2 x G + 1 x D (forward reused from ②)
  const double g_passes = opts.computation_sharing ? 3.0 : 4.0;
  const double d_passes = opts.computation_sharing ? 7.0 : 8.0;
  meter.add("compute",
            dn * (g_passes * act_g + d_passes * act_d) *
                costs.array_compute_energy_pj);

  // Buffer subarrays hold inter-layer data; CS doubles the stored
  // intermediates (error + partial derivatives for both branches).
  const double buf = buffer_bytes_per_sample(true) + buffer_bytes_per_sample(false);
  const double cs_factor = opts.computation_sharing ? 2.0 : 1.0;
  meter.add("buffer", 2.0 * cs_factor * dn * buf *
                          costs.buffer_access_energy_pj_per_byte);

  // VBN sub+shift in the wordline drivers, per normalized element.
  double bn_elems = 0.0;
  for (const auto& l : generator_.layers)
    if (l.kind == nn::LayerKind::kBatchNorm)
      bn_elems += static_cast<double>(l.out_size());
  for (const auto& l : discriminator_.layers)
    if (l.kind == nn::LayerKind::kBatchNorm)
      bn_elems += static_cast<double>(l.out_size());
  meter.add("vbn", dn * bn_elems * costs.vbn_energy_pj);

  // One update of each network per batch.
  const double batches = dn / static_cast<double>(batch);
  const double per_cell =
      config_.chip.cell.program_energy_pj() + costs.update_driver_energy_pj;
  meter.add("update",
            batches * (programmed_cells(true) + programmed_cells(false)) *
                per_cell);

  meter.add("static", static_cast<double>(arrays_used(opts)) *
                          costs.array_static_power_w * time_s * units::kPjPerJ);
}

TimingReport ReGanAccelerator::training_report(
    std::size_t n, std::size_t batch,
    const pipeline::ReGanOptions& opts) const {
  RERAMDL_CHECK_GT(n, 0u);
  RERAMDL_CHECK_GT(batch, 0u);
  RERAMDL_CHECK_EQ(n % batch, 0u);

  TimingReport r;
  r.stage_steps = mapping_.stage_steps();
  // As in PipeLayer, a pipeline cycle covers the slowest stage's array
  // activations and the buffering of that stage's activations (the buffer
  // subarrays' private ports carry this traffic in ReGAN).
  double max_layer_bytes = 0.0;
  for (const auto* net : {&generator_, &discriminator_})
    for (const auto& l : net->layers)
      max_layer_bytes = std::max(
          max_layer_bytes, 4.0 * static_cast<double>(l.out_size()));
  const double compute_ns = static_cast<double>(r.stage_steps) *
                            config_.chip.costs.array_compute_latency_ns;
  const double transfer_ns =
      max_layer_bytes / config_.chip.costs.internal_bandwidth_bytes_per_ns;
  r.cycle_ns = std::max(compute_ns, transfer_ns);
  r.arrays_used = arrays_used(opts);
  const auto& costs = config_.chip.costs;
  r.area_mm2 = static_cast<double>(r.arrays_used) * costs.array_area_mm2 +
               static_cast<double>(config_.chip.banks) * costs.bank_control_area_mm2;

  const pipeline::GanShape shape{l_d(), l_g(), batch};
  // Batches do not overlap (both weight updates gate the next batch), so
  // the total is additive; the event sim in pipeline/sim proves each
  // closed form cycle-for-cycle in the tests.
  r.pipeline_cycles = (n / batch) * pipeline::regan_batch_cycles(shape, opts);
  r.time_s = static_cast<double>(r.pipeline_cycles) * r.cycle_ns / units::kNsPerS;

  arch::EnergyMeter meter;
  book_training_energy(n, batch, opts, r.time_s, meter);
  r.energy_j = meter.total_pj() / units::kPjPerJ;
  r.power_w = r.energy_j / r.time_s;
  r.throughput_sps = static_cast<double>(n) / r.time_s;
  return r;
}

TimingReport ReGanAccelerator::training_report_unpipelined(
    std::size_t n, std::size_t batch) const {
  const pipeline::ReGanOptions no_opts{false, false};
  TimingReport r = training_report(n, batch, no_opts);
  const pipeline::GanShape shape{l_d(), l_g(), batch};
  r.pipeline_cycles = (n / batch) *
                      pipeline::regan_batch_cycles_unpipelined(shape);
  r.time_s = static_cast<double>(r.pipeline_cycles) * r.cycle_ns / units::kNsPerS;
  // Work is identical; only the schedule stretches, so recompute the
  // time-dependent pieces.
  arch::EnergyMeter meter;
  book_training_energy(n, batch, no_opts, r.time_s, meter);
  r.energy_j = meter.total_pj() / units::kPjPerJ;
  r.power_w = r.energy_j / r.time_s;
  r.throughput_sps = static_cast<double>(n) / r.time_s;
  return r;
}

arch::EnergyMeter ReGanAccelerator::training_energy_breakdown(
    std::size_t n, std::size_t batch,
    const pipeline::ReGanOptions& opts) const {
  const TimingReport r = training_report(n, batch, opts);
  arch::EnergyMeter meter;
  book_training_energy(n, batch, opts, r.time_s, meter);
  return meter;
}

}  // namespace reramdl::core
