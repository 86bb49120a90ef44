// A single ReRAM crossbar array (paper Fig. 3b).
//
// The matrix is programmed into cell conductances; input vectors arrive as
// weighted spike trains on the wordlines; bitline currents are integrated by
// I&F circuits and counted, producing digital partial results that a
// shift-and-add tree recombines across weight bit-slices and input bits.
//
// Signed values are realized structurally:
//   * weights: a differential pair of arrays (positive / negative magnitudes,
//     merged by the subtractor — ReGAN Fig. 10-B);
//   * weight precision: weight_bits total, bit-sliced over
//     weight_bits / bits_per_cell cells per polarity (ISAAC-style);
//   * inputs: input_bits magnitude driven bit-serially by the spike driver,
//     sign handled in a separate drive phase.
//
// One compute entry point, compute_batch, evaluates a block of input rows
// in one of two modes that produce identical results when no I&F counter
// saturates (asserted by property tests): a fast integer kernel, and an
// exact bit-serial emulation (config().bit_serial) that models every spike
// cycle and counter clamp.
//
// The fast kernel evaluates against a *collapsed* effective differential
// weight matrix precomputed at program() time,
//   W_eff[i,j] = sum_s 2^(s*bpc) * (pos_s[i,j] - neg_s[i,j]),
// each element accumulated in slice-ascending order — algebraically and
// bit-for-bit what a per-MVM walk over the stored slice levels produces
// (the test oracle keeps that walk). W_eff is rebuilt whenever the stored
// levels change (program / apply_drift). compute_batch quantizes each block
// of rows once and runs a cache-blocked kernel whose per-row accumulation
// order is independent of the block, so a batch and m one-row calls are
// bit-identical.
// Fault tolerance: programming runs through an optional write-verify loop
// (read back each cell, re-program with a nudged target up to
// max_program_retries, mark cells that never converge as defective), and
// logical columns containing unrepairable cells can be remapped onto spare
// bitlines reserved by CrossbarConfig::spare_cols. Stored levels are kept in
// *logical* column layout regardless of which physical bitline backs them,
// so both compute modes are untouched by remapping — the fault-free path
// stays bit-identical to a crossbar with no fault machinery configured.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "device/fault_map.hpp"
#include "device/quantizer.hpp"
#include "device/reram_cell.hpp"
#include "device/variation.hpp"
#include "tensor/tensor.hpp"

namespace reramdl::circuit {

struct CrossbarConfig {
  std::size_t rows = 128;
  std::size_t cols = 128;
  std::size_t weight_bits = 16;  // magnitude bits per polarity
  std::size_t input_bits = 8;    // magnitude bits
  std::size_t counter_bits = 16; // I&F output counter width
  bool bit_serial = false;       // exact spike-level emulation
  // Bitlines reserved as remap targets for columns with unrepairable cells;
  // the usable data width is data_cols() = cols - spare_cols.
  std::size_t spare_cols = 0;
  device::CellParams cell;

  std::size_t slices() const;  // weight_bits / bits_per_cell (exact multiple)
  std::size_t data_cols() const { return cols - spare_cols; }
};

// What to do with a column whose defective cells could not be remapped (no
// write-verify to find a spare for them, or spares exhausted).
enum class DegradePolicy : unsigned char {
  kFailFast,    // throw CheckError: treat the array as unusable
  kClamp,       // mask known-defective cells to zero contribution (the
                // peripheral subtractor gates them out), bounding the error
  kBestEffort,  // compute with the faulty levels as-is
};

// Programming-time options: non-idealities to apply and the active
// resilience (write-verify / redundancy) responding to them. The default
// options reproduce the historical program(weights, w_max) behavior exactly.
struct ProgramOptions {
  device::VariationModel* variation = nullptr;
  // Fault population; !faults.enabled() means no injected faults.
  device::FaultMapParams faults;
  // Closed-loop program-and-verify: read back each programmed cell and
  // re-program with a compensated target while |readback - target| exceeds
  // verify_tolerance (in level units), up to max_program_retries retries.
  bool write_verify = false;
  std::size_t max_program_retries = 3;
  double verify_tolerance = 0.49;  // just under half an LSB
  // A cell is defective (unrepairable) when its best achieved error still
  // exceeds this after all retries; <= 0 selects slice_max / 4 (an error
  // clearly beyond programming noise — a stuck or dead cell).
  double defect_threshold = 0.0;
  DegradePolicy degrade = DegradePolicy::kBestEffort;
};

// Point-in-time condition report for one array (the scrub/refresh inputs of
// the maintenance engine, maint/engine.hpp): unlike CrossbarStats — which
// accumulates across reprogramming passes — every field here describes the
// *current* programmed state.
struct CrossbarHealth {
  std::uint64_t stuck_cells = 0;      // stuck-at faults in the active region
  std::uint64_t defective_cells = 0;  // unrepaired verify failures, this pass
  std::uint64_t spare_cols_used = 0;  // spare bitlines currently hosting data
  std::uint64_t spares_remaining = 0;
  double seconds_since_program = 0.0;  // drift clock (advance_age)
  double cumulative_drift = 1.0;       // product of apply_drift factors
  std::uint64_t program_passes = 0;    // full program() calls over lifetime

  CrossbarHealth& operator+=(const CrossbarHealth& o) {
    stuck_cells += o.stuck_cells;
    defective_cells += o.defective_cells;
    spare_cols_used += o.spare_cols_used;
    spares_remaining += o.spares_remaining;
    seconds_since_program = std::max(seconds_since_program, o.seconds_since_program);
    cumulative_drift = std::min(cumulative_drift, o.cumulative_drift);
    program_passes += o.program_passes;
    return *this;
  }
};

struct CrossbarStats {
  std::uint64_t programmed_cells = 0;
  std::uint64_t compute_ops = 0;      // MVM activations
  std::uint64_t input_spikes = 0;     // total '1' spikes driven
  std::uint64_t saturated_counters = 0;
  // Fault-tolerance bookkeeping (all zero on the fault-free path).
  std::uint64_t stuck_cells = 0;      // stuck-at faults in the active region
  std::uint64_t faults_injected = 0;  // stuck cells hit + transient flips
  std::uint64_t verify_retries = 0;   // extra program pulses from verify
  std::uint64_t defective_cells = 0;  // failed verify, not remapped away
  std::uint64_t cells_remapped = 0;   // cells relocated onto spare columns
  std::uint64_t spare_cols_used = 0;  // spare bitlines hosting a column

  CrossbarStats& operator+=(const CrossbarStats& o) {
    programmed_cells += o.programmed_cells;
    compute_ops += o.compute_ops;
    input_spikes += o.input_spikes;
    saturated_counters += o.saturated_counters;
    stuck_cells += o.stuck_cells;
    faults_injected += o.faults_injected;
    verify_retries += o.verify_retries;
    defective_cells += o.defective_cells;
    cells_remapped += o.cells_remapped;
    spare_cols_used += o.spare_cols_used;
    return *this;
  }
};

class Crossbar {
 public:
  explicit Crossbar(const CrossbarConfig& config);

  // Program a weight matrix [r, c] (r <= rows, c <= data_cols()); values
  // are clipped to [-w_max, w_max]. Optional variation model perturbs the
  // stored levels per cell. Equivalent to program(weights, w_max,
  // ProgramOptions{variation}).
  void program(const Tensor& weights, double w_max,
               device::VariationModel* variation = nullptr);

  // Full programming path: faults, write-verify, spare-column remapping,
  // and the degradation policy. See ProgramOptions.
  void program(const Tensor& weights, double w_max,
               const ProgramOptions& opts);

  // Activate this map's transient bit-flips for injection event `step`
  // (deterministic in the fault seed and `step`): flips one stored bit of
  // each hit in-use healthy cell, persists until the next program(), and
  // rebuilds W_eff. Returns the number of flips applied.
  std::size_t inject_at(std::uint64_t step);

  // The one MVM: rows is [m, active_rows()] of inputs clipped to
  // [-x_max, x_max]; returns [m, active_cols()]. Runs quantize_batch and
  // compute_batch_prequant over fixed blocks of rows, so each row's result
  // and the aggregate stats are independent of m (compute_ops advances by
  // m). The crossbar must be programmed first; a one-row tensor is a
  // single-vector MVM.
  Tensor compute_batch(const Tensor& rows, double x_max);

  // The two halves of compute_batch, split so CrossbarGrid can quantize
  // each row-strip of the input once and share the result across that
  // strip's column tiles (every tile of a strip drives the same quantized
  // spikes), and fan (row-strip x row-block) work items out to the thread
  // pool without racing on stats_.
  //
  // quantize_batch fills xt with the block transposed to [active_rows()][m]
  // (xt[i * m + b]) and returns the total spike count, i.e. the popcount sum
  // this tile would have attributed to input_spikes.
  std::uint64_t quantize_batch(const float* rows, std::size_t m,
                               std::size_t row_stride, double x_max,
                               double* xt) const;
  // Evaluates a pre-quantized transposed block and scales into out: the
  // collapsed cache-blocked kernel, or with config().bit_serial the
  // spike-level emulation row by row. Books compute_ops (m) and
  // saturated_counters into delta for the caller to merge_stats() — the
  // caller credits input_spikes from quantize_batch's return value.
  void compute_batch_prequant(const double* xt, std::size_t m, double x_max,
                              float* out, std::size_t out_stride,
                              CrossbarStats& delta) const;

  // Apply a multiplicative retention-drift factor to every stored level
  // (device::RetentionModel::drift_factor); models inference after the
  // arrays have aged `t` without reprogramming. Rebuilds W_eff.
  void apply_drift(double factor);

  // Advance the array's drift clock by `dt` simulated seconds. Pure
  // bookkeeping — callers pair it with apply_drift for the matching
  // incremental factor. program() resets the clock.
  void advance_age(double dt_seconds);

  // Current-state condition report (see CrossbarHealth).
  CrossbarHealth health() const;

  // Zero the lifetime counters (stats and program passes) so the next
  // program() leaves the array exactly as it would leave a newly
  // constructed one; CrossbarGrid::program reuses its tiles this way.
  void reset_counters() {
    stats_ = CrossbarStats{};
    program_passes_ = 0;
  }

  // Fold an externally accumulated stats delta (from compute_batch_prequant)
  // into this array's counters.
  void merge_stats(const CrossbarStats& delta) { stats_ += delta; }

  const CrossbarConfig& config() const { return config_; }
  const CrossbarStats& stats() const { return stats_; }
  std::size_t active_rows() const { return r_; }
  std::size_t active_cols() const { return c_; }
  // Weight clip range of the last program() call.
  double w_max() const { return w_max_; }
  // Collapsed effective differential weights, row-major [r, c] integer
  // levels (scaled by drift/variation where applied).
  const std::vector<double>& effective_weights() const { return w_eff_; }
  // Stored levels of one weight slice and polarity (0 = positive, 1 =
  // negative), row-major [r, c] in logical column layout.
  const std::vector<double>& levels(std::size_t slice,
                                    std::size_t polarity) const {
    return levels_[slice][polarity];
  }

  // Fault-tolerance introspection.
  const device::FaultMap& fault_map() const { return fault_map_; }
  // Physical bitline backing logical column j (== j unless remapped).
  std::size_t physical_col(std::size_t j) const;

 private:
  static constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);

  // One logical column's trial programming: levels and defects are packed
  // by (slice * 2 + polarity) * r_ + i so a failed spare attempt can be
  // discarded without disturbing the committed array state.
  struct ColumnProgram {
    std::vector<double> levels;
    std::vector<std::size_t> defects;
  };

  // The two halves of program(): the ideal-write branch (no variation, no
  // fault map, no write-verify) writes the levels and W_eff directly; every
  // other option set runs the per-cell path with verify and remapping.
  void program_ideal(const Tensor& weights, const device::LinearQuantizer& wq);
  void program_nonideal(const Tensor& weights,
                        const device::LinearQuantizer& wq,
                        const ProgramOptions& opts);
  ColumnProgram program_column(const Tensor& weights,
                               const device::LinearQuantizer& wq,
                               std::size_t j, std::size_t phys_col,
                               double slice_max, const ProgramOptions& opts);
  double program_cell(device::FaultType fault, double target, double slice_max,
                      const ProgramOptions& opts, bool& defective);
  void store_column(const ColumnProgram& cp, std::size_t j);
  void rebuild_w_eff();
  void compute_bit_serial(const std::int64_t* x_int, double* acc,
                          std::uint64_t& saturated) const;

  CrossbarConfig config_;
  std::size_t r_ = 0, c_ = 0;
  double w_max_ = 0.0;
  // Effective per-cell levels: [slice][polarity(0=pos,1=neg)][r * c_],
  // indexed by *logical* column regardless of remapping.
  std::vector<std::vector<std::vector<double>>> levels_;
  // Collapsed differential weights [r * c_]; see header comment.
  std::vector<double> w_eff_;
  device::FaultMap fault_map_;
  std::vector<std::size_t> col_phys_;   // logical column -> physical bitline
  std::vector<std::size_t> phys_owner_; // physical bitline -> logical column
  CrossbarStats stats_;
  // Health state for the current programming pass (see CrossbarHealth).
  double age_seconds_ = 0.0;
  double cumulative_drift_ = 1.0;
  std::uint64_t program_passes_ = 0;
  std::uint64_t cur_stuck_cells_ = 0;
  std::uint64_t cur_defective_cells_ = 0;
  std::uint64_t cur_spares_consumed_ = 0;
};

}  // namespace reramdl::circuit
