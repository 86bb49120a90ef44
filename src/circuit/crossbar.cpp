#include "circuit/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/scratch.hpp"
#include "common/simd.hpp"
#include "obs/obs.hpp"

namespace reramdl::circuit {

namespace {

// Row-block size of the batched fast-path kernel: each loaded W_eff row is
// reused across this many input rows, turning the memory-bound MV into a
// cache-blocked MM. Affects performance only — per-row accumulation order
// is independent of the blocking, so results are identical for any block.
constexpr std::size_t kBatchBlock = 32;

// Dense collapsed-kernel body, a free function so RERAMDL_TARGET_CLONES can
// multiversion it (the attribute does not apply to member functions).
//
// Register-tiled microkernel: a 4-row x 8-column accumulator tile lives
// in registers across the entire i loop, so W_eff rows stream through
// once per row quad with no accumulator load/store traffic inside the
// loop (the row-fused form was store-bound at ~half the FMA peak). Per
// output element the accumulation still visits i in ascending order —
// identical to a one-row compute_batch(). Unlike the single-row tail,
// the tile does not skip xi == 0 contributions; that is bitwise a no-op:
// an accumulator can never be -0.0 (it starts at +0.0, exact cancellation
// rounds to +0.0, and +0.0 + (-0.0) = +0.0), and adding xi * w == +/-0.0
// to any such value leaves its bit pattern unchanged.
RERAMDL_TARGET_CLONES
void batch_kernel_dense(const double* w_eff, std::size_t r, std::size_t c,
                        const double* xt, std::size_t m, double scale,
                        float* out, std::size_t out_stride) {
  std::size_t b = 0;
  for (; b + 4 <= m; b += 4) {
    for (std::size_t j0 = 0; j0 < c; j0 += 8) {
      const std::size_t jn = std::min<std::size_t>(8, c - j0);
      double a0[8] = {}, a1[8] = {}, a2[8] = {}, a3[8] = {};
      const double* __restrict wp = w_eff + j0;
      const double* __restrict xp = xt + b;
      if (jn == 8) {
        for (std::size_t i = 0; i < r; ++i, wp += c, xp += m) {
          const double x0 = xp[0], x1 = xp[1], x2 = xp[2], x3 = xp[3];
          for (int jj = 0; jj < 8; ++jj) {
            const double w = wp[jj];
            a0[jj] += x0 * w;
            a1[jj] += x1 * w;
            a2[jj] += x2 * w;
            a3[jj] += x3 * w;
          }
        }
      } else {
        for (std::size_t i = 0; i < r; ++i, wp += c, xp += m) {
          const double x0 = xp[0], x1 = xp[1], x2 = xp[2], x3 = xp[3];
          for (std::size_t jj = 0; jj < jn; ++jj) {
            const double w = wp[jj];
            a0[jj] += x0 * w;
            a1[jj] += x1 * w;
            a2[jj] += x2 * w;
            a3[jj] += x3 * w;
          }
        }
      }
      float* y0 = out + b * out_stride + j0;
      float* y1 = y0 + out_stride;
      float* y2 = y1 + out_stride;
      float* y3 = y2 + out_stride;
      for (std::size_t jj = 0; jj < jn; ++jj) {
        y0[jj] = static_cast<float>(a0[jj] * scale);
        y1[jj] = static_cast<float>(a1[jj] * scale);
        y2[jj] = static_cast<float>(a2[jj] * scale);
        y3[jj] = static_cast<float>(a3[jj] * scale);
      }
    }
  }

  // Batch tail (< 4 rows, including the single-vector m == 1 case): the
  // i-outer row-fused form with the zero-skip.
  if (b < m) {
    const std::size_t tm = m - b;
    scratch::Buffer<double> acc(tm * c);
    std::fill(acc.begin(), acc.begin() + tm * c, 0.0);
    for (std::size_t i = 0; i < r; ++i) {
      const double* wrow = w_eff + i * c;
      const double* xcol = xt + i * m;
      for (std::size_t bb = b; bb < m; ++bb) {
        const double xi = xcol[bb];
        if (xi == 0.0) continue;
        double* arow = acc.data() + (bb - b) * c;
        for (std::size_t j = 0; j < c; ++j) arow[j] += xi * wrow[j];
      }
    }
    for (std::size_t bb = b; bb < m; ++bb) {
      const double* arow = acc.data() + (bb - b) * c;
      float* yrow = out + bb * out_stride;
      for (std::size_t j = 0; j < c; ++j)
        yrow[j] = static_cast<float>(arow[j] * scale);
    }
  }
}

}  // namespace

std::size_t CrossbarConfig::slices() const {
  RERAMDL_CHECK_GT(cell.bits_per_cell, 0u);
  RERAMDL_CHECK_EQ(weight_bits % cell.bits_per_cell, 0u);
  return weight_bits / cell.bits_per_cell;
}

Crossbar::Crossbar(const CrossbarConfig& config) : config_(config) {
  RERAMDL_CHECK_GT(config.rows, 0u);
  RERAMDL_CHECK_GT(config.cols, 0u);
  RERAMDL_CHECK_GE(config.weight_bits, 1u);
  RERAMDL_CHECK_GE(config.input_bits, 1u);
  (void)config_.slices();  // validates divisibility
}

void Crossbar::program(const Tensor& weights, double w_max,
                       device::VariationModel* variation) {
  ProgramOptions opts;
  opts.variation = variation;
  program(weights, w_max, opts);
}

void Crossbar::program(const Tensor& weights, double w_max,
                       const ProgramOptions& opts) {
  RERAMDL_CHECK_EQ(weights.shape().rank(), 2u);
  r_ = weights.shape()[0];
  c_ = weights.shape()[1];
  RERAMDL_CHECK_LE(r_, config_.rows);
  RERAMDL_CHECK_LT(config_.spare_cols, config_.cols);
  RERAMDL_CHECK_LE(c_, config_.data_cols());
  RERAMDL_CHECK_GT(w_max, 0.0);
  w_max_ = w_max;

  const std::size_t num_slices = config_.slices();
  const device::LinearQuantizer wq(config_.weight_bits, w_max);

  fault_map_ = device::FaultMap(opts.faults);
  if (opts.faults.enabled())
    fault_map_.bind(num_slices, config_.cell.bits_per_cell, config_.rows,
                    config_.cols);

  col_phys_.assign(c_, kNoCol);
  phys_owner_.assign(config_.cols, kNoCol);
  for (std::size_t j = 0; j < c_; ++j) {
    col_phys_[j] = j;
    phys_owner_[j] = j;
  }

  // Resized in place: a reprogrammed array keeps its level storage.
  levels_.resize(num_slices);
  for (auto& slice : levels_) {
    slice.resize(2);
    for (auto& polarity : slice) polarity.assign(r_ * c_, 0.0);
  }

  if (opts.variation == nullptr && !opts.faults.enabled() &&
      !opts.write_verify) {
    program_ideal(weights, wq);
  } else {
    program_nonideal(weights, wq, opts);
  }

  // Reset the health clock: a full reprogram restores every level to its
  // write-verified target, so drift and age restart from zero.
  age_seconds_ = 0.0;
  cumulative_drift_ = 1.0;
  ++program_passes_;
}

void Crossbar::program_ideal(const Tensor& weights,
                             const device::LinearQuantizer& wq) {
  // Every cell lands exactly on its bit-slice target, so no per-cell
  // program_cell call is needed, and W_eff[i,j] is the signed level itself:
  // the slice-ascending collapse of integer slices is exact in double, and
  // a zero level collapses to +0.0 either way. This writes the same levels
  // and W_eff as the per-cell path below followed by rebuild_w_eff().
  const std::size_t bpc = config_.cell.bits_per_cell;
  const std::uint64_t slice_mask = (std::uint64_t{1} << bpc) - 1;
  w_eff_.resize(r_ * c_);
  wq.quantize_levels(weights.data(), r_ * c_, w_eff_.data());
  for (std::size_t e = 0; e < r_ * c_; ++e) {
    const auto q = static_cast<std::int64_t>(w_eff_[e]);
    const std::size_t polarity = q < 0 ? 1 : 0;
    const auto mag = static_cast<std::uint64_t>(q < 0 ? -q : q);
    // The magnitude must fit in the slices (bit_slice's check; only a NaN
    // weight can break it).
    RERAMDL_CHECK_LE(mag, static_cast<std::uint64_t>(wq.max_level()));
    for (std::size_t s = 0; s < levels_.size(); ++s)
      levels_[s][polarity][e] =
          static_cast<double>((mag >> (s * bpc)) & slice_mask);
  }
  stats_.programmed_cells += r_ * c_ * levels_.size() * 2;
  cur_stuck_cells_ = 0;
  cur_defective_cells_ = 0;
  cur_spares_consumed_ = 0;
}

void Crossbar::program_nonideal(const Tensor& weights,
                                const device::LinearQuantizer& wq,
                                const ProgramOptions& opts) {
  // Snapshot for the write-verify obs counter below: stats_ accumulates
  // across reprograms, the counter books only this pass's retries.
  const std::uint64_t retries_before = stats_.verify_retries;
  const std::uint64_t defects_before = stats_.defective_cells;
  const std::size_t num_slices = config_.slices();
  const double slice_max =
      static_cast<double>((std::uint64_t{1} << config_.cell.bits_per_cell) - 1);

  // Initial programming, one logical column at a time onto its primary
  // bitline. Columns that still hold defective cells after write-verify
  // are queued for spare-column remapping.
  std::vector<std::size_t> defective_cols;
  std::vector<std::vector<std::size_t>> col_defects(c_);
  for (std::size_t j = 0; j < c_; ++j) {
    ColumnProgram cp = program_column(weights, wq, j, j, slice_max, opts);
    store_column(cp, j);
    if (!cp.defects.empty()) {
      defective_cols.push_back(j);
      col_defects[j] = std::move(cp.defects);
    }
  }
  stats_.programmed_cells += r_ * c_ * num_slices * 2;

  // Spare-column remapping: re-program each defective column onto the next
  // unused spare bitline; a spare that itself verifies defective is burned
  // and the next one is tried. The trial lives in a ColumnProgram until it
  // verifies clean, so a failed attempt never disturbs the array state.
  std::uint64_t remapped_cells = 0;
  std::size_t next_spare = config_.data_cols();
  for (std::size_t j : defective_cols) {
    bool repaired = false;
    while (next_spare < config_.cols) {
      const std::size_t phys = next_spare++;
      ColumnProgram trial = program_column(weights, wq, j, phys, slice_max, opts);
      stats_.programmed_cells += r_ * num_slices * 2;
      if (!trial.defects.empty()) continue;
      store_column(trial, j);
      phys_owner_[col_phys_[j]] = kNoCol;
      col_phys_[j] = phys;
      phys_owner_[phys] = j;
      remapped_cells += r_ * num_slices * 2;
      ++stats_.spare_cols_used;
      col_defects[j].clear();
      repaired = true;
      break;
    }
    if (repaired) continue;
    switch (opts.degrade) {
      case DegradePolicy::kFailFast: {
        std::ostringstream msg;
        msg << "crossbar column " << j << " has " << col_defects[j].size()
            << " unrepairable cell(s) and spares are exhausted ("
            << config_.spare_cols << " configured, " << stats_.spare_cols_used
            << " used); degrade policy is fail_fast";
        throw CheckError(msg.str());
      }
      case DegradePolicy::kClamp:
        // Known-defective cells contribute zero: models the peripheral
        // subtractor gating out bitline segments flagged by verify.
        for (std::size_t cell : col_defects[j]) {
          const std::size_t s = cell / (2 * r_);
          const std::size_t p = (cell / r_) % 2;
          const std::size_t i = cell % r_;
          levels_[s][p][i * c_ + j] = 0.0;
        }
        break;
      case DegradePolicy::kBestEffort:
        break;
    }
    stats_.defective_cells += col_defects[j].size();
  }
  stats_.cells_remapped += remapped_cells;

  // Permanent faults landing in the active region of in-use bitlines.
  std::uint64_t stuck_active = 0;
  if (fault_map_.enabled()) {
    for (const auto& f : fault_map_.stuck_faults()) {
      std::size_t s = 0, p = 0, i = 0, phys = 0;
      fault_map_.decode(f.cell, s, p, i, phys);
      if (i < r_ && phys_owner_[phys] != kNoCol) ++stuck_active;
    }
    stats_.stuck_cells += stuck_active;
    stats_.faults_injected += stuck_active;
  }
  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::instance();
    if (stuck_active > 0)
      reg.counter("xbar.faults_injected").add(stuck_active);
    if (remapped_cells > 0)
      reg.counter("xbar.cells_remapped").add(remapped_cells);
    // Closed-loop write-verify cost of this programming pass (PR-5 coverage
    // gap: previously only visible in aggregated CrossbarStats).
    if (stats_.verify_retries > retries_before)
      reg.counter("xbar.verify_retries")
          .add(stats_.verify_retries - retries_before);
    if (stats_.defective_cells > defects_before)
      reg.counter("xbar.defective_cells")
          .add(stats_.defective_cells - defects_before);
  }
  rebuild_w_eff();

  cur_stuck_cells_ = stuck_active;
  cur_defective_cells_ = stats_.defective_cells - defects_before;
  // Spares consumed includes bitlines burned by failed remap trials, not
  // just those that ended up hosting a column.
  cur_spares_consumed_ = next_spare - config_.data_cols();
}

Crossbar::ColumnProgram Crossbar::program_column(
    const Tensor& weights, const device::LinearQuantizer& wq, std::size_t j,
    std::size_t phys_col, double slice_max, const ProgramOptions& opts) {
  const std::size_t num_slices = config_.slices();
  const std::size_t bpc = config_.cell.bits_per_cell;
  ColumnProgram cp;
  cp.levels.assign(num_slices * 2 * r_, 0.0);
  for (std::size_t i = 0; i < r_; ++i) {
    const std::int64_t q = wq.quantize(weights.at(i, j));
    const std::size_t polarity = q < 0 ? 1 : 0;
    const std::uint64_t mag = static_cast<std::uint64_t>(q < 0 ? -q : q);
    const auto slices = device::bit_slice(mag, bpc, num_slices);
    for (std::size_t s = 0; s < num_slices; ++s) {
      for (std::size_t p = 0; p < 2; ++p) {
        // Both polarities' cells exist physically; only the used one holds a
        // non-zero target, but variation / faults can disturb either.
        const double target = (p == polarity) ? static_cast<double>(slices[s]) : 0.0;
        const device::FaultType fault =
            fault_map_.enabled()
                ? fault_map_.stuck_fault(s, p, i, phys_col)
                : device::FaultType::kNone;
        bool defective = false;
        const double level = program_cell(fault, target, slice_max, opts, defective);
        const std::size_t cell = (s * 2 + p) * r_ + i;
        cp.levels[cell] = level;
        if (defective) cp.defects.push_back(cell);
      }
    }
  }
  return cp;
}

double Crossbar::program_cell(device::FaultType fault, double target,
                              double slice_max, const ProgramOptions& opts,
                              bool& defective) {
  // Closed-loop program-and-verify: each pulse aims at a compensated target
  // (aim += target - readback), keeping whichever readback came closest.
  // Without write_verify this is exactly one open-loop pulse — the
  // historical behavior.
  double aim = target;
  double best = target;
  double best_err = std::numeric_limits<double>::infinity();
  const std::size_t attempts =
      opts.write_verify ? opts.max_program_retries + 1 : 1;
  for (std::size_t a = 0; a < attempts; ++a) {
    if (a > 0) ++stats_.verify_retries;
    double level = aim;
    if (opts.variation != nullptr)
      level = opts.variation->perturb(level, slice_max);
    level = device::FaultMap::apply(fault, level, slice_max);
    const double err = std::abs(level - target);
    if (err < best_err) {
      best = level;
      best_err = err;
    }
    if (!opts.write_verify || err <= opts.verify_tolerance) break;
    aim = std::clamp(aim + (target - level), 0.0, slice_max);
  }
  const double defect_threshold =
      opts.defect_threshold > 0.0 ? opts.defect_threshold : slice_max * 0.25;
  defective = opts.write_verify && best_err > defect_threshold;
  return best;
}

void Crossbar::store_column(const ColumnProgram& cp, std::size_t j) {
  const std::size_t num_slices = levels_.size();
  for (std::size_t s = 0; s < num_slices; ++s)
    for (std::size_t p = 0; p < 2; ++p)
      for (std::size_t i = 0; i < r_; ++i)
        levels_[s][p][i * c_ + j] = cp.levels[(s * 2 + p) * r_ + i];
}

std::size_t Crossbar::inject_at(std::uint64_t step) {
  if (!fault_map_.enabled() || r_ == 0) return 0;
  const auto flips = fault_map_.transients_at(step);
  if (flips.empty()) return 0;
  const std::size_t bpc = config_.cell.bits_per_cell;
  const long long max_level = (1ll << bpc) - 1;
  std::size_t applied = 0;
  for (const auto& f : flips) {
    if (f.row >= r_) continue;
    const std::size_t j = phys_owner_[f.col];
    if (j == kNoCol) continue;
    // Stuck cells read their rail regardless; a soft flip cannot move them.
    if (fault_map_.stuck_fault(f.slice, f.polarity, f.row, f.col) !=
        device::FaultType::kNone)
      continue;
    double& level = levels_[f.slice][f.polarity][f.row * c_ + j];
    const long long cur = std::clamp(
        static_cast<long long>(std::llround(level)), 0ll, max_level);
    level = static_cast<double>(cur ^ (1ll << f.bit));
    ++applied;
  }
  if (applied > 0) {
    stats_.faults_injected += applied;
    if (obs::metrics_enabled())
      obs::Registry::instance().counter("xbar.faults_injected").add(applied);
    rebuild_w_eff();
  }
  return applied;
}

std::size_t Crossbar::physical_col(std::size_t j) const {
  RERAMDL_CHECK_LT(j, c_);
  return col_phys_[j];
}

void Crossbar::rebuild_w_eff() {
  // Each element folds its slices in ascending order — the same add
  // sequence a per-MVM slice walk evaluates inline, so the collapsed path is
  // bit-identical to it even for drifted / varied levels.
  const std::size_t num_slices = levels_.size();
  const std::size_t bpc = config_.cell.bits_per_cell;
  w_eff_.assign(r_ * c_, 0.0);
  for (std::size_t s = 0; s < num_slices; ++s) {
    const double weight = static_cast<double>(std::uint64_t{1} << (s * bpc));
    const auto& pos = levels_[s][0];
    const auto& neg = levels_[s][1];
    for (std::size_t e = 0; e < r_ * c_; ++e)
      w_eff_[e] += weight * (pos[e] - neg[e]);
  }
}

void Crossbar::apply_drift(double factor) {
  RERAMDL_CHECK_GT(factor, 0.0);
  RERAMDL_CHECK_LE(factor, 1.0);
  for (auto& slice : levels_)
    for (auto& polarity : slice)
      for (auto& level : polarity) level *= factor;
  cumulative_drift_ *= factor;
  rebuild_w_eff();
}

void Crossbar::advance_age(double dt_seconds) {
  RERAMDL_CHECK_GE(dt_seconds, 0.0);
  age_seconds_ += dt_seconds;
}

CrossbarHealth Crossbar::health() const {
  CrossbarHealth h;
  h.stuck_cells = cur_stuck_cells_;
  h.defective_cells = cur_defective_cells_;
  for (std::size_t j = 0; j < c_; ++j)
    if (col_phys_[j] >= config_.data_cols()) ++h.spare_cols_used;
  h.spares_remaining = config_.spare_cols - cur_spares_consumed_;
  h.seconds_since_program = age_seconds_;
  h.cumulative_drift = cumulative_drift_;
  h.program_passes = program_passes_;
  return h;
}

Tensor Crossbar::compute_batch(const Tensor& rows, double x_max) {
  RERAMDL_CHECK_EQ(rows.shape().rank(), 2u);
  RERAMDL_CHECK_EQ(rows.shape()[1], r_);
  const std::size_t m = rows.shape()[0];
  Tensor out(Shape{m, c_});
  CrossbarStats delta;
  scratch::Buffer<double> xt(r_ * std::min(kBatchBlock, m));
  for (std::size_t b0 = 0; b0 < m; b0 += kBatchBlock) {
    const std::size_t bm = std::min(kBatchBlock, m - b0);
    delta.input_spikes +=
        quantize_batch(rows.data() + b0 * r_, bm, r_, x_max, xt.data());
    compute_batch_prequant(xt.data(), bm, x_max, out.data() + b0 * c_, c_,
                           delta);
  }
  stats_ += delta;
  return out;
}

std::uint64_t Crossbar::quantize_batch(const float* rows, std::size_t m,
                                       std::size_t row_stride, double x_max,
                                       double* xt) const {
  RERAMDL_CHECK_GT(x_max, 0.0);
  const device::LinearQuantizer xq(config_.input_bits, x_max);
  // Quantized row-major (one call when the rows are contiguous), then
  // transposed to [i][b] so the kernel's inner row loop reads contiguously.
  scratch::Buffer<double> levels(m * r_);
  std::uint64_t spikes = 0;
  if (row_stride == r_) {
    spikes = xq.quantize_levels(rows, m * r_, levels.data());
  } else {
    for (std::size_t b = 0; b < m; ++b)
      spikes += xq.quantize_levels(rows + b * row_stride, r_,
                                   levels.data() + b * r_);
  }
  for (std::size_t b = 0; b < m; ++b)
    for (std::size_t i = 0; i < r_; ++i) xt[i * m + b] = levels[b * r_ + i];
  return spikes;
}

void Crossbar::compute_batch_prequant(const double* xt, std::size_t m,
                                      double x_max, float* out,
                                      std::size_t out_stride,
                                      CrossbarStats& delta) const {
  RERAMDL_CHECK_GT(w_max_, 0.0);
  RERAMDL_CHECK_GT(x_max, 0.0);

  const device::LinearQuantizer xq(config_.input_bits, x_max);
  const device::LinearQuantizer wq(config_.weight_bits, w_max_);
  const double scale = wq.step() * xq.step();
  if (!config_.bit_serial) {
    batch_kernel_dense(w_eff_.data(), r_, c_, xt, m, scale, out, out_stride);
    delta.compute_ops += m;
    return;
  }

  // Spike-level emulation, one input row at a time. Scales the integer
  // result back to the value domain:
  // y = sum_i w_int[i] * x_int[i] * w_step * x_step.
  scratch::Buffer<std::int64_t> x_int(r_);
  scratch::Buffer<double> acc(c_);
  for (std::size_t b = 0; b < m; ++b) {
    for (std::size_t i = 0; i < r_; ++i)
      x_int[i] = static_cast<std::int64_t>(xt[i * m + b]);
    std::fill(acc.begin(), acc.end(), 0.0);
    compute_bit_serial(x_int.data(), acc.data(), delta.saturated_counters);
    float* y = out + b * out_stride;
    for (std::size_t j = 0; j < c_; ++j)
      y[j] = static_cast<float>(acc[j] * scale);
  }
  delta.compute_ops += m;
}

void Crossbar::compute_bit_serial(const std::int64_t* x_int, double* acc,
                                  std::uint64_t& saturated) const {
  // Emulates the spike driver + I&F + counter + shift-add path cycle by
  // cycle: one wordline spike phase per (input bit, sign phase); per column
  // the integrated current is counted with saturation at 2^counter_bits - 1.
  const std::size_t num_slices = levels_.size();
  const std::size_t bpc = config_.cell.bits_per_cell;
  const double counter_max =
      static_cast<double>((std::uint64_t{1} << config_.counter_bits) - 1);

  // Per-cycle bitline integrals, checked out once per MVM instead of
  // 2 * input_bits * slices heap allocations inside the cycle loop.
  scratch::Buffer<double> cols(2 * c_);
  double* col_pos = cols.data();
  double* col_neg = cols.data() + c_;

  for (int phase = 0; phase < 2; ++phase) {  // 0: positive inputs, 1: negative
    for (std::size_t b = 0; b < config_.input_bits; ++b) {
      const double bit_weight = static_cast<double>(std::uint64_t{1} << b);
      for (std::size_t s = 0; s < num_slices; ++s) {
        const double slice_weight =
            static_cast<double>(std::uint64_t{1} << (s * bpc));
        const auto& pos = levels_[s][0];
        const auto& neg = levels_[s][1];
        // Integrate bitline currents for this spike cycle.
        std::fill(col_pos, col_pos + c_, 0.0);
        std::fill(col_neg, col_neg + c_, 0.0);
        for (std::size_t i = 0; i < r_; ++i) {
          const std::int64_t xi = x_int[i];
          const bool this_phase = (phase == 0) ? (xi > 0) : (xi < 0);
          if (!this_phase) continue;
          const std::uint64_t mag = static_cast<std::uint64_t>(std::llabs(xi));
          if (((mag >> b) & 1u) == 0) continue;
          const std::size_t base = i * c_;
          for (std::size_t j = 0; j < c_; ++j) {
            col_pos[j] += pos[base + j];
            col_neg[j] += neg[base + j];
          }
        }
        // I&F counters clamp each column's count for this cycle.
        const double sign = (phase == 0) ? 1.0 : -1.0;
        for (std::size_t j = 0; j < c_; ++j) {
          double cp = col_pos[j], cn = col_neg[j];
          if (cp > counter_max) {
            cp = counter_max;
            ++saturated;
          }
          if (cn > counter_max) {
            cn = counter_max;
            ++saturated;
          }
          acc[j] += sign * bit_weight * slice_weight * (cp - cn);
        }
      }
    }
  }
}

}  // namespace reramdl::circuit
