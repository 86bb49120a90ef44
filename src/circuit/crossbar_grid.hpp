// Multi-array composition for matrices that exceed one crossbar
// (paper Fig. 3c): the weight matrix is partitioned into array-sized tiles;
// inputs are partitioned across row groups; each array emits a partial sum
// that is "collected horizontally and summed vertically".
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "circuit/crossbar.hpp"

namespace reramdl::circuit {

class CrossbarGrid {
 public:
  explicit CrossbarGrid(const CrossbarConfig& config);

  // Program a full [R, C] matrix across ceil(R/rows) x ceil(C/data_cols())
  // arrays (spare bitlines are reserved per array, not tiled over).
  // Equivalent to program(weights, w_max, ProgramOptions{variation}).
  void program(const Tensor& weights, double w_max,
               device::VariationModel* variation = nullptr);

  // Full programming path: each tile programs with `opts`, its fault seed
  // derived as FaultMap::mix_seed(seed, tile + 1) so tiles carry
  // independent-but-reproducible fault populations from one campaign seed.
  void program(const Tensor& weights, double w_max,
               const ProgramOptions& opts);

  // Fan injection event `step` out to every array (deterministic in each
  // tile's fault seed and `step`); returns total bit-flips applied.
  std::size_t inject_at(std::uint64_t step);

  // The grid's one MVM: rows is [m, R], returns [m, C]. Parallelized over
  // (row-strip x batch row-block) work items on the shared thread pool
  // (common/parallel.hpp): each item quantizes its input segment once and
  // runs every tile of the strip on it, dense or bit-serial alike. Per-item
  // stats deltas merge serially and the vertical add runs in fixed
  // row-tile order, so outputs AND aggregate stats are identical for any
  // RERAMDL_THREADS and any split of the rows into calls; a one-row tensor
  // is a single-vector MVM.
  Tensor compute_batch(const Tensor& rows, double x_max);

  // Age every array (retention drift).
  void apply_drift(double factor);

  // --- Online-maintenance hooks (maint/engine.hpp) ---------------------
  //
  // Wear-leveling map: logical tile t programs onto "physical" array slot
  // map[t] for fault-seed purposes — tile t's stuck-cell population is
  // drawn with salt map[t] + 1, so after a rotation a logical tile really
  // inherits the fault pattern of the array now backing it. The default
  // (empty) map is the identity, which reproduces the historical
  // mix_seed(seed, t + 1) derivation bit-for-bit. Takes effect at the next
  // program() / refresh_tile().
  void set_tile_phys_map(std::vector<std::size_t> map);
  const std::vector<std::size_t>& tile_phys_map() const { return phys_map_; }

  // Reprogram one tile in place from the full weight matrix (same shape as
  // the last program() call), through the same per-tile fault seed and the
  // given options — the drift-refresh / scrub-repair primitive. With
  // deterministic options this restores the tile's levels bit-identically
  // to its initial programming and resets its drift clock. Returns the
  // number of cell program pulses issued (the maintenance cost input).
  std::uint64_t refresh_tile(std::size_t t, const Tensor& weights,
                             const ProgramOptions& opts);

  // Per-tile retention drift (the engine applies incremental factors on
  // each tile's own clock once refreshes desynchronize them).
  void apply_drift_tile(std::size_t t, double factor);

  // Advance every tile's drift clock by `dt` simulated seconds.
  void advance_age(double dt_seconds);

  // Aggregate condition report: sums of the per-tile counts, the *oldest*
  // tile's age and the *most drifted* tile's cumulative factor (see
  // CrossbarHealth::operator+=).
  CrossbarHealth health() const;

  std::size_t row_tiles() const { return row_tiles_; }
  std::size_t col_tiles() const { return col_tiles_; }
  std::size_t num_arrays() const { return arrays_.size(); }
  std::size_t total_rows() const { return total_rows_; }
  std::size_t total_cols() const { return total_cols_; }

  CrossbarStats aggregate_stats() const;

  // Attribution label: the obs::Attribution path under which this grid's
  // per-tile work is booked (each tile appends "/tile<t>"). Empty (default)
  // disables per-tile attribution; the CrossbarExecutor labels its grids
  // "host/layer<l>", and callers that simulated a chip placement can pass
  // placement-aligned paths ("chip/bank<b>/layer<l>") so the host-side tile
  // work lands inside the chip-sim tree.
  void set_obs_label(std::string label) { obs_label_ = std::move(label); }
  const std::string& obs_label() const { return obs_label_; }

  // Tile introspection (row-major [row_tile][col_tile]).
  const Crossbar& array(std::size_t t) const { return arrays_[t]; }
  Crossbar& array_mut(std::size_t t) { return arrays_[t]; }

 private:
  // Fault-seed salt for logical tile t: its physical slot under the
  // wear-leveling map (identity when unset).
  std::size_t tile_fault_salt(std::size_t t) const;
  ProgramOptions tile_options(const ProgramOptions& opts,
                              std::size_t t) const;
  // Copies tile t of `weights` into `tile`, reshaping it in place (grow-only
  // storage, so one staging tensor serves every tile of a grid).
  void extract_tile(const Tensor& weights, std::size_t t, Tensor& tile) const;
  // Books programming-time per-tile stats (verify retries, remaps) under
  // the attribution label; called at the end of program().
  void attribute_program_stats() const;

  CrossbarConfig config_;
  std::size_t total_rows_ = 0, total_cols_ = 0;
  std::size_t row_tiles_ = 0, col_tiles_ = 0;
  std::vector<Crossbar> arrays_;  // row-major [row_tile][col_tile]
  std::string obs_label_;
  double w_max_ = 0.0;                  // from the last program() call
  std::vector<std::size_t> phys_map_;   // wear-leveling map; empty = identity
};

}  // namespace reramdl::circuit
