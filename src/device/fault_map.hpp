// Deterministic per-crossbar fault model: stuck-at cells and transient
// bit-flips.
//
// ReRAM cells fail in two broad classes the fault-tolerance literature
// (PANTHER, arXiv:1912.11516; online soft-error tolerance, arXiv:2412.03089)
// treats separately:
//
//   * permanent stuck-at faults — a cell frozen at G_off (stuck-at-off) or
//     G_on (stuck-at-on) regardless of what is programmed, from forming
//     failures or endurance wear-out. These are a property of the die: the
//     same cells are stuck on every program cycle, which is what makes
//     write-verify + spare-column remapping effective against them.
//   * transient bit-flips — soft errors (read disturb, random telegraph
//     noise) that corrupt one stored bit at some point mid-run and persist
//     until the array is reprogrammed.
//
// A FaultMap owns both populations for one physical crossbar (all slices and
// both differential polarities, spare columns included). Everything is
// sampled from an explicit seed, so a fault campaign is reproducible
// bit-for-bit from a single number: the stuck set is a pure function of
// (seed, geometry), and the transient set of injection event `step` is a
// pure function of (seed, step) — no draw-order coupling to the programmed
// pattern, the thread count, or how often the map is consulted. Because the
// map outlives programming, every fault can be counted, located, detected
// and repaired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace reramdl::device {

enum class FaultType : unsigned char { kNone = 0, kStuckOff, kStuckOn, kBitFlip };

struct FaultMapParams {
  // Independent per-cell probabilities of the permanent stuck-at faults.
  double stuck_at_off_rate = 0.0;
  double stuck_at_on_rate = 0.0;
  // Per-cell probability that one injection event (inject_at) flips one
  // stored bit of the cell.
  double transient_flip_rate = 0.0;
  // Root of the deterministic fault streams. Grids and executors derive
  // per-tile / per-layer seeds via FaultMap::mix_seed.
  std::uint64_t seed = 0;

  bool enabled() const {
    return stuck_at_off_rate > 0.0 || stuck_at_on_rate > 0.0 ||
           transient_flip_rate > 0.0;
  }
};

// One permanent fault, keyed by the flattened physical cell index
// ((slice * 2 + polarity) * rows + row) * cols + col.
struct CellFault {
  std::uint64_t cell = 0;
  FaultType type = FaultType::kNone;
};

// One transient bit-flip drawn for a specific injection step.
struct TransientFault {
  std::size_t slice = 0, polarity = 0, row = 0, col = 0;
  unsigned bit = 0;  // bit of the stored level to flip, < bits_per_cell
};

class FaultMap {
 public:
  FaultMap() = default;  // empty and disabled
  explicit FaultMap(const FaultMapParams& params);

  // (Re)samples the permanent stuck-at set for the physical geometry:
  // `slices` bit-slices x 2 polarities x rows x cols cells, each holding
  // `bits_per_cell` bits. Deterministic in (params.seed, geometry).
  void bind(std::size_t slices, std::size_t bits_per_cell, std::size_t rows,
            std::size_t cols);

  bool bound() const { return bound_; }
  bool enabled() const { return bound_ && params_.enabled(); }
  const FaultMapParams& params() const { return params_; }

  // Permanent fault at the physical cell, kNone for healthy cells.
  FaultType stuck_fault(std::size_t slice, std::size_t polarity,
                        std::size_t row, std::size_t col) const;

  // The full sorted stuck-at population (spare columns included).
  const std::vector<CellFault>& stuck_faults() const { return stuck_; }
  std::size_t stuck_count() const { return stuck_.size(); }

  void decode(std::uint64_t cell, std::size_t& slice, std::size_t& polarity,
              std::size_t& row, std::size_t& col) const;

  // Transient bit-flips for injection event `step`; deterministic in
  // (params.seed, step) and independent across steps. The caller applies
  // them to its stored levels (they persist until reprogramming).
  std::vector<TransientFault> transients_at(std::uint64_t step) const;

  // What a cell with permanent fault `type` reads back as when programmed
  // to `level` (levels in [0, max_level]).
  static double apply(FaultType type, double level, double max_level);

  // splitmix64 step: derives independent child seeds for tiles / layers /
  // injection steps from one campaign seed.
  static std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

 private:
  std::uint64_t index(std::size_t slice, std::size_t polarity, std::size_t row,
                      std::size_t col) const {
    return ((static_cast<std::uint64_t>(slice) * 2 + polarity) * rows_ + row) *
               cols_ +
           col;
  }

  FaultMapParams params_;
  std::size_t slices_ = 0, bits_per_cell_ = 0, rows_ = 0, cols_ = 0;
  bool bound_ = false;
  std::vector<CellFault> stuck_;  // sorted by cell index
};

}  // namespace reramdl::device
