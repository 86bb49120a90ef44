#include "device/fault_map.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace reramdl::device {

namespace {

// Distinct stream salts so the stuck-off, stuck-on, and per-step transient
// populations are mutually independent for one map seed.
constexpr std::uint64_t kStuckOffSalt = 0x0ff5a17ULL;
constexpr std::uint64_t kStuckOnSalt = 0x0a5a170ULL;
constexpr std::uint64_t kTransientSalt = 0x7a1f11bULL;

}  // namespace

FaultMap::FaultMap(const FaultMapParams& params) : params_(params) {
  RERAMDL_CHECK_GE(params.stuck_at_off_rate, 0.0);
  RERAMDL_CHECK_GE(params.stuck_at_on_rate, 0.0);
  RERAMDL_CHECK_GE(params.transient_flip_rate, 0.0);
  RERAMDL_CHECK_LE(params.stuck_at_off_rate + params.stuck_at_on_rate, 1.0);
  RERAMDL_CHECK_LE(params.transient_flip_rate, 1.0);
}

std::uint64_t FaultMap::mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over seed + golden-ratio-scaled salt.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Visits each index in [0, n) independently with probability p, in
// ascending order, via geometric gap sampling — O(expected faults), not
// O(cells), with exactly the semantics of one independent uniform draw per
// cell.
template <typename Fn>
void sample_bernoulli(std::uint64_t n, double p, Rng& rng, Fn&& fn) {
  if (p <= 0.0 || n == 0) return;
  if (p >= 1.0) {
    for (std::uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const double log1mp = std::log1p(-p);
  std::uint64_t i = 0;
  for (;;) {
    const double u = rng.uniform();  // in [0, 1)
    const double gap = std::floor(std::log1p(-u) / log1mp);
    if (gap >= static_cast<double>(n)) return;  // guards the u -> 1 tail
    i += static_cast<std::uint64_t>(gap);
    if (i >= n) return;
    fn(i);
    ++i;
  }
}

}  // namespace

void FaultMap::bind(std::size_t slices, std::size_t bits_per_cell,
                    std::size_t rows, std::size_t cols) {
  RERAMDL_CHECK_GT(slices, 0u);
  RERAMDL_CHECK_GT(bits_per_cell, 0u);
  RERAMDL_CHECK_GT(rows, 0u);
  RERAMDL_CHECK_GT(cols, 0u);
  slices_ = slices;
  bits_per_cell_ = bits_per_cell;
  rows_ = rows;
  cols_ = cols;
  bound_ = true;

  stuck_.clear();
  const std::uint64_t n =
      static_cast<std::uint64_t>(slices) * 2 * rows * cols;

  // Stuck-off population first, then stuck-on over the remaining healthy
  // cells (a physical cell cannot be frozen at both rails; off wins
  // collisions deterministically). Both streams are sorted ascending by
  // construction, so the merge below keeps stuck_ sorted for binary search.
  std::vector<CellFault> off, on;
  Rng off_rng(mix_seed(params_.seed, kStuckOffSalt));
  sample_bernoulli(n, params_.stuck_at_off_rate, off_rng, [&](std::uint64_t c) {
    off.push_back({c, FaultType::kStuckOff});
  });
  Rng on_rng(mix_seed(params_.seed, kStuckOnSalt));
  sample_bernoulli(n, params_.stuck_at_on_rate, on_rng, [&](std::uint64_t c) {
    on.push_back({c, FaultType::kStuckOn});
  });

  stuck_.reserve(off.size() + on.size());
  std::size_t a = 0, b = 0;
  while (a < off.size() || b < on.size()) {
    if (b >= on.size() || (a < off.size() && off[a].cell <= on[b].cell)) {
      if (b < on.size() && on[b].cell == off[a].cell) ++b;  // collision: off wins
      stuck_.push_back(off[a++]);
    } else {
      stuck_.push_back(on[b++]);
    }
  }
}

FaultType FaultMap::stuck_fault(std::size_t slice, std::size_t polarity,
                                std::size_t row, std::size_t col) const {
  if (stuck_.empty()) return FaultType::kNone;
  const std::uint64_t cell = index(slice, polarity, row, col);
  const auto it = std::lower_bound(
      stuck_.begin(), stuck_.end(), cell,
      [](const CellFault& f, std::uint64_t c) { return f.cell < c; });
  if (it == stuck_.end() || it->cell != cell) return FaultType::kNone;
  return it->type;
}

void FaultMap::decode(std::uint64_t cell, std::size_t& slice,
                      std::size_t& polarity, std::size_t& row,
                      std::size_t& col) const {
  col = static_cast<std::size_t>(cell % cols_);
  cell /= cols_;
  row = static_cast<std::size_t>(cell % rows_);
  cell /= rows_;
  polarity = static_cast<std::size_t>(cell % 2);
  slice = static_cast<std::size_t>(cell / 2);
}

std::vector<TransientFault> FaultMap::transients_at(std::uint64_t step) const {
  std::vector<TransientFault> out;
  if (!bound_ || params_.transient_flip_rate <= 0.0) return out;
  const std::uint64_t n =
      static_cast<std::uint64_t>(slices_) * 2 * rows_ * cols_;
  Rng rng(mix_seed(params_.seed, kTransientSalt ^ (step * 0x2545f4914f6cdd1dULL)));
  sample_bernoulli(n, params_.transient_flip_rate, rng, [&](std::uint64_t c) {
    TransientFault f;
    decode(c, f.slice, f.polarity, f.row, f.col);
    f.bit = static_cast<unsigned>(rng.uniform_index(bits_per_cell_));
    out.push_back(f);
  });
  return out;
}

double FaultMap::apply(FaultType type, double level, double max_level) {
  switch (type) {
    case FaultType::kStuckOff:
      return 0.0;
    case FaultType::kStuckOn:
      return max_level;
    default:
      return level;
  }
}

}  // namespace reramdl::device
