// Tests for the fault-injection subsystem: FaultMap sampling, write-verify
// programming, spare-column remapping, degradation policies, and the
// determinism contracts the campaign engine (bench_fault_campaign) relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "circuit/crossbar.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/functional.hpp"
#include "device/fault_map.hpp"
#include "device/variation.hpp"
#include "workload/datasets.hpp"
#include "workload/model_zoo.hpp"
#include "oracle.hpp"

namespace reramdl {
namespace {

using circuit::Crossbar;
using circuit::CrossbarConfig;
using circuit::CrossbarGrid;
using circuit::DegradePolicy;
using circuit::ProgramOptions;
using device::FaultMap;
using device::FaultMapParams;
using device::FaultType;

FaultMapParams rates(double off, double on, double flip, std::uint64_t seed) {
  FaultMapParams p;
  p.stuck_at_off_rate = off;
  p.stuck_at_on_rate = on;
  p.transient_flip_rate = flip;
  p.seed = seed;
  return p;
}

// ---- FaultMap sampling -------------------------------------------------------

TEST(FaultMap, StuckPopulationIsDeterministicInSeedAndGeometry) {
  FaultMap a(rates(0.01, 0.005, 0.0, 42));
  FaultMap b(rates(0.01, 0.005, 0.0, 42));
  a.bind(4, 4, 64, 64);
  b.bind(4, 4, 64, 64);
  ASSERT_GT(a.stuck_count(), 0u);
  ASSERT_EQ(a.stuck_count(), b.stuck_count());
  for (std::size_t i = 0; i < a.stuck_count(); ++i) {
    EXPECT_EQ(a.stuck_faults()[i].cell, b.stuck_faults()[i].cell);
    EXPECT_EQ(a.stuck_faults()[i].type, b.stuck_faults()[i].type);
  }
  // Re-binding the same geometry reproduces the identical set (pure function
  // of seed + geometry, no hidden draw-order state).
  const auto before = a.stuck_faults();
  a.bind(4, 4, 64, 64);
  EXPECT_EQ(a.stuck_faults().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(a.stuck_faults()[i].cell, before[i].cell);

  FaultMap c(rates(0.01, 0.005, 0.0, 43));
  c.bind(4, 4, 64, 64);
  bool differs = c.stuck_count() != a.stuck_count();
  for (std::size_t i = 0; !differs && i < a.stuck_count(); ++i)
    differs = c.stuck_faults()[i].cell != a.stuck_faults()[i].cell;
  EXPECT_TRUE(differs);
}

TEST(FaultMap, LookupAgreesWithPopulationEverywhere) {
  FaultMap map(rates(0.02, 0.02, 0.0, 7));
  const std::size_t slices = 2, rows = 16, cols = 16;
  map.bind(slices, 4, rows, cols);
  std::size_t seen = 0;
  for (std::size_t s = 0; s < slices; ++s)
    for (std::size_t p = 0; p < 2; ++p)
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
          if (map.stuck_fault(s, p, i, j) != FaultType::kNone) ++seen;
  EXPECT_EQ(seen, map.stuck_count());
  // decode() inverts the flattened key for every sampled fault.
  for (const auto& f : map.stuck_faults()) {
    std::size_t s, p, i, j;
    map.decode(f.cell, s, p, i, j);
    EXPECT_LT(s, slices);
    EXPECT_LT(p, 2u);
    EXPECT_LT(i, rows);
    EXPECT_LT(j, cols);
    EXPECT_EQ(map.stuck_fault(s, p, i, j), f.type);
  }
}

TEST(FaultMap, ObservedRatesTrackParameters) {
  FaultMap map(rates(0.03, 0.01, 0.0, 11));
  map.bind(4, 4, 128, 128);
  const double n = 4.0 * 2 * 128 * 128;
  double off = 0, on = 0;
  for (const auto& f : map.stuck_faults()) {
    if (f.type == FaultType::kStuckOff) ++off;
    if (f.type == FaultType::kStuckOn) ++on;
  }
  EXPECT_NEAR(off / n, 0.03, 0.005);
  EXPECT_NEAR(on / n, 0.01, 0.005);
}

TEST(FaultMap, InvalidRatesThrow) {
  EXPECT_THROW(FaultMap(rates(0.7, 0.7, 0.0, 12)), CheckError);
  EXPECT_THROW(FaultMap(rates(-0.1, 0.0, 0.0, 12)), CheckError);
  EXPECT_THROW(FaultMap(rates(0.0, 0.0, 1.5, 12)), CheckError);
}

TEST(FaultMap, ApplyForcesStuckLevels) {
  EXPECT_DOUBLE_EQ(FaultMap::apply(FaultType::kStuckOff, 9.0, 15.0), 0.0);
  EXPECT_DOUBLE_EQ(FaultMap::apply(FaultType::kStuckOn, 2.0, 15.0), 15.0);
  EXPECT_DOUBLE_EQ(FaultMap::apply(FaultType::kNone, 6.0, 15.0), 6.0);
}

TEST(FaultMap, TransientsDeterministicPerStepIndependentAcrossSteps) {
  FaultMap map(rates(0.0, 0.0, 2e-3, 5));
  map.bind(4, 4, 64, 64);
  const auto s1a = map.transients_at(1);
  const auto s1b = map.transients_at(1);
  ASSERT_GT(s1a.size(), 0u);
  ASSERT_EQ(s1a.size(), s1b.size());
  auto key = [](const device::TransientFault& f) {
    return std::make_tuple(f.slice, f.polarity, f.row, f.col, f.bit);
  };
  for (std::size_t i = 0; i < s1a.size(); ++i)
    EXPECT_EQ(key(s1a[i]), key(s1b[i]));
  for (const auto& f : s1a) {
    EXPECT_LT(f.slice, 4u);
    EXPECT_LT(f.polarity, 2u);
    EXPECT_LT(f.row, 64u);
    EXPECT_LT(f.col, 64u);
    EXPECT_LT(f.bit, 4u);  // < bits_per_cell
  }
  const auto s2 = map.transients_at(2);
  bool differs = s2.size() != s1a.size();
  for (std::size_t i = 0; !differs && i < s2.size(); ++i)
    differs = key(s2[i]) != key(s1a[i]);
  EXPECT_TRUE(differs);
}

TEST(FaultMap, DisabledMapIsEmpty) {
  FaultMap map;
  map.bind(4, 4, 32, 32);
  EXPECT_FALSE(map.enabled());
  EXPECT_EQ(map.stuck_count(), 0u);
  EXPECT_TRUE(map.transients_at(1).empty());
}

// ---- Crossbar programming paths ----------------------------------------------

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

TEST(CrossbarFaults, FaultFreeOptionsAreBitIdenticalToLegacyProgram) {
  Rng rng(20);
  const Tensor w = Tensor::uniform(Shape{48, 40}, rng, -1.0f, 1.0f);
  std::vector<float> x(48);
  Rng xrng(21);
  for (auto& v : x) v = static_cast<float>(xrng.uniform(-1.0, 1.0));

  CrossbarConfig plain;
  plain.rows = plain.cols = 64;
  Crossbar legacy(plain);
  legacy.program(w, 1.0);
  const auto y_legacy = oracle::compute_row(legacy, x, 1.0);

  Crossbar with_opts(plain);
  with_opts.program(w, 1.0, ProgramOptions{});
  Crossbar with_verify(plain);
  ProgramOptions verify;
  verify.write_verify = true;
  with_verify.program(w, 1.0, verify);

  CrossbarConfig spared = plain;
  spared.spare_cols = 16;  // data_cols 48 still >= 40
  Crossbar with_spares(spared);
  with_spares.program(w, 1.0, verify);

  for (Crossbar* xb : {&with_opts, &with_verify, &with_spares}) {
    ASSERT_EQ(xb->effective_weights().size(), legacy.effective_weights().size());
    for (std::size_t i = 0; i < legacy.effective_weights().size(); ++i)
      EXPECT_EQ(xb->effective_weights()[i], legacy.effective_weights()[i]);
    const auto y = oracle::compute_row(*xb, x, 1.0);
    for (std::size_t j = 0; j < y_legacy.size(); ++j)
      EXPECT_EQ(y[j], y_legacy[j]);
    EXPECT_EQ(xb->stats().stuck_cells, 0u);
    EXPECT_EQ(xb->stats().defective_cells, 0u);
    EXPECT_EQ(xb->stats().cells_remapped, 0u);
  }
  // Fault-free write-verify converges on the first pulse: no retries burned.
  EXPECT_EQ(with_verify.stats().verify_retries, 0u);
}

TEST(CrossbarFaults, WriteVerifyTightensProgrammingUnderVariation) {
  Rng rng(22);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 64;

  Crossbar ideal(cfg);
  ideal.program(w, 1.0);

  device::VariationParams vp;
  vp.sigma = 0.3;
  auto run = [&](bool verify) {
    device::VariationModel vm(vp, Rng(23));
    Crossbar xb(cfg);
    ProgramOptions opts;
    opts.variation = &vm;
    opts.write_verify = verify;
    opts.max_program_retries = 5;
    xb.program(w, 1.0, opts);
    return std::make_pair(l1_distance(xb.effective_weights(),
                                      ideal.effective_weights()),
                          xb.stats().verify_retries);
  };
  const auto [err_open, retries_open] = run(false);
  const auto [err_verified, retries_verified] = run(true);
  EXPECT_EQ(retries_open, 0u);
  EXPECT_GT(retries_verified, 0u);
  // The closed loop must beat open-loop programming by a wide margin.
  EXPECT_LT(err_verified, err_open * 0.5);
}

TEST(CrossbarFaults, StuckCellsAreCountedAndMarkedDefective) {
  Rng rng(24);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 64;
  Crossbar xb(cfg);
  ProgramOptions opts;
  opts.faults = rates(0.005, 0.005, 0.0, 30);
  opts.write_verify = true;
  xb.program(w, 1.0, opts);
  EXPECT_GT(xb.stats().stuck_cells, 0u);
  EXPECT_EQ(xb.stats().faults_injected, xb.stats().stuck_cells);
  EXPECT_GT(xb.stats().defective_cells, 0u);
  // Stuck cells never converge, so each burns all retries.
  EXPECT_GE(xb.stats().verify_retries,
            xb.stats().defective_cells * opts.max_program_retries);
  // Without write-verify nothing is detected: faults land silently.
  Crossbar blind(cfg);
  ProgramOptions open = opts;
  open.write_verify = false;
  blind.program(w, 1.0, open);
  EXPECT_EQ(blind.stats().defective_cells, 0u);
  EXPECT_EQ(blind.stats().stuck_cells, xb.stats().stuck_cells);
}

TEST(CrossbarFaults, ClampReducesErrorVersusBestEffort) {
  Rng rng(25);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 64;
  Crossbar ideal(cfg);
  ideal.program(w, 1.0);

  auto run = [&](DegradePolicy policy) {
    Crossbar xb(cfg);
    ProgramOptions opts;
    opts.faults = rates(0.005, 0.005, 0.0, 31);
    opts.write_verify = true;
    opts.degrade = policy;
    xb.program(w, 1.0, opts);
    return l1_distance(xb.effective_weights(), ideal.effective_weights());
  };
  const double err_best = run(DegradePolicy::kBestEffort);
  const double err_clamp = run(DegradePolicy::kClamp);
  EXPECT_GT(err_best, 0.0);
  EXPECT_LT(err_clamp, err_best);
}

TEST(CrossbarFaults, SpareColumnsRemapDefectiveColumns) {
  Rng rng(26);
  const Tensor w = Tensor::uniform(Shape{64, 48}, rng, -1.0f, 1.0f);
  // Same cols on both configs -> identical fault population (the map binds
  // the physical geometry), so the comparison isolates the remapping.
  CrossbarConfig no_spares;
  no_spares.rows = no_spares.cols = 64;
  CrossbarConfig with_spares = no_spares;
  with_spares.spare_cols = 16;  // data_cols 48

  Crossbar ideal(no_spares);
  ideal.program(w, 1.0);

  ProgramOptions opts;
  opts.faults = rates(0.004, 0.004, 0.0, 32);
  opts.write_verify = true;
  opts.degrade = DegradePolicy::kClamp;

  Crossbar raw(no_spares);
  ProgramOptions open;
  open.faults = opts.faults;
  raw.program(w, 1.0, open);

  Crossbar repaired(with_spares);
  repaired.program(w, 1.0, opts);

  const auto& st = repaired.stats();
  ASSERT_GT(st.spare_cols_used, 0u);
  // Every remapped column relocates all r * slices * 2 of its cells.
  EXPECT_EQ(st.cells_remapped,
            st.spare_cols_used * 64 * repaired.config().slices() * 2);
  std::size_t moved = 0;
  for (std::size_t j = 0; j < repaired.active_cols(); ++j) {
    const std::size_t phys = repaired.physical_col(j);
    if (phys != j) {
      ++moved;
      EXPECT_GE(phys, with_spares.data_cols());  // spares live past the data
      EXPECT_LT(phys, with_spares.cols);
    }
  }
  EXPECT_EQ(moved, st.spare_cols_used);
  // Repair must land closer to the ideal array than silent degradation.
  EXPECT_LT(l1_distance(repaired.effective_weights(),
                        ideal.effective_weights()),
            l1_distance(raw.effective_weights(), ideal.effective_weights()));
}

TEST(CrossbarFaults, FailFastThrowsWhenSparesExhausted) {
  Rng rng(27);
  const Tensor w = Tensor::uniform(Shape{32, 32}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  Crossbar xb(cfg);
  ProgramOptions opts;
  opts.faults = rates(0.02, 0.02, 0.0, 33);
  opts.write_verify = true;
  opts.degrade = DegradePolicy::kFailFast;
  EXPECT_THROW(xb.program(w, 1.0, opts), CheckError);
}

TEST(CrossbarFaults, InjectAtIsDeterministicAndPersistent) {
  Rng rng(34);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 64;
  ProgramOptions opts;
  opts.faults = rates(0.0, 0.0, 2e-3, 35);

  Crossbar a(cfg), b(cfg);
  a.program(w, 1.0, opts);
  b.program(w, 1.0, opts);
  const auto pristine = a.effective_weights();

  const std::size_t na = a.inject_at(1);
  const std::size_t nb = b.inject_at(1);
  ASSERT_GT(na, 0u);
  EXPECT_EQ(na, nb);
  EXPECT_EQ(a.stats().faults_injected, na);
  EXPECT_GT(l1_distance(a.effective_weights(), pristine), 0.0);
  for (std::size_t i = 0; i < pristine.size(); ++i)
    EXPECT_EQ(a.effective_weights()[i], b.effective_weights()[i]);

  // The flips persist (stored levels changed) and the fast path still
  // matches the slice-walk oracle over the corrupted levels.
  std::vector<float> x(64);
  Rng xrng(36);
  for (auto& v : x) v = static_cast<float>(xrng.uniform(-1.0, 1.0));
  const auto fast = oracle::compute_row(a, x, 1.0);
  const auto ref = oracle::compute_reference(a, x, 1.0);
  for (std::size_t j = 0; j < fast.size(); ++j) EXPECT_EQ(fast[j], ref[j]);

  // A different injection step draws an independent flip set.
  Crossbar c(cfg);
  c.program(w, 1.0, opts);
  c.inject_at(2);
  EXPECT_GT(l1_distance(c.effective_weights(), a.effective_weights()), 0.0);

  // Reprogramming clears the damage completely.
  a.program(w, 1.0, opts);
  for (std::size_t i = 0; i < pristine.size(); ++i)
    EXPECT_EQ(a.effective_weights()[i], pristine[i]);
}

// ---- Drift x transient-fault interaction ------------------------------------
//
// The maintenance engine (DESIGN.md §16) interleaves apply_drift epochs with
// mid-run inject_at flips on the same arrays; the collapsed W_eff must stay
// consistent with the slice-walk oracle through any such sequence.

TEST(CrossbarFaults, DriftAfterInjectRebuildsConsistently) {
  Rng rng(50);
  const Tensor w = Tensor::uniform(Shape{48, 48}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 48;
  ProgramOptions opts;
  opts.faults = rates(0.0, 0.0, 3e-3, 51);

  Crossbar a(cfg);
  a.program(w, 1.0, opts);
  ASSERT_GT(a.inject_at(1), 0u);
  a.apply_drift(0.97);
  a.apply_drift(0.99);  // incremental drift compounds multiplicatively
  ASSERT_GT(a.inject_at(2), 0u);

  std::vector<float> x(48);
  Rng xrng(52);
  for (auto& v : x) v = static_cast<float>(xrng.uniform(-1.0, 1.0));
  const auto fast = oracle::compute_row(a, x, 1.0);
  const auto ref = oracle::compute_reference(a, x, 1.0);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t j = 0; j < fast.size(); ++j) EXPECT_EQ(fast[j], ref[j]);
}

TEST(CrossbarFaults, InjectDriftOrderIsDeterministicPerSequence) {
  // The same (program, inject, drift) sequence reproduces W_eff exactly;
  // flipping the order of a drift and an injection changes the stored
  // levels (a flip lands on drifted vs undrifted bits) but each order is
  // itself deterministic and oracle-consistent.
  Rng rng(53);
  const Tensor w = Tensor::uniform(Shape{32, 32}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  ProgramOptions opts;
  opts.faults = rates(0.0, 0.0, 5e-3, 54);

  auto run = [&](bool drift_first) {
    Crossbar x(cfg);
    x.program(w, 1.0, opts);
    if (drift_first) {
      x.apply_drift(0.9);
      x.inject_at(7);
    } else {
      x.inject_at(7);
      x.apply_drift(0.9);
    }
    return x;
  };
  Crossbar a = run(true), b = run(true), c = run(false);
  for (std::size_t i = 0; i < a.effective_weights().size(); ++i)
    EXPECT_EQ(a.effective_weights()[i], b.effective_weights()[i]);
  EXPECT_GT(l1_distance(a.effective_weights(), c.effective_weights()), 0.0);

  std::vector<float> x(32);
  Rng xrng(55);
  for (auto& v : x) v = static_cast<float>(xrng.uniform(-1.0, 1.0));
  for (Crossbar* xb : {&a, &c}) {
    const auto fast = oracle::compute_row(*xb, x, 1.0);
    const auto ref = oracle::compute_reference(*xb, x, 1.0);
    for (std::size_t j = 0; j < fast.size(); ++j) EXPECT_EQ(fast[j], ref[j]);
  }
}

TEST(GridFaults, DriftAndInjectInterleaveMatchesOracleAcrossTiles) {
  Rng rng(56);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  CrossbarGrid grid(cfg);
  ProgramOptions opts;
  opts.faults = rates(0.0, 0.0, 2e-3, 57);
  grid.program(w, 1.0, opts);
  ASSERT_EQ(grid.num_arrays(), 4u);

  ASSERT_GT(grid.inject_at(1), 0u);
  grid.apply_drift(0.95);
  grid.apply_drift_tile(2, 0.9);  // one tile drifts further on its own clock
  grid.inject_at(2);

  // Grid compute vs the per-tile oracle with the fixed vertical add order.
  std::vector<float> x(64);
  Rng xrng(58);
  for (auto& v : x) v = static_cast<float>(xrng.uniform(-1.0, 1.0));
  const auto got = oracle::compute_row(grid, x, 1.0);
  const auto want = oracle::grid_reference(grid, x, 1.0);
  for (std::size_t j = 0; j < 64; ++j) EXPECT_EQ(got[j], want[j]);
}

// ---- Grid-level behavior -----------------------------------------------------

TEST(GridFaults, TilesCarryIndependentFaultPopulations) {
  Rng rng(40);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  CrossbarGrid grid(cfg);
  ProgramOptions opts;
  opts.faults = rates(0.01, 0.01, 0.0, 41);
  grid.program(w, 1.0, opts);
  ASSERT_EQ(grid.num_arrays(), 4u);
  EXPECT_GT(grid.aggregate_stats().stuck_cells, 0u);
  const auto& f0 = grid.array(0).fault_map().stuck_faults();
  const auto& f1 = grid.array(1).fault_map().stuck_faults();
  ASSERT_GT(f0.size(), 0u);
  bool differs = f0.size() != f1.size();
  for (std::size_t i = 0; !differs && i < f0.size(); ++i)
    differs = f0[i].cell != f1[i].cell;
  EXPECT_TRUE(differs);
}

TEST(GridFaults, SpareReservationKeepsFaultFreeBatchBitIdentical) {
  // Reserving spares changes the column tiling (data_cols shrinks), which
  // must not change fault-free results: per-column accumulation and the
  // row-tile vertical add are independent of how columns are tiled.
  Rng rng(42);
  const Tensor w = Tensor::uniform(Shape{64, 60}, rng, -1.0f, 1.0f);
  Rng xrng(43);
  const Tensor x = Tensor::uniform(Shape{7, 64}, xrng, -1.0f, 1.0f);

  CrossbarConfig plain;
  plain.rows = plain.cols = 32;
  CrossbarGrid base(plain);
  base.program(w, 1.0);
  const Tensor y0 = base.compute_batch(x, 1.0);

  CrossbarConfig spared = plain;
  spared.spare_cols = 8;  // data_cols 24 -> different tiling
  CrossbarGrid grid(spared);
  ProgramOptions verify;
  verify.write_verify = true;
  grid.program(w, 1.0, verify);
  EXPECT_GT(grid.col_tiles(), base.col_tiles());
  const Tensor y1 = grid.compute_batch(x, 1.0);
  ASSERT_EQ(y1.shape(), y0.shape());
  for (std::size_t i = 0; i < y0.numel(); ++i) EXPECT_EQ(y1[i], y0[i]);
}

TEST(GridFaults, InjectAtIsDeterministicAcrossGrids) {
  Rng rng(44);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  ProgramOptions opts;
  opts.faults = rates(0.0, 0.0, 1e-3, 45);

  CrossbarGrid a(cfg), b(cfg);
  a.program(w, 1.0, opts);
  b.program(w, 1.0, opts);
  const std::size_t na = a.inject_at(3);
  ASSERT_GT(na, 0u);
  EXPECT_EQ(na, b.inject_at(3));

  Rng xrng(46);
  const Tensor x = Tensor::uniform(Shape{5, 64}, xrng, -1.0f, 1.0f);
  const Tensor ya = a.compute_batch(x, 1.0);
  const Tensor yb = b.compute_batch(x, 1.0);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

// ---- Executor-level behavior -------------------------------------------------

TEST(ExecutorFaults, LayersCarryIndependentSeedsAndInjectPropagates) {
  Rng rng(50);
  auto net = workload::make_mlp_mnist(rng);
  core::AcceleratorConfig cfg;
  cfg.chip = arch::pipelayer_chip();
  cfg.max_arrays = 2048;
  cfg.spare_cols = 8;

  ProgramOptions opts;
  opts.faults = rates(0.002, 0.002, 1e-5, 51);
  opts.write_verify = true;
  opts.degrade = DegradePolicy::kClamp;
  core::CrossbarExecutor exec(net, cfg, opts);
  ASSERT_GE(exec.num_grids(), 2u);
  EXPECT_GT(exec.aggregate_stats().stuck_cells, 0u);

  // Different layers draw from different mixed seeds.
  const auto& l0 = exec.grid(0).array(0).fault_map().stuck_faults();
  const auto& l1 = exec.grid(1).array(0).fault_map().stuck_faults();
  bool differs = l0.size() != l1.size();
  for (std::size_t i = 0; !differs && i < l0.size(); ++i)
    differs = l0[i].cell != l1[i].cell;
  EXPECT_TRUE(differs);

  Rng data_rng(52);
  const auto data = workload::make_mnist_like(8, data_rng);
  const Tensor before = net.forward(data.images, false);
  const std::size_t flips = exec.inject_at(1);
  EXPECT_GT(flips, 0u);
  const Tensor after = net.forward(data.images, false);
  double diff = 0.0;
  for (std::size_t i = 0; i < before.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(after[i]));
    diff += std::abs(static_cast<double>(after[i]) - before[i]);
  }
  EXPECT_GT(diff, 0.0);
}

}  // namespace
}  // namespace reramdl
