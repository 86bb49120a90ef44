// Event-driven pipeline simulator.
//
// The paper's cycle counts (Figs. 5, 8, 9) are closed forms; this simulator
// schedules the actual dependency graphs — per-input stage chains, stage
// resource conflicts, batch barriers, duplicated-D spatial parallelism, and
// the forked backward branches of computation sharing — and the property
// tests assert the simulated totals equal the closed forms cycle-for-cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/analytic.hpp"

namespace reramdl::pipeline {

struct TraceEntry {
  std::size_t stage = 0;
  std::uint64_t start = 0;  // cycle the stage processes this task
  std::string item;
};

// Greedy list scheduler: each stage processes at most one task per cycle;
// tasks issue in submission order.
class PipelineSim {
 public:
  std::size_t add_stage(std::string name);
  // Schedule a 1-cycle task on `stage`, not before `ready`; returns its
  // completion cycle (start + 1).
  std::uint64_t add_task(std::size_t stage, std::uint64_t ready,
                         const std::string& item = {});

  // Run an in-order chain of stages for one item: each step waits for the
  // previous step's completion. Returns completion of the last step.
  std::uint64_t add_chain(const std::vector<std::size_t>& stages,
                          std::uint64_t ready, const std::string& item = {});

  const std::vector<std::string>& stage_names() const { return stage_names_; }
  const std::vector<TraceEntry>& trace() const { return trace_; }
  void enable_trace(bool on) { trace_enabled_ = on; }

  // Render the trace as a text Gantt chart (stages x cycles), using the
  // first character of each item label.
  std::string gantt() const;

  // Replay the recorded trace into the obs span tracer as a virtual process
  // named `label` (one track per stage, 1 cycle == 1 us), so pipeline Gantt
  // charts open in Perfetto next to the wall-clock spans. No-op unless
  // RERAMDL_TRACE is active and the trace is non-empty; the sim_* drivers
  // call this automatically when tracing is on.
  void emit_obs_spans(const std::string& label) const;

 private:
  std::vector<std::string> stage_names_;
  std::vector<std::uint64_t> next_free_;
  std::vector<TraceEntry> trace_;
  bool trace_enabled_ = false;
};

// ---- PipeLayer schedules ---------------------------------------------------

struct SimResult {
  std::uint64_t cycles = 0;
  std::string gantt;  // filled when trace requested
};

SimResult sim_pipelayer_training(std::uint64_t n, std::uint64_t l,
                                 std::uint64_t b, bool want_trace = false);
SimResult sim_pipelayer_inference(std::uint64_t n, std::uint64_t l,
                                  bool want_trace = false);

// ---- ReGAN schedules -------------------------------------------------------

// One training batch (phases ①②③ + updates). Matches the corresponding
// regan_batch_cycles_* closed form.
SimResult sim_regan_batch(const GanShape& shape, const ReGanOptions& opts,
                          bool want_trace = false);

// n/b consecutive batches (next batch waits for both weight updates).
SimResult sim_regan_training(std::uint64_t n, const GanShape& shape,
                             const ReGanOptions& opts);

}  // namespace reramdl::pipeline
