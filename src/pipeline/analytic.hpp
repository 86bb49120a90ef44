// Closed-form cycle counts from the paper.
//
// PipeLayer (Sec. III-A-2): an L-layer network trains on batches of B. The
// forward pass of one input occupies L pipeline cycles, the backward pass
// L+1 (loss evaluation plus L layers), and the batch's accumulated weight
// update takes one cycle. Pipelined, a new input enters every cycle within a
// batch; batches do not overlap.
//
// ReGAN (Sec. III-B-2/3): D has L_D layers, G has L_G. One batch trains in
// three phases: ① D on real samples, ② D on generated samples (G
// concatenated in front of D, G not updated), ③ G through the full G+D
// stack with inaccurate labels. Spatial parallelism (SP) duplicates D so ①
// and ② overlap; computation sharing (CS) lets ② and ③ share the forward
// pass and fork at the loss.
//
// All functions count pipeline cycles (one cycle = one layer-stage step).
#pragma once

#include <cstdint>

namespace reramdl::pipeline {

// ---- PipeLayer -----------------------------------------------------------

// Pipelined training of n inputs: (n/b) * (2l + b + 1). n must be a
// multiple of b.
std::uint64_t pipelayer_train_cycles_pipelined(std::uint64_t n, std::uint64_t l,
                                               std::uint64_t b);

// Non-pipelined training: (2l + 1) * n + n / b (each input's forward +
// backward serially, plus one update cycle per batch).
std::uint64_t pipelayer_train_cycles_sequential(std::uint64_t n, std::uint64_t l,
                                                std::uint64_t b);

// Pipelined inference of n inputs through l layers: n + l - 1.
std::uint64_t pipelayer_infer_cycles_pipelined(std::uint64_t n, std::uint64_t l);

// Non-pipelined inference: n * l.
std::uint64_t pipelayer_infer_cycles_sequential(std::uint64_t n, std::uint64_t l);

// ---- ReGAN ---------------------------------------------------------------

struct GanShape {
  std::uint64_t l_d = 0;  // discriminator layers
  std::uint64_t l_g = 0;  // generator layers
  std::uint64_t b = 0;    // batch size
};

// Phase ①: 2*l_d + 1 + (b - 1) cycles.
std::uint64_t regan_phase1_cycles(const GanShape& s);
// Phase ②: l_g + 2*l_d + 1 + (b - 1) cycles.
std::uint64_t regan_phase2_cycles(const GanShape& s);
// D training (① + ② + one update cycle).
std::uint64_t regan_train_d_cycles(const GanShape& s);
// G training (③ incl. its update): 2*l_g + 2*l_d + b + 1.
std::uint64_t regan_train_g_cycles(const GanShape& s);

// Full batch, pipelined, no SP/CS: train-D + train-G.
std::uint64_t regan_batch_cycles_pipelined(const GanShape& s);
// Full batch without the training pipeline: (4*l_d + l_g + 2)*b for D plus
// (2*l_d + 2*l_g + 1)*b for G.
std::uint64_t regan_batch_cycles_unpipelined(const GanShape& s);
// SP only: ① hides behind ②; D phase = max(①,②) + 1, then G.
std::uint64_t regan_batch_cycles_sp(const GanShape& s);
// CS only: ① first, then the shared ②/③ pass (D updates at T11 inside it).
std::uint64_t regan_batch_cycles_cs(const GanShape& s);
// SP + CS: ① overlaps the shared pass; total = 2*l_g + 2*l_d + b + 1.
std::uint64_t regan_batch_cycles_sp_cs(const GanShape& s);

struct ReGanOptions {
  bool spatial_parallelism = false;  // duplicate D: ① overlaps ②
  bool computation_sharing = false;  // ② and ③ share the forward pass
};

// Full pipelined batch under `opts`: the matching one of the four forms
// above (pipelined, SP, CS, SP + CS).
std::uint64_t regan_batch_cycles(const GanShape& s, const ReGanOptions& opts);

// ---- Utilization -----------------------------------------------------------

// Fraction of pipeline-stage slots doing useful work during pipelined
// training: each input occupies 2l+1 stage-cycles of work; the schedule
// spans (n/b)(2l+b+1) cycles across 2l+1 stages (plus the update unit,
// excluded as bookkeeping).
double pipelayer_training_utilization(std::uint64_t n, std::uint64_t l,
                                      std::uint64_t b);

// Utilization of the sequential schedule, for the ablation contrast.
double pipelayer_sequential_utilization(std::uint64_t n, std::uint64_t l,
                                        std::uint64_t b);

}  // namespace reramdl::pipeline
