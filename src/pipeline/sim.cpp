#include "pipeline/sim.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace reramdl::pipeline {

std::size_t PipelineSim::add_stage(std::string name) {
  stage_names_.push_back(std::move(name));
  next_free_.push_back(0);
  return stage_names_.size() - 1;
}

std::uint64_t PipelineSim::add_task(std::size_t stage, std::uint64_t ready,
                                    const std::string& item) {
  RERAMDL_CHECK_LT(stage, next_free_.size());
  const std::uint64_t start = std::max(ready, next_free_[stage]);
  next_free_[stage] = start + 1;
  if (trace_enabled_) trace_.push_back({stage, start, item});
  return start + 1;
}

std::uint64_t PipelineSim::add_chain(const std::vector<std::size_t>& stages,
                                     std::uint64_t ready,
                                     const std::string& item) {
  std::uint64_t t = ready;
  for (const std::size_t s : stages) t = add_task(s, t, item);
  return t;
}

std::string PipelineSim::gantt() const {
  std::uint64_t horizon = 0;
  for (const auto& e : trace_) horizon = std::max(horizon, e.start + 1);
  std::size_t name_w = 0;
  for (const auto& n : stage_names_) name_w = std::max(name_w, n.size());

  std::ostringstream os;
  for (std::size_t s = 0; s < stage_names_.size(); ++s) {
    std::string row(horizon, '.');
    for (const auto& e : trace_)
      if (e.stage == s)
        row[e.start] = e.item.empty() ? '#' : e.item.front();
    os << stage_names_[s] << std::string(name_w - stage_names_[s].size(), ' ')
       << " |" << row << "|\n";
  }
  return os.str();
}

void PipelineSim::emit_obs_spans(const std::string& label) const {
  if (!obs::trace_enabled() || trace_.empty()) return;
  const int pid = obs::alloc_virtual_pid(label);
  for (std::size_t s = 0; s < stage_names_.size(); ++s)
    obs::name_thread(pid, static_cast<int>(s), stage_names_[s]);
  for (const TraceEntry& e : trace_)
    obs::emit_complete(e.item.empty() ? stage_names_[e.stage] : e.item,
                       "pipeline", static_cast<double>(e.start), 1.0,
                       static_cast<int>(e.stage), pid);
}

// ---- PipeLayer --------------------------------------------------------------

namespace {

// "F3", "D0": built by appending, because GCC 12 flags the
// `"F" + std::to_string(i)` form with a false -Wrestrict warning.
std::string stage_name(char prefix, std::uint64_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

}  // namespace

SimResult sim_pipelayer_training(std::uint64_t n, std::uint64_t l,
                                 std::uint64_t b, bool want_trace) {
  RERAMDL_CHECK_GT(l, 0u);
  RERAMDL_CHECK_GT(b, 0u);
  RERAMDL_CHECK_GT(n, 0u);
  RERAMDL_CHECK_EQ(n % b, 0u);

  const bool obs_trace = obs::trace_enabled();
  PipelineSim sim;
  sim.enable_trace(want_trace || obs_trace);
  std::vector<std::size_t> chain;
  // Forward stages F1..FL, then backward stages D0 (loss/output error) .. DL.
  for (std::uint64_t i = 1; i <= l; ++i)
    chain.push_back(sim.add_stage(stage_name('F', i)));
  for (std::uint64_t i = 0; i <= l; ++i)
    chain.push_back(sim.add_stage(stage_name('D', i)));
  const std::size_t update = sim.add_stage("U");

  std::uint64_t batch_start = 0;
  std::uint64_t total = 0;
  for (std::uint64_t first = 0; first < n; first += b) {
    std::uint64_t last_done = 0;
    for (std::uint64_t i = 0; i < b; ++i) {
      const std::string item(1, static_cast<char>('0' + (i % 10)));
      last_done = std::max(last_done, sim.add_chain(chain, batch_start, item));
    }
    total = sim.add_task(update, last_done, "U");
    batch_start = total;  // next batch enters after the weight update
  }
  if (obs_trace) sim.emit_obs_spans("pipelayer_training");
  SimResult r;
  r.cycles = total;
  if (want_trace) r.gantt = sim.gantt();
  return r;
}

SimResult sim_pipelayer_inference(std::uint64_t n, std::uint64_t l,
                                  bool want_trace) {
  RERAMDL_CHECK_GT(l, 0u);
  RERAMDL_CHECK_GT(n, 0u);
  const bool obs_trace = obs::trace_enabled();
  PipelineSim sim;
  sim.enable_trace(want_trace || obs_trace);
  std::vector<std::size_t> chain;
  for (std::uint64_t i = 1; i <= l; ++i)
    chain.push_back(sim.add_stage(stage_name('F', i)));
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string item(1, static_cast<char>('0' + (i % 10)));
    total = std::max(total, sim.add_chain(chain, 0, item));
  }
  if (obs_trace) sim.emit_obs_spans("pipelayer_inference");
  SimResult r;
  r.cycles = total;
  if (want_trace) r.gantt = sim.gantt();
  return r;
}

// ---- ReGAN ------------------------------------------------------------------

namespace {

struct ReGanStages {
  std::vector<std::size_t> g_fwd, g_bwd;
  std::vector<std::size_t> d_fwd, d_bwd;      // primary D resources
  std::size_t d_loss = 0;
  std::vector<std::size_t> d_fwd2, d_bwd2;    // duplicated D (SP)
  std::size_t d_loss2 = 0;
  std::vector<std::size_t> d_bwd_cs;          // forked backward branch (CS)
  std::size_t d_loss_cs = 0;
  std::size_t upd_d = 0, upd_g = 0;
};

ReGanStages build_stages(PipelineSim& sim, const GanShape& s,
                         const ReGanOptions& opts) {
  ReGanStages st;
  for (std::uint64_t i = 1; i <= s.l_g; ++i)
    st.g_fwd.push_back(sim.add_stage("GF" + std::to_string(i)));
  for (std::uint64_t i = 1; i <= s.l_d; ++i)
    st.d_fwd.push_back(sim.add_stage("DF" + std::to_string(i)));
  st.d_loss = sim.add_stage("DL");
  for (std::uint64_t i = 1; i <= s.l_d; ++i)
    st.d_bwd.push_back(sim.add_stage("DB" + std::to_string(i)));
  for (std::uint64_t i = 1; i <= s.l_g; ++i)
    st.g_bwd.push_back(sim.add_stage("GB" + std::to_string(i)));
  if (opts.spatial_parallelism) {
    for (std::uint64_t i = 1; i <= s.l_d; ++i)
      st.d_fwd2.push_back(sim.add_stage("df" + std::to_string(i)));
    st.d_loss2 = sim.add_stage("dl");
    for (std::uint64_t i = 1; i <= s.l_d; ++i)
      st.d_bwd2.push_back(sim.add_stage("db" + std::to_string(i)));
  }
  if (opts.computation_sharing) {
    st.d_loss_cs = sim.add_stage("CL");
    for (std::uint64_t i = 1; i <= s.l_d; ++i)
      st.d_bwd_cs.push_back(sim.add_stage("CB" + std::to_string(i)));
  }
  st.upd_d = sim.add_stage("UD");
  st.upd_g = sim.add_stage("UG");
  return st;
}

std::vector<std::size_t> concat(std::initializer_list<std::vector<std::size_t>> parts,
                                std::initializer_list<std::size_t> singles = {}) {
  std::vector<std::size_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  for (const auto s : singles) out.push_back(s);
  return out;
}

}  // namespace

SimResult sim_regan_batch(const GanShape& s, const ReGanOptions& opts,
                          bool want_trace) {
  RERAMDL_CHECK_GT(s.l_d, 0u);
  RERAMDL_CHECK_GT(s.l_g, 0u);
  RERAMDL_CHECK_GT(s.b, 0u);

  const bool obs_trace = obs::trace_enabled();
  PipelineSim sim;
  sim.enable_trace(want_trace || obs_trace);
  const ReGanStages st = build_stages(sim, s, opts);

  // Phase ①: real samples through D (duplicated D when SP is on).
  std::vector<std::size_t> chain1 =
      opts.spatial_parallelism
          ? concat({st.d_fwd2}, {st.d_loss2})
          : concat({st.d_fwd}, {st.d_loss});
  {
    const auto& bwd = opts.spatial_parallelism ? st.d_bwd2 : st.d_bwd;
    chain1.insert(chain1.end(), bwd.begin(), bwd.end());
  }

  std::uint64_t phase1_done = 0;
  for (std::uint64_t i = 0; i < s.b; ++i)
    phase1_done = std::max(phase1_done, sim.add_chain(chain1, 0, "r"));

  // Phase ② (and, under CS, the shared ③): generated samples through G + D.
  // Without SP, ② must wait for ① to drain from the (shared) D pipeline.
  const std::uint64_t phase2_start =
      opts.spatial_parallelism ? 0 : phase1_done;

  std::uint64_t phase2_done = 0;   // branch feeding the D update
  std::uint64_t phase3_done = 0;   // branch feeding the G update (CS only)
  const std::vector<std::size_t> shared_fwd = concat({st.g_fwd, st.d_fwd});
  for (std::uint64_t i = 0; i < s.b; ++i) {
    const std::uint64_t fwd_done = sim.add_chain(shared_fwd, phase2_start, "f");
    // Loss + backward for the D-update branch (label '0').
    std::uint64_t t = sim.add_task(st.d_loss, fwd_done, "f");
    for (const auto stg : st.d_bwd) t = sim.add_task(stg, t, "f");
    phase2_done = std::max(phase2_done, t);
    if (opts.computation_sharing) {
      // Forked branch with the inaccurate label ('1'), continuing into G.
      std::uint64_t u = sim.add_task(st.d_loss_cs, fwd_done, "g");
      for (const auto stg : st.d_bwd_cs) u = sim.add_task(stg, u, "g");
      for (const auto stg : st.g_bwd) u = sim.add_task(stg, u, "g");
      phase3_done = std::max(phase3_done, u);
    }
  }

  // D update (T11): needs the stored derivatives of ① and ②.
  const std::uint64_t upd_d_done =
      sim.add_task(st.upd_d, std::max(phase1_done, phase2_done), "U");

  // Phase ③ when not shared: a fresh pass through G + D + backward into G.
  if (!opts.computation_sharing) {
    const std::vector<std::size_t> chain3 =
        concat({st.g_fwd, st.d_fwd}, {st.d_loss});
    for (std::uint64_t i = 0; i < s.b; ++i) {
      std::uint64_t t = sim.add_chain(chain3, upd_d_done, "g");
      for (const auto stg : st.d_bwd) t = sim.add_task(stg, t, "g");
      for (const auto stg : st.g_bwd) t = sim.add_task(stg, t, "g");
      phase3_done = std::max(phase3_done, t);
    }
  }

  const std::uint64_t upd_g_done = sim.add_task(st.upd_g, phase3_done, "U");

  if (obs_trace) sim.emit_obs_spans("regan_batch");
  SimResult r;
  r.cycles = std::max(upd_d_done, upd_g_done);
  if (want_trace) r.gantt = sim.gantt();
  return r;
}

SimResult sim_regan_training(std::uint64_t n, const GanShape& shape,
                             const ReGanOptions& opts) {
  RERAMDL_CHECK_GT(shape.b, 0u);
  RERAMDL_CHECK_EQ(n % shape.b, 0u);
  // Batches do not overlap (both weight updates gate the next batch), so the
  // total is additive.
  const std::uint64_t per_batch = sim_regan_batch(shape, opts).cycles;
  SimResult r;
  r.cycles = (n / shape.b) * per_batch;
  return r;
}

}  // namespace reramdl::pipeline
