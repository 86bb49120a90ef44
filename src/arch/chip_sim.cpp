#include "arch/chip_sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace reramdl::arch {

namespace {

// Trace name of a NoC transfer, "b3->b5" or "L1->L2". Built by appending,
// because GCC 12 flags the `"b" + std::to_string(x)` form with a false
// -Wrestrict warning.
std::string link_name(char kind, std::size_t from, std::size_t to) {
  std::string name(1, kind);
  name += std::to_string(from);
  name += "->";
  name += kind;
  name += std::to_string(to);
  return name;
}

}  // namespace

ChipSimulator::ChipSimulator(const ChipConfig& chip,
                             mapping::NetworkMapping mapping,
                             Placement placement)
    : ChipSimulator(chip, std::move(mapping), std::move(placement), chip.noc) {}

ChipSimulator::ChipSimulator(const ChipConfig& chip,
                             mapping::NetworkMapping mapping,
                             Placement placement, NocParams noc_params)
    : chip_(chip),
      mapping_(std::move(mapping)),
      placement_(std::move(placement)),
      noc_(make_mesh_for_banks(chip.banks, noc_params)) {
  RERAMDL_CHECK_EQ(placement_.bank.size(), mapping_.layers.size());
  for (const std::size_t b : placement_.bank)
    RERAMDL_CHECK_LT(b, noc_.num_banks());
  for (const auto& spill : placement_.spill)
    for (const std::size_t b : spill) RERAMDL_CHECK_LT(b, noc_.num_banks());
}

std::vector<std::vector<std::size_t>> ChipSimulator::layers_by_bank() const {
  std::vector<std::vector<std::size_t>> by_bank(noc_.num_banks());
  for (std::size_t i = 0; i < mapping_.layers.size(); ++i)
    by_bank[placement_.bank[i]].push_back(i);
  return by_bank;
}

ChipRunReport ChipSimulator::run(bool training, std::size_t batch) {
  RERAMDL_TRACE_SCOPE("chip.run", "arch");
  ChipRunReport report;
  const auto by_bank = layers_by_bank();

  // Banks are independent machines (own Bank model, own controller, own
  // lowered program), exactly the concurrency the chip exploits in hardware
  // — so simulate them concurrently too. Per-bank reports land in a vector
  // indexed by bank id and merge serially below in ascending bank order,
  // keeping the chip report identical for any RERAMDL_THREADS.
  std::vector<ExecutionReport> bank_reports(by_bank.size());
  std::vector<char> bank_active(by_bank.size(), 0);
  // Per-kSync segment capture feeds the per-layer attribution below; each
  // bank writes only its own slot, and the serial fold order downstream is
  // fixed, so the attribution tree is identical for any RERAMDL_THREADS.
  const bool attributing = obs::metrics_enabled();
  std::vector<std::vector<ExecutionReport>> bank_segments(
      attributing ? by_bank.size() : 0);
  parallel::parallel_for(0, by_bank.size(), 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t bank_id = b0; bank_id < b1; ++bank_id) {
      if (by_bank[bank_id].empty()) continue;

      // This bank's share of the network, lowered and executed in place.
      mapping::NetworkMapping local;
      local.config = mapping_.config;
      for (const std::size_t idx : by_bank[bank_id])
        local.layers.push_back(mapping_.layers[idx]);

      // Programs address banks by their controller id; reuse the physical
      // bank id modulo the ISA's 6-bit field.
      const std::size_t isa_bank = bank_id % 64;
      const auto program =
          training ? lower_training_batch(local, chip_, isa_bank, batch)
                   : lower_forward_pass(local, chip_, isa_bank);

      Bank bank(chip_, isa_bank);
      BankController controller(bank);
      bank_reports[bank_id] = controller.run(
          program, attributing ? &bank_segments[bank_id] : nullptr);
      bank_active[bank_id] = 1;
    }
  });

  double critical_raw_ns = 0.0;
  for (std::size_t bank_id = 0; bank_id < by_bank.size(); ++bank_id) {
    if (!bank_active[bank_id]) continue;
    ++report.banks_used;
    const ExecutionReport& r = bank_reports[bank_id];
    report.instructions += r.instructions;
    report.total_bank_ns += r.busy_ns;
    critical_raw_ns = std::max(critical_raw_ns, r.busy_ns);
    // Reserved maintenance slots (set_maintenance_slots) stretch the
    // bank's occupied window; with none configured this is r.busy_ns
    // exactly, preserving the historical report bit-for-bit.
    report.critical_bank_ns =
        std::max(report.critical_bank_ns, stretched_ns(r.busy_ns));
    report.energy.merge(r.energy);
  }
  report.maint_ns = report.critical_bank_ns - critical_raw_ns;

  // Inter-bank activation transfers along the layer chain. Training ships
  // activations forward and errors backward (2x per sample).
  const bool tracing = obs::trace_enabled();
  if (tracing && trace_pid_ < 0) {
    trace_pid_ = obs::alloc_virtual_pid("chip_sim");
    for (std::size_t b = 0; b < by_bank.size(); ++b)
      if (!by_bank[b].empty())
        obs::name_thread(trace_pid_, static_cast<int>(b),
                         "bank" + std::to_string(b));
    obs::name_thread(trace_pid_, static_cast<int>(by_bank.size()), "noc");
  }
  // NoC transfers serialize after the critical bank in the latency model;
  // the trace lays them out the same way.
  double noc_cursor_us = sim_epoch_us_ + report.critical_bank_ns * 1e-3;
  const double passes = training ? 2.0 * static_cast<double>(batch)
                                 : 1.0;
  if (noc_.params().event_model_active()) {
    // Link-level event model: per-pass transfer chains (spill gathers plus
    // inter-layer activations) simulated on the per-direction link
    // timelines, so chains of different passes overlap where their routes
    // are disjoint and serialize where they share links. Training ships
    // batch forward chains and batch reversed error chains. noc_ns is the
    // simulated makespan, not a serialized sum.
    const auto base = sample_transfers(placement_, mapping_, 1);
    const std::size_t chains =
        training ? 2 * batch : 1;
    std::vector<NocTransferRequest> requests;
    requests.reserve(base.size() * chains);
    for (std::size_t c = 0; c < chains; ++c) {
      const std::ptrdiff_t offset =
          static_cast<std::ptrdiff_t>(requests.size());
      const bool backward = training && c % 2 == 1;
      for (NocTransferRequest r : base) {
        if (backward) std::swap(r.from, r.to);
        if (r.dep >= 0) r.dep += offset;
        requests.push_back(r);
      }
    }
    const NocSimReport sim = noc_.simulate(requests);
    report.noc_ns = sim.makespan_ns;
    double noc_pj = 0.0;
    for (const auto& r : requests)
      noc_pj += noc_.transfer_energy_pj(r.from, r.to, r.bytes);
    report.energy.add("noc", noc_pj);
    if (tracing) {
      for (std::size_t t = 0; t < requests.size(); ++t) {
        const auto& timing = sim.transfers[t];
        obs::emit_complete(
            link_name('b', requests[t].from, requests[t].to), "noc",
            noc_cursor_us + timing.start_ns * 1e-3,
            (timing.done_ns - timing.start_ns) * 1e-3,
            static_cast<int>(by_bank.size()), trace_pid_);
      }
      noc_cursor_us += sim.makespan_ns * 1e-3;
    }
    if (attributing) {
      // Per-link occupancy under chip/noc, keyed busy_ns/transfers so the
      // chip-level latency_ns rollup is untouched.
      auto& attr = obs::Attribution::instance();
      for (std::size_t l = 0; l < sim.links.size(); ++l) {
        if (sim.links[l].transfers == 0) continue;
        const std::string path = "chip/noc/" + noc_.link_name(l);
        attr.add(path, "busy_ns", sim.links[l].busy_ns);
        attr.add(path, "transfers",
                 static_cast<double>(sim.links[l].transfers));
      }
      auto& reg = obs::Registry::instance();
      reg.gauge("chip.noc.max_link_utilization")
          .set(sim.max_link_utilization());
      reg.gauge("chip.noc.queue_ns").set(sim.queue_ns);
      static obs::Counter& smart_segments =
          reg.counter("chip.noc.smart_segments");
      smart_segments.add(static_cast<double>(sim.smart_segments));
    }
  } else {
    // Closed-form uncontended path: the pre-event-model cost, preserved
    // bit-exactly for the default NocParams.
    for (std::size_t i = 0; i + 1 < mapping_.layers.size(); ++i) {
      const std::size_t from = placement_.bank[i];
      const std::size_t to = placement_.bank[i + 1];
      const std::size_t bytes = 4 * mapping_.layers[i].spec.out_size();
      const double transfer_ns =
          passes * noc_.transfer_latency_ns(from, to, bytes);
      report.noc_ns += transfer_ns;
      report.energy.add("noc",
                        passes * noc_.transfer_energy_pj(from, to, bytes));
      if (tracing) {
        obs::emit_complete(link_name('L', i, i + 1), "noc", noc_cursor_us,
                           transfer_ns * 1e-3,
                           static_cast<int>(by_bank.size()), trace_pid_);
        noc_cursor_us += transfer_ns * 1e-3;
      }
    }
  }

  if (tracing) {
    // Per-bank busy windows on the simulated timeline; all banks start the
    // run together, each runs for its own busy time.
    for (std::size_t b = 0; b < by_bank.size(); ++b) {
      if (!bank_active[b]) continue;
      obs::emit_complete(training ? "train_batch" : "forward", "bank",
                         sim_epoch_us_, bank_reports[b].busy_ns * 1e-3,
                         static_cast<int>(b), trace_pid_);
    }
    sim_epoch_us_ += report.latency_ns() * 1e-3;
  }

  if (attributing) {
    // Fold the per-bank segment reports into the chip -> bank -> layer
    // attribution tree. Lowering emits one kSync-terminated segment per
    // layer pass (the forward prologue's CFG instructions ride in the first
    // segment); a training program appends a final updates+SYNC segment,
    // booked under the bank's "update" node. Latency here is per-node work
    // (busy time), so the tree rollup reconciles exactly — the chip-level
    // critical-path latency stays in the chip.latency_ns gauge.
    auto& attr = obs::Attribution::instance();
    for (std::size_t bank_id = 0; bank_id < by_bank.size(); ++bank_id) {
      if (!bank_active[bank_id]) continue;
      const auto& lyr = by_bank[bank_id];
      const std::string bank_path = "chip/bank" + std::to_string(bank_id);
      const auto& segs = bank_segments[bank_id];
      const std::size_t layer_segments =
          training ? 3 * batch * lyr.size() : lyr.size();
      for (std::size_t s = 0; s < segs.size(); ++s) {
        const std::string path =
            s < layer_segments
                ? bank_path + "/layer" + std::to_string(lyr[s % lyr.size()])
                : bank_path + "/update";
        attr.add(path, "latency_ns", segs[s].busy_ns);
        attr.add(path, "energy_pj", segs[s].energy.total_pj());
        attr.add(path, "instructions",
                 static_cast<double>(segs[s].instructions));
      }
    }
    attr.add("chip/noc", "latency_ns", report.noc_ns);
    attr.add("chip/noc", "energy_pj", report.energy.component_pj("noc"));

    auto& reg = obs::Registry::instance();
    static obs::Counter& runs = reg.counter("chip.runs");
    static obs::Counter& instructions = reg.counter("chip.instructions");
    runs.add();
    instructions.add(report.instructions);
    reg.gauge("chip.latency_ns").set(report.latency_ns());
    // Energy-breakdown snapshot: one gauge per component, last run wins.
    for (const auto& [component, pj] : report.energy.breakdown())
      reg.gauge("chip.energy_pj." + component).set(pj);
  }
  // Each chip run is one simulated step — the Snapshotter's primary clock
  // for chip-sim-driven workloads (no-op when metrics are off).
  obs::snapshot_tick();
  return report;
}

void ChipSimulator::set_maintenance_slots(double period_ns, double len_ns) {
  RERAMDL_CHECK_GE(period_ns, 0.0);
  RERAMDL_CHECK_GE(len_ns, 0.0);
  if (period_ns > 0.0) RERAMDL_CHECK_LT(len_ns, period_ns);
  maint_period_ns_ = period_ns;
  maint_len_ns_ = len_ns;
}

double ChipSimulator::stretched_ns(double busy_ns) const {
  if (maint_period_ns_ <= 0.0 || maint_len_ns_ <= 0.0) return busy_ns;
  // Every (period - len) of demand time crossed inserts one len_ns slot:
  // the bank alternates usable stretches and reserved windows.
  const double usable = maint_period_ns_ - maint_len_ns_;
  const double slots = std::floor(busy_ns / usable);
  return busy_ns + slots * maint_len_ns_;
}

ChipRunReport ChipSimulator::run_forward_pass() {
  return run(/*training=*/false, 1);
}

ChipRunReport ChipSimulator::run_training_batch(std::size_t batch) {
  RERAMDL_CHECK_GT(batch, 0u);
  return run(/*training=*/true, batch);
}

}  // namespace reramdl::arch
