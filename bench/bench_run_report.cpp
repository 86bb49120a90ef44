// End-to-end run-report exerciser: the CI producer of run_report.json and
// the standalone demo of the Obs-v2 profiling pipeline. One invocation
//
//   1. trains the small LeNet on the synthetic MNIST task (Trainer step
//      snapshots, plan-cache attribution, train.step_ns histogram),
//   2. simulates the same network lowered onto the PipeLayer chip
//      (per-bank/per-layer controller segments, NoC transfers -> the
//      chip -> bank -> layer attribution nodes),
//   3. runs a write-verify + spare-column fault campaign through a
//      CrossbarExecutor whose grids are re-labeled with the chip placement
//      ("chip/bank<b>/layer<l>"), so per-tile MVM work, spike-drive energy,
//      and verify retries fold into the same tree,
//   4. fires a mid-run transient injection, and
//   5. writes the run report (obs::write_run_report) plus a small bench
//      JSON with the self-check results.
//
// The report path comes from RERAMDL_REPORT when set (the normal CI route);
// otherwise --report=PATH (default run_report.json) is installed
// programmatically. Exits non-zero if the report is missing any of: a
// non-empty attribution tree with positive latency/energy/flops rollups, a
// non-empty timeseries, or percentile-bearing histograms.
//
// Flags: --quick (CI smoke), --out=PATH (bench JSON), --report=PATH.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/chip_sim.hpp"
#include "common/check.hpp"
#include "common/table.hpp"
#include "core/functional.hpp"
#include "mapping/planner.hpp"
#include "nn/trainer.hpp"
#include "obs/obs.hpp"
#include "workload/datasets.hpp"
#include "workload/model_zoo.hpp"

namespace {

using namespace reramdl;

constexpr std::uint64_t kCampaignSeed = 0xfa017c0de5ULL;
constexpr double kSigma = 0.05;
constexpr double kFaultRate = 1e-2;

// Shape twin of workload::make_lenet_small — the mapping/placement view of
// the exact network the executor programs, so the chip-sim segment nodes
// and the executor tile nodes land on the same attribution paths.
nn::NetworkSpec lenet_small_spec() {
  nn::NetworkSpecBuilder b("lenet_small", 1, 28, 28);
  return std::move(b.conv(8, 5, 1, 2)
                       .activation()
                       .pool(2)
                       .conv(16, 5, 1, 0)
                       .activation()
                       .pool(2)
                       .flatten()
                       .dense(64)
                       .activation()
                       .dense(10))
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_run_report.json";
  std::string report_path = "run_report.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else if (arg.rfind("--report=", 0) == 0) report_path = arg.substr(9);
    else if (arg == "--help") {
      std::cout << "usage: bench_run_report [--quick] [--out=PATH] "
                   "[--report=PATH]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg
                << "\nusage: bench_run_report [--quick] [--out=PATH] "
                   "[--report=PATH]\n";
      return 2;
    }
  }

  // RERAMDL_REPORT wins when set (it also installed the atexit writer);
  // otherwise route the report to the flag path. Either way this flips
  // metric collection on before the first instrumented site runs.
  if (!obs::report_enabled()) obs::set_report_path(report_path);
  else report_path = obs::report_path();

  // 1. Train: float LeNet on the synthetic task (same recipe as the fault
  // campaign, shortened under --quick).
  Rng rng(1200);
  nn::Sequential net = workload::make_lenet_small(rng);
  nn::Sgd opt(net.params(), 0.05f, 0.9f);
  nn::Trainer trainer(net, opt);
  Rng data_rng(1201);
  workload::DatasetConfig dc;
  dc.noise = 0.6f;
  const std::size_t samples = 512;  // test-set size also rides on this
  const int epochs = quick ? 3 : 5;
  const auto train = workload::make_classification(samples, dc, data_rng);
  const auto test = workload::make_classification(samples, dc, data_rng);
  for (int epoch = 0; epoch < epochs; ++epoch)
    trainer.train_epoch(train.images, train.labels, 16, rng);

  // 2. Chip-level simulation of the same network: lowering + live bank
  // controllers populate chip/bank<b>/layer<l> (+ chip/noc) from per-kSync
  // segment reports; each run() is one snapshot tick.
  const nn::NetworkSpec spec = lenet_small_spec();
  const arch::ChipConfig chip = arch::pipelayer_chip();
  const auto mapping = mapping::plan_under_budget(
      spec, {chip.array_rows, chip.array_cols}, chip.total_compute_arrays());
  const arch::MeshNoc noc = arch::make_mesh_for_banks(chip.banks);
  const arch::Placement placement = arch::place_snake(mapping, chip, noc);
  arch::ChipSimulator sim(chip, mapping, placement);
  arch::ChipRunReport chip_report;
  for (int i = 0; i < (quick ? 2 : 4); ++i)
    chip_report = sim.run_forward_pass();
  const arch::ChipRunReport train_report =
      sim.run_training_batch(quick ? 4 : 8);

  // 3. Fault campaign through the executor: write-verify + 16 spare
  // columns at a mid-sweep stuck-at rate, then re-label the grids with the
  // chip placement so tile-level compute attribution lands inside the
  // chip-sim tree. (Programming-time verify/remap stats are booked at
  // program() under the executor's default host/layer<l> labels — the
  // host-side view of the programming pass.)
  device::VariationParams vp;
  vp.sigma = kSigma;
  device::VariationModel vm(vp, Rng(1203));
  circuit::ProgramOptions popts;
  popts.variation = &vm;
  popts.faults.stuck_at_off_rate = kFaultRate * 0.5;
  popts.faults.stuck_at_on_rate = kFaultRate * 0.5;
  popts.faults.seed = kCampaignSeed;
  popts.write_verify = true;
  popts.defect_threshold = 1.5;
  popts.degrade = circuit::DegradePolicy::kClamp;
  // Transient population armed up front (stuck and transient faults are
  // sampled independently), so inject_at below needs no reprogram — a
  // second programming pass would re-book cumulative program stats.
  popts.faults.transient_flip_rate = 1e-5;
  core::AcceleratorConfig acfg;
  acfg.chip = chip;
  acfg.spare_cols = 16;
  core::CrossbarExecutor exec(net, acfg, popts);

  RERAMDL_CHECK_EQ(exec.num_grids(), mapping.layers.size());
  std::vector<std::string> paths;
  for (std::size_t l = 0; l < exec.num_grids(); ++l)
    paths.push_back("chip/bank" + std::to_string(placement.bank[l]) +
                    "/layer" + std::to_string(l));
  exec.set_attribution_paths(paths);

  nn::Sgd eval_opt(net.params(), 0.0f);
  nn::Trainer eval(net, eval_opt);
  const double acc_faulty =
      eval.evaluate(test.images, test.labels, 64).accuracy;

  // 4. Mid-run transients, then re-measure.
  std::size_t flips = 0;
  for (std::uint64_t step = 1; step <= 2; ++step)
    flips += exec.inject_at(step);
  const double acc_transient =
      eval.evaluate(test.images, test.labels, 64).accuracy;

  // 5. Emit the report, then self-check the invariants CI re-validates
  // from the JSON (tools/validate_obs_json.py).
  obs::write_run_report();

  auto& attr = obs::Attribution::instance();
  const double total_latency = attr.total("", "latency_ns");
  const double total_energy = attr.total("", "energy_pj");
  const double total_flops = attr.total("", "flops");
  auto& snaps = obs::Snapshotter::instance();
  auto& step_hist = obs::Registry::instance().histogram("train.step_ns");
  const double p50 = step_hist.quantile(0.50);
  const double p99 = step_hist.quantile(0.99);

  bool report_written = false;
  {
    std::ifstream in(report_path);
    report_written = in.good() && in.peek() != std::ifstream::traits_type::eof();
  }
  const bool attribution_ok = !attr.empty() && total_latency > 0.0 &&
                              total_energy > 0.0 && total_flops > 0.0;
  const bool timeseries_ok = snaps.size() > 0 && snaps.ticks() > 0;
  const bool percentiles_ok =
      step_hist.count() > 0 && p50 <= p99 && p99 <= step_hist.max();

  TablePrinter table({"section", "value"});
  table.add_row({"chip forward latency us",
                 TablePrinter::fmt(chip_report.latency_ns() / 1e3, 2)});
  table.add_row({"chip training-batch latency us",
                 TablePrinter::fmt(train_report.latency_ns() / 1e3, 2)});
  table.add_row({"attributed latency us (tree rollup)",
                 TablePrinter::fmt(total_latency / 1e3, 2)});
  table.add_row({"attributed energy uJ",
                 TablePrinter::fmt(total_energy / 1e6, 3)});
  table.add_row({"attributed gflops",
                 TablePrinter::fmt(total_flops / 1e9, 3)});
  table.add_row({"faulty accuracy", TablePrinter::fmt(acc_faulty, 4)});
  table.add_row({"post-transient accuracy",
                 TablePrinter::fmt(acc_transient, 4)});
  table.add_row({"transient flips", std::to_string(flips)});
  table.add_row({"timeseries samples", std::to_string(snaps.size())});
  table.add_row({"train.step_ns p50/p99 us",
                 TablePrinter::fmt(p50 / 1e3, 2) + " / " +
                     TablePrinter::fmt(p99 / 1e3, 2)});
  std::cout << "Run report - LeNet train + fault campaign + chip sim"
            << (quick ? " [quick]" : "") << "\n";
  table.print(std::cout);
  std::cout << "report: " << report_path
            << "  written: " << (report_written ? "yes" : "NO")
            << "  attribution: " << (attribution_ok ? "ok" : "BAD")
            << "  timeseries: " << (timeseries_ok ? "ok" : "BAD")
            << "  percentiles: " << (percentiles_ok ? "ok" : "BAD") << "\n";

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 2;
  }
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("bench", "run_report");
  w.kv("workload", "lenet_small_synthetic_mnist");
  w.kv("quick", quick);
  w.kv("seed", kCampaignSeed);
  w.kv("report_path", report_path);
  w.kv("accuracy_faulty", acc_faulty);
  w.kv("accuracy_post_transient", acc_transient);
  w.kv("transient_flips", flips);
  w.key("totals");
  w.begin_object();
  w.kv("latency_ns", total_latency);
  w.kv("energy_pj", total_energy);
  w.kv("flops", total_flops);
  w.end_object();
  w.key("timeseries");
  w.begin_object();
  w.kv("samples", static_cast<std::uint64_t>(snaps.size()));
  w.kv("ticks", snaps.ticks());
  w.kv("stride", snaps.stride());
  w.end_object();
  w.key("checks");
  w.begin_object();
  w.kv("report_written", report_written);
  w.kv("attribution_nonempty", attribution_ok);
  w.kv("timeseries_nonempty", timeseries_ok);
  w.kv("percentiles_present", percentiles_ok);
  w.end_object();
  w.end_object();
  w.finish();
  std::cout << "wrote " << out_path << "\n";
  return (report_written && attribution_ok && timeseries_ok && percentiles_ok)
             ? 0
             : 1;
}
