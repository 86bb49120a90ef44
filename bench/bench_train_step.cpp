// Training-step bench: sweeps thread counts over three training workloads
// (MLP and LeNet classification epochs, DCGAN-generator forward/backward
// steps) on the layers' plan-cached path (per-layer im2col gather / col2im
// scatter index plans, packed transposed-weight products, workspace arena).
// Verifies that every thread count produces bit-identical weights and loss
// trajectories, and that the workspace arena performs zero allocations
// after the warm-up epoch, then emits BENCH_train_step.json via the shared
// JsonWriter. Exits non-zero on any bit-identity violation or steady-state
// arena growth.
//
// Flags:
//   --quick       smaller datasets / fewer reps (CI smoke)
//   --out=PATH    JSON output path (default BENCH_train_step.json)
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "common/table.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "obs/json_writer.hpp"
#include "obs/summary.hpp"
#include "workload/datasets.hpp"
#include "workload/model_zoo.hpp"

namespace {

using namespace reramdl;
using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One training workload instance: runs whole epochs and digests the final
// model state so runs at different thread counts can be compared bitwise.
class Runner {
 public:
  virtual ~Runner() = default;
  virtual void run_epoch() = 0;
  virtual std::size_t steps_per_epoch() const = 0;
  virtual std::uint64_t digest() const = 0;
};

std::uint64_t digest_params(nn::Sequential& net, std::uint64_t h) {
  for (const auto& p : net.params())
    h = fnv1a(p.value->data(), p.value->numel() * sizeof(float), h);
  return h;
}

// Classification epoch via the Trainer (exercises Conv2D/Dense plans, the
// staging workspace, and the partial tail batch).
class ClassifierRunner : public Runner {
 public:
  ClassifierRunner(nn::Sequential net, workload::Dataset data,
                   std::size_t batch)
      : net_(std::move(net)),
        opt_(net_.params(), 0.05f, 0.9f),
        trainer_(net_, opt_),
        data_(std::move(data)),
        batch_(batch),
        epoch_rng_(77) {}

  void run_epoch() override {
    const auto s =
        trainer_.train_epoch(data_.images, data_.labels, batch_, epoch_rng_);
    loss_digest_ = fnv1a(&s.mean_loss, sizeof(s.mean_loss), loss_digest_);
  }
  std::size_t steps_per_epoch() const override {
    return (data_.images.shape()[0] + batch_ - 1) / batch_;
  }
  std::uint64_t digest() const override {
    return digest_params(const_cast<nn::Sequential&>(net_), loss_digest_);
  }

 private:
  nn::Sequential net_;
  nn::Sgd opt_;
  nn::Trainer trainer_;
  workload::Dataset data_;
  std::size_t batch_;
  Rng epoch_rng_;
  std::uint64_t loss_digest_ = 0xcbf29ce484222325ULL;
};

// DCGAN-generator steps (exercises the TransposedConv2D dilated plans):
// forward a fixed latent batch, backprop a fixed output gradient, update.
class GeneratorRunner : public Runner {
 public:
  GeneratorRunner(nn::Sequential net, std::size_t batch, std::size_t steps)
      : net_(std::move(net)), opt_(net_.params(), 0.01f, 0.9f), steps_(steps) {
    Rng rng(88);
    latent_ = Tensor::uniform(Shape{batch, 32}, rng, -1.0f, 1.0f);
    const Tensor y = net_.forward(latent_, /*train=*/false);
    gout_ = Tensor::uniform(y.shape(), rng, -0.1f, 0.1f);
  }

  void run_epoch() override {
    for (std::size_t i = 0; i < steps_; ++i) {
      opt_.zero_grad();
      net_.forward(latent_, /*train=*/true);
      net_.backward(gout_);
      opt_.step();
    }
  }
  std::size_t steps_per_epoch() const override { return steps_; }
  std::uint64_t digest() const override {
    return digest_params(const_cast<nn::Sequential&>(net_),
                         0xcbf29ce484222325ULL);
  }

 private:
  nn::Sequential net_;
  nn::Sgd opt_;
  std::size_t steps_;
  Tensor latent_, gout_;
};

struct WorkloadDef {
  std::string name;
  std::size_t samples, batch;  // classification; generator uses batch+steps
  bool is_generator = false;
};

std::unique_ptr<Runner> make_runner(const WorkloadDef& wl) {
  Rng net_rng(2026);
  if (wl.is_generator) {
    auto net = workload::make_dcgan_g_mnist(net_rng, 32);
    return std::make_unique<GeneratorRunner>(std::move(net), wl.batch,
                                             wl.samples / wl.batch);
  }
  auto net = wl.name.rfind("mlp", 0) == 0 ? workload::make_mlp_mnist(net_rng)
                                          : workload::make_lenet_small(net_rng);
  Rng data_rng(2027);
  return std::make_unique<ClassifierRunner>(
      std::move(net), workload::make_mnist_like(wl.samples, data_rng),
      wl.batch);
}

struct Meas {
  obs::SampleSummary step_ms;       // per-rep step latencies (all retained)
  std::uint64_t digest = 0;         // final model state
  std::uint64_t steady_growth = 0;  // arena growths after warm-up

  // Best-of-reps latency — the headline number tables and speedups use.
  double best_ms() const { return step_ms.min(); }
};

// Fresh model, one warm-up epoch (plan build + arena sizing), then `reps`
// timed epochs. All runs execute 1 + reps epochs so digests are comparable.
Meas run_workload(const WorkloadDef& wl, std::size_t reps) {
  auto runner = make_runner(wl);
  runner->run_epoch();  // warm-up
  const auto growth0 = scratch::arena_growth_events();
  Meas m;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    runner->run_epoch();
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count() /
        static_cast<double>(runner->steps_per_epoch());
    m.step_ms.add(ms);
  }
  m.steady_growth = scratch::arena_growth_events() - growth0;
  m.digest = runner->digest();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_train_step.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else if (arg == "--help") {
      std::cout << "usage: bench_train_step [--quick] [--out=PATH]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg
                << "\nusage: bench_train_step [--quick] [--out=PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const std::size_t reps = quick ? 1 : 2;
  // Sample counts leave a partial tail batch on the classification epochs
  // (e.g. 200 = 3 x 64 + 8) so the tail-batch path is always exercised.
  std::vector<WorkloadDef> workloads =
      quick ? std::vector<WorkloadDef>{{"mlp_b64", 136, 64},
                                       {"lenet_b16", 40, 16},
                                       {"dcgan_g_b8", 16, 8, true}}
            : std::vector<WorkloadDef>{{"mlp_b64", 200, 64},
                                       {"lenet_b32", 104, 32},
                                       {"dcgan_g_b16", 48, 16, true}};

  // results[workload][thread].
  std::vector<std::vector<Meas>> results(
      workloads.size(), std::vector<Meas>(thread_counts.size()));
  for (std::size_t w = 0; w < workloads.size(); ++w)
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      parallel::set_thread_count(thread_counts[t]);
      results[w][t] = run_workload(workloads[w], reps);
    }
  parallel::set_thread_count(0);  // restore environment default

  // Bit-identity: every thread count's run of a workload performed the same
  // number of identical-shape epochs, so all digests must agree.
  bool bit_identical = true;
  std::uint64_t steady_growth = 0;
  for (std::size_t w = 0; w < workloads.size(); ++w)
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      if (results[w][t].digest != results[w][0].digest) bit_identical = false;
      steady_growth += results[w][t].steady_growth;
    }

  TablePrinter table(
      {"kernel", "1t ms/step", "2t ms/step", "4t ms/step", "8t ms/step"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const auto& r = results[w];
    table.add_row({workloads[w].name, TablePrinter::fmt(r[0].best_ms(), 2),
                   TablePrinter::fmt(r[1].best_ms(), 2),
                   TablePrinter::fmt(r[2].best_ms(), 2),
                   TablePrinter::fmt(r[3].best_ms(), 2)});
  }

  const unsigned hc = std::thread::hardware_concurrency();
  std::cout << "Training-step plan-cache sweep"
            << (quick ? " (quick)" : "") << ", host concurrency " << hc
            << "\n";
  table.print(std::cout);
  std::cout << "  bit-identical: " << (bit_identical ? "yes" : "NO")
            << "  steady-state arena growths: " << steady_growth
            << (steady_growth == 0 ? "" : "  (expected 0)") << "\n";

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 2;
  }
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("bench", "train_step");
  w.kv("quick", quick);
  w.kv("host_hardware_concurrency", hc);
  w.key("threads");
  w.begin_array();
  for (const std::size_t t : thread_counts) w.value(t);
  w.end_array();
  w.kv("bit_identical", bit_identical);
  w.kv("arena_steady_growth_events", steady_growth);
  w.key("kernels");
  w.begin_array();
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& r = results[i];
    w.begin_object();
    w.kv("name", workloads[i].name);
    w.kv("batch", workloads[i].batch);
    w.key("time_ms");
    w.begin_array();
    for (const auto& m : r) w.value(m.best_ms());
    w.end_array();
    // Full per-rep distribution per thread count (shared obs helper:
    // count/min/max/mean/p50/p90/p99 over the retained samples).
    w.key("step_ms_summary");
    w.begin_array();
    for (const auto& m : r) m.step_ms.write_json(w);
    w.end_array();
    w.key("speedup_vs_1t");
    w.begin_array();
    for (const auto& m : r) w.value(r[0].best_ms() / m.best_ms());
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.finish();
  std::cout << "wrote " << out_path << "\n";
  return (bit_identical && steady_growth == 0) ? 0 : 1;
}
