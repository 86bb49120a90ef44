// Host-parallel scaling bench: sweeps RERAMDL thread counts {1, 2, 4, 8}
// over a Table-1-scale PipeLayer workload (the im2col GEMMs, crossbar-grid
// MVMs, conv forward/backward, and concurrent bank simulation that dominate
// bench_table1_* and bench_chip_sim wall-clock) and emits
// BENCH_parallel_scaling.json with the per-kernel breakdown and geomean
// speedup. Every kernel's output is hashed per thread count; the JSON
// records whether all sweeps were bit-identical (the engine's determinism
// contract says they must be).
//
// Flags:
//   --quick       smaller problem sizes (CI smoke; seconds instead of minutes)
//   --out=PATH    JSON output path (default BENCH_parallel_scaling.json)
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip_sim.hpp"
#include "arch/placement.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "mapping/planner.hpp"
#include "nn/conv2d.hpp"
#include "obs/json_writer.hpp"
#include "tensor/ops.hpp"
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

struct KernelResult {
  double ms = 0.0;
  std::uint64_t digest = 0;
};

// One measured kernel: run() returns a digest of its outputs; the bench
// times the call and checks digests match across thread counts.
struct Kernel {
  std::string name;
  std::function<std::uint64_t()> run;
};

struct Sizes {
  // Im2col GEMM of VGG-D conv3_1 (56x56 patches of 3x3x128 against 256
  // kernels) — the largest recurring GEMM shape in the Table-1 mix.
  std::size_t gemm_m, gemm_k, gemm_n;
  // Weight matrix spread over 128x128 crossbar tiles, PipeLayer array size.
  std::size_t grid_rows, grid_cols, grid_mvms;
  // Conv layer (AlexNet-interior scale) forward + backward.
  std::size_t conv_batch, conv_c, conv_hw, conv_out;
  std::size_t chip_batch;
};

Sizes full_sizes() { return {3136, 1152, 256, 1152, 512, 12, 8, 64, 28, 128, 4}; }
Sizes quick_sizes() { return {256, 288, 64, 288, 128, 4, 2, 16, 14, 32, 1}; }

std::vector<Kernel> build_kernels(const Sizes& sz) {
  std::vector<Kernel> kernels;

  // Shared deterministic inputs, generated once so every thread-count sweep
  // sees identical data.
  Rng rng(2018);
  auto a = std::make_shared<Tensor>(
      Tensor::uniform(Shape{sz.gemm_m, sz.gemm_k}, rng, -1.0f, 1.0f));
  auto b = std::make_shared<Tensor>(
      Tensor::uniform(Shape{sz.gemm_k, sz.gemm_n}, rng, -1.0f, 1.0f));
  auto g = std::make_shared<Tensor>(
      Tensor::uniform(Shape{sz.gemm_m, sz.gemm_n}, rng, -1.0f, 1.0f));

  kernels.push_back({"matmul_im2col_gemm", [a, b] {
                       const Tensor c = ops::matmul(*a, *b);
                       return fnv1a(c.data(), c.numel() * sizeof(float),
                                    0xcbf29ce484222325ULL);
                     }});
  kernels.push_back({"matmul_transposed_b_backward_data", [g, b] {
                       const Tensor c = ops::matmul_transposed_b(*g, *b);
                       return fnv1a(c.data(), c.numel() * sizeof(float),
                                    0xcbf29ce484222325ULL);
                     }});
  kernels.push_back({"matmul_transposed_a_backward_weights", [a, g] {
                       const Tensor c = ops::matmul_transposed_a(*a, *g);
                       return fnv1a(c.data(), c.numel() * sizeof(float),
                                    0xcbf29ce484222325ULL);
                     }});

  {
    Rng wrng(7);
    auto w = std::make_shared<Tensor>(Tensor::uniform(
        Shape{sz.grid_rows, sz.grid_cols}, wrng, -0.5f, 0.5f));
    auto xs = std::make_shared<std::vector<Tensor>>();
    for (std::size_t v = 0; v < sz.grid_mvms; ++v) {
      Tensor x(Shape{1, sz.grid_rows});
      for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(wrng.uniform(-1.0, 1.0));
      xs->push_back(std::move(x));
    }
    kernels.push_back({"crossbar_grid_mvm", [w, xs] {
                         circuit::CrossbarConfig cfg;  // 128x128 PipeLayer arrays
                         circuit::CrossbarGrid grid(cfg);
                         grid.program(*w, 1.0);
                         std::uint64_t h = 0xcbf29ce484222325ULL;
                         for (const auto& x : *xs) {
                           const Tensor y = grid.compute_batch(x, 1.0);
                           h = fnv1a(y.data(), y.numel() * sizeof(float), h);
                         }
                         return h;
                       }});
  }

  {
    Rng crng(11);
    auto x = std::make_shared<Tensor>(Tensor::uniform(
        Shape{sz.conv_batch, sz.conv_c, sz.conv_hw, sz.conv_hw}, crng, -1.0f,
        1.0f));
    const std::size_t conv_out = sz.conv_out;
    kernels.push_back({"conv2d_forward_backward", [x, conv_out] {
                         Rng lrng(3);
                         const std::size_t c = (*x).shape()[1];
                         const std::size_t hw = (*x).shape()[2];
                         nn::Conv2D conv(c, hw, hw, conv_out, 3, 1, 1, lrng);
                         const Tensor y = conv.forward(*x, /*train=*/true);
                         const Tensor gx = conv.backward(y);
                         std::uint64_t h = fnv1a(
                             y.data(), y.numel() * sizeof(float),
                             0xcbf29ce484222325ULL);
                         return fnv1a(gx.data(), gx.numel() * sizeof(float), h);
                       }});
  }

  {
    // The per-batch cost model is cheap, so a single run is timer noise;
    // the simulator is built once and the kernel times a loop of batches,
    // each of which fans its banks out to the pool.
    const std::size_t chip_batch = sz.chip_batch;
    const std::size_t chip_reps = sz.chip_batch > 1 ? 400 : 50;
    const arch::ChipConfig chip = arch::pipelayer_chip();
    const auto net =
        sz.chip_batch > 1 ? workload::spec_alexnet() : workload::spec_lenet5();
    const auto mapping = mapping::plan_under_budget(
        net, {chip.array_rows, chip.array_cols}, chip.total_compute_arrays());
    const arch::MeshNoc noc = arch::make_mesh_for_banks(chip.banks);
    auto sim = std::make_shared<arch::ChipSimulator>(
        chip, mapping, arch::place_snake(mapping, chip, noc));
    kernels.push_back({"chip_sim_training_batch", [sim, chip_batch, chip_reps] {
                         std::uint64_t h = 0xcbf29ce484222325ULL;
                         for (std::size_t i = 0; i < chip_reps; ++i) {
                           const arch::ChipRunReport r =
                               sim->run_training_batch(chip_batch);
                           h = fnv1a(&r.instructions, sizeof(r.instructions), h);
                           h = fnv1a(&r.critical_bank_ns,
                                     sizeof(r.critical_bank_ns), h);
                           h = fnv1a(&r.total_bank_ns, sizeof(r.total_bank_ns),
                                     h);
                         }
                         return h;
                       }});
  }

  return kernels;
}

KernelResult measure(const Kernel& kernel, std::size_t reps) {
  KernelResult best;
  best.ms = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const std::uint64_t digest = kernel.run();
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count();
    best.ms = std::min(best.ms, ms);
    best.digest = digest;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_parallel_scaling.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else if (arg == "--help") {
      std::cout << "usage: bench_parallel_scaling [--quick] [--out=PATH]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg
                << "\nusage: bench_parallel_scaling [--quick] [--out=PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const Sizes sz = quick ? quick_sizes() : full_sizes();
  const std::size_t reps = quick ? 1 : 2;
  auto kernels = build_kernels(sz);

  // results[kernel][thread_sweep]
  std::vector<std::vector<KernelResult>> results(kernels.size());
  for (const std::size_t t : thread_counts) {
    parallel::set_thread_count(t);
    for (std::size_t k = 0; k < kernels.size(); ++k)
      results[k].push_back(measure(kernels[k], reps));
  }
  parallel::set_thread_count(0);  // restore environment default

  bool bit_identical = true;
  for (const auto& per_thread : results)
    for (const auto& r : per_thread)
      if (r.digest != per_thread.front().digest) bit_identical = false;

  TablePrinter table({"kernel", "1t ms", "2t ms", "4t ms", "8t ms",
                      "speedup@8t"});
  std::vector<double> speedups;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const double s = results[k].front().ms / results[k].back().ms;
    speedups.push_back(s);
    table.add_row({kernels[k].name, TablePrinter::fmt(results[k][0].ms, 2),
                   TablePrinter::fmt(results[k][1].ms, 2),
                   TablePrinter::fmt(results[k][2].ms, 2),
                   TablePrinter::fmt(results[k][3].ms, 2),
                   TablePrinter::fmt_times(s)});
  }
  double log_sum = 0.0;
  for (const double s : speedups) log_sum += std::log(s);
  const double geomean = std::exp(log_sum / static_cast<double>(speedups.size()));

  const unsigned hc = std::thread::hardware_concurrency();
  std::cout << "Parallel scaling sweep (Table-1 PipeLayer workload"
            << (quick ? ", quick" : "") << "), host concurrency " << hc << "\n";
  table.print(std::cout);
  std::cout << "geomean speedup @8t: " << TablePrinter::fmt_times(geomean)
            << "  bit-identical across thread counts: "
            << (bit_identical ? "yes" : "NO") << "\n";

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 2;
  }
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("bench", "parallel_scaling");
  w.kv("workload", "table1_pipelayer");
  w.kv("quick", quick);
  w.kv("host_hardware_concurrency", hc);
  w.key("threads");
  w.begin_array();
  for (const std::size_t t : thread_counts) w.value(t);
  w.end_array();
  w.kv("bit_identical", bit_identical);
  w.key("kernels");
  w.begin_array();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    w.begin_object();
    w.kv("name", kernels[k].name);
    w.key("time_ms");
    w.begin_array();
    for (std::size_t t = 0; t < thread_counts.size(); ++t)
      w.value(results[k][t].ms);
    w.end_array();
    w.key("speedup_vs_1t");
    w.begin_array();
    for (std::size_t t = 0; t < thread_counts.size(); ++t)
      w.value(results[k][0].ms / results[k][t].ms);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.kv("geomean_speedup_8t_vs_1t", geomean);
  w.end_object();
  w.finish();
  std::cout << "wrote " << out_path << "\n";
  return bit_identical ? 0 : 1;
}
