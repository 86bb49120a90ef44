// Batched crossbar MVM bench: sweeps batch size x thread count over
// Table-1-scale PipeLayer layer shapes (128x128 arrays), comparing the
// batched fast path (CrossbarGrid::compute_batch — collapsed W_eff, one
// (tile x row-block) pool region per batch) against the looped
// single-vector baseline (one one-row compute_batch call per row). Verifies
// batched and looped outputs are bit-identical with identical aggregate
// CrossbarStats, then emits BENCH_crossbar_batch.json via the shared
// JsonWriter.
//
// Acceptance target (ISSUE 3): batched >= 3x looped throughput at
// batch >= 32 with 8 threads.
//
// Flags:
//   --quick       smaller shapes / fewer reps (CI smoke)
//   --out=PATH    JSON output path (default BENCH_crossbar_batch.json)
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/crossbar_grid.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "obs/json_writer.hpp"
#include "tensor/tensor.hpp"

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

struct LayerShape {
  std::string name;
  std::size_t rows, cols;  // full weight matrix, spread over 128x128 arrays
};

// Representative PipeLayer (Table 1, AlexNet-class) layer GEMM shapes: two
// interior conv layers' im2col K x N and an FC7-scale slice whose 32 MB
// W_eff working set far exceeds L2 — the looped one-row calls re-stream
// it for every row while the batched kernel reuses it across the block.
std::vector<LayerShape> full_shapes() {
  return {{"conv3_1152x512", 1152, 512},
          {"conv5_1728x256", 1728, 256},
          {"fc7_4096x1024", 4096, 1024}};
}
std::vector<LayerShape> quick_shapes() {
  return {{"conv_quick_288x128", 288, 128}, {"fc_quick_512x256", 512, 256}};
}

struct Meas {
  double ms = 1e300;
  std::uint64_t digest = 0;
};

Tensor make_rows(std::size_t m, std::size_t k, unsigned seed) {
  Rng rng(seed);
  return Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
}

Meas run_batched(circuit::CrossbarGrid& grid, const Tensor& rows,
                 std::size_t reps) {
  Meas best;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const Tensor out = grid.compute_batch(rows, 1.0);
    const auto t1 = Clock::now();
    best.ms = std::min(
        best.ms,
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count());
    best.digest = fnv1a(out.data(), out.numel() * sizeof(float),
                        0xcbf29ce484222325ULL);
  }
  return best;
}

Meas run_looped(circuit::CrossbarGrid& grid, const Tensor& rows,
                std::size_t reps) {
  const std::size_t m = rows.shape()[0], k = rows.shape()[1];
  Tensor x(Shape{1, k});
  Meas best;
  for (std::size_t r = 0; r < reps; ++r) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
      std::memcpy(x.data(), rows.data() + i * k, k * sizeof(float));
      const Tensor y = grid.compute_batch(x, 1.0);
      h = fnv1a(y.data(), y.numel() * sizeof(float), h);
    }
    const auto t1 = Clock::now();
    best.ms = std::min(
        best.ms,
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count());
    best.digest = h;
  }
  return best;
}

// Row-wise digest of a [m, C] tensor so looped (per-row hash) and batched
// (whole-tensor) runs hash identical bytes in identical order.
std::uint64_t tensor_digest(const Tensor& t) {
  return fnv1a(t.data(), t.numel() * sizeof(float), 0xcbf29ce484222325ULL);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_crossbar_batch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else if (arg == "--help") {
      std::cout << "usage: bench_crossbar_batch [--quick] [--out=PATH]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg
                << "\nusage: bench_crossbar_batch [--quick] [--out=PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const std::vector<std::size_t> batch_sizes =
      quick ? std::vector<std::size_t>{1, 8, 32}
            : std::vector<std::size_t>{1, 8, 32, 128};
  const auto shapes = quick ? quick_shapes() : full_shapes();
  const std::size_t reps = quick ? 1 : 3;

  // Correctness pass: batched outputs and aggregate stats must match the
  // looped one-row baseline exactly (batch 33 straddles a kernel block).
  bool bit_identical = true;
  bool stats_identical = true;
  for (const auto& sh : shapes) {
    Rng wrng(2018);
    const Tensor w =
        Tensor::uniform(Shape{sh.rows, sh.cols}, wrng, -0.5f, 0.5f);
    const Tensor rows = make_rows(33, sh.rows, 7);
    circuit::CrossbarConfig cfg;  // 128x128 PipeLayer arrays
    circuit::CrossbarGrid batched(cfg), looped(cfg);
    batched.program(w, 1.0);
    looped.program(w, 1.0);
    const Tensor out_b = batched.compute_batch(rows, 1.0);
    Tensor out_l(Shape{33, sh.cols});
    Tensor x(Shape{1, sh.rows});
    for (std::size_t i = 0; i < 33; ++i) {
      std::memcpy(x.data(), rows.data() + i * sh.rows,
                  sh.rows * sizeof(float));
      const Tensor y = looped.compute_batch(x, 1.0);
      std::memcpy(out_l.data() + i * sh.cols, y.data(),
                  y.numel() * sizeof(float));
    }
    if (tensor_digest(out_b) != tensor_digest(out_l)) bit_identical = false;
    const auto sb = batched.aggregate_stats();
    const auto sl = looped.aggregate_stats();
    if (sb.programmed_cells != sl.programmed_cells ||
        sb.compute_ops != sl.compute_ops ||
        sb.input_spikes != sl.input_spikes ||
        sb.saturated_counters != sl.saturated_counters)
      stats_identical = false;
  }

  // Timing sweep. results[kernel][thread_sweep]; kernel order:
  // per shape, per batch: looped then batched.
  struct KernelRow {
    std::string name;
    const LayerShape* shape;
    std::size_t batch;
    bool is_batched;
    std::vector<Meas> per_thread;
  };
  std::vector<KernelRow> kernels;

  for (const auto& sh : shapes) {
    Rng wrng(2018);
    const Tensor w =
        Tensor::uniform(Shape{sh.rows, sh.cols}, wrng, -0.5f, 0.5f);
    circuit::CrossbarConfig cfg;
    circuit::CrossbarGrid grid(cfg);
    grid.program(w, 1.0);
    for (const std::size_t b : batch_sizes) {
      const Tensor rows = make_rows(b, sh.rows, 11);
      KernelRow looped{sh.name + "_b" + std::to_string(b) + "_looped", &sh, b,
                       false, {}};
      KernelRow batched{sh.name + "_b" + std::to_string(b) + "_batched", &sh,
                        b, true, {}};
      for (const std::size_t t : thread_counts) {
        parallel::set_thread_count(t);
        looped.per_thread.push_back(run_looped(grid, rows, reps));
        batched.per_thread.push_back(run_batched(grid, rows, reps));
      }
      kernels.push_back(std::move(looped));
      kernels.push_back(std::move(batched));
    }
  }
  parallel::set_thread_count(0);  // restore environment default

  for (const auto& k : kernels)
    for (const auto& m : k.per_thread)
      if (m.digest != k.per_thread.front().digest) bit_identical = false;
  // Looped and batched digests for the same (shape, batch) must agree too.
  for (std::size_t i = 0; i + 1 < kernels.size(); i += 2)
    if (kernels[i].per_thread.front().digest !=
        kernels[i + 1].per_thread.front().digest)
      bit_identical = false;

  // Acceptance: batched vs looped at the largest batch >= 32, 8 threads.
  const std::size_t accept_batch = 32;
  const std::size_t t8 = thread_counts.size() - 1;
  std::vector<double> accept_speedups;
  TablePrinter table({"kernel", "1t ms", "2t ms", "4t ms", "8t ms",
                      "vs looped@8t"});
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& k = kernels[i];
    std::string vs = "-";
    if (k.is_batched) {
      const double s =
          kernels[i - 1].per_thread[t8].ms / k.per_thread[t8].ms;
      vs = TablePrinter::fmt_times(s);
      if (k.batch == accept_batch) accept_speedups.push_back(s);
    }
    table.add_row({k.name, TablePrinter::fmt(k.per_thread[0].ms, 2),
                   TablePrinter::fmt(k.per_thread[1].ms, 2),
                   TablePrinter::fmt(k.per_thread[2].ms, 2),
                   TablePrinter::fmt(k.per_thread[3].ms, 2), vs});
  }
  double log_sum = 0.0;
  for (const double s : accept_speedups) log_sum += std::log(s);
  const double geomean =
      accept_speedups.empty()
          ? 0.0
          : std::exp(log_sum / static_cast<double>(accept_speedups.size()));

  const unsigned hc = std::thread::hardware_concurrency();
  std::cout << "Batched crossbar MVM sweep (Table-1 PipeLayer shapes"
            << (quick ? ", quick" : "") << "), host concurrency " << hc
            << "\n";
  table.print(std::cout);
  std::cout << "geomean batched-vs-looped speedup @ batch " << accept_batch
            << ", 8 threads: " << TablePrinter::fmt_times(geomean)
            << (geomean >= 3.0 ? "  (>= 3x target met)"
                               : "  (below 3x target)")
            << "\n  bit-identical: " << (bit_identical ? "yes" : "NO")
            << "  stats-identical: " << (stats_identical ? "yes" : "NO")
            << "\n";

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 2;
  }
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("bench", "crossbar_batch");
  w.kv("workload", "table1_pipelayer_shapes");
  w.kv("quick", quick);
  w.kv("host_hardware_concurrency", hc);
  w.key("threads");
  w.begin_array();
  for (const std::size_t t : thread_counts) w.value(t);
  w.end_array();
  w.key("batch_sizes");
  w.begin_array();
  for (const std::size_t b : batch_sizes) w.value(b);
  w.end_array();
  w.kv("bit_identical", bit_identical);
  w.kv("stats_identical", stats_identical);
  w.key("kernels");
  w.begin_array();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& k = kernels[i];
    w.begin_object();
    w.kv("name", k.name);
    w.kv("shape_rows", k.shape->rows);
    w.kv("shape_cols", k.shape->cols);
    w.kv("batch", k.batch);
    w.kv("mode", k.is_batched ? "batched" : "looped");
    w.key("time_ms");
    w.begin_array();
    for (const auto& m : k.per_thread) w.value(m.ms);
    w.end_array();
    w.key("speedup_vs_1t");
    w.begin_array();
    for (const auto& m : k.per_thread) w.value(k.per_thread[0].ms / m.ms);
    w.end_array();
    if (k.is_batched) {
      w.key("speedup_vs_looped");
      w.begin_array();
      for (std::size_t t = 0; t < thread_counts.size(); ++t)
        w.value(kernels[i - 1].per_thread[t].ms / k.per_thread[t].ms);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.kv("accept_batch", accept_batch);
  w.kv("geomean_batched_vs_looped_b32_8t", geomean);
  w.kv("meets_3x_target", geomean >= 3.0);
  w.end_object();
  w.finish();
  std::cout << "wrote " << out_path << "\n";
  return (bit_identical && stats_identical) ? 0 : 1;
}
