// Quickstart: map a matrix-vector product onto a ReRAM crossbar, compose
// arrays for a larger matrix (paper Fig. 3), and cost a small network on the
// PipeLayer accelerator vs the GPU baseline.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "baseline/gpu_model.hpp"
#include "circuit/crossbar_grid.hpp"
#include "core/comparison.hpp"
#include "core/pipelayer.hpp"
#include "workload/model_zoo.hpp"

int main() {
  using namespace reramdl;

  // 1. One crossbar computes y = W^T x by bitline current summation.
  circuit::CrossbarConfig xcfg;   // 128x128, 4-bit cells, 16b weights, 8b in
  circuit::Crossbar xbar(xcfg);
  Rng rng(1);
  const Tensor w = Tensor::uniform(Shape{128, 128}, rng, -1.0f, 1.0f);
  xbar.program(w, /*w_max=*/1.0);
  Tensor x(Shape{1, 128});  // one input vector: a one-row batch
  for (std::size_t i = 0; i < 128; ++i)
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  const Tensor y = xbar.compute_batch(x, /*x_max=*/1.0);
  double ref0 = 0.0;
  for (std::size_t i = 0; i < 128; ++i) ref0 += x[i] * w.at(i, 0);
  std::printf("single crossbar:   y[0] = %+.4f (float reference %+.4f)\n",
              y[0], ref0);

  // 2. A 1152x256 matrix (the paper's Fig. 4 conv layer) spans 9x2 arrays;
  //    partial sums are collected horizontally and summed vertically.
  circuit::CrossbarGrid grid(xcfg);
  const Tensor big = Tensor::uniform(Shape{1152, 256}, rng, -0.5f, 0.5f);
  grid.program(big, 0.5);
  std::printf("crossbar grid:     1152x256 matrix -> %zux%zu arrays (%zu total)\n",
              grid.row_tiles(), grid.col_tiles(), grid.num_arrays());

  // 3. Cost a full network on PipeLayer and compare with the GPU model.
  core::AcceleratorConfig cfg;
  cfg.chip = arch::pipelayer_chip();
  const auto net = workload::spec_lenet5();
  const core::PipeLayerAccelerator accel(net, cfg);
  const core::TimingReport r = accel.training_report(6400, 64);
  const baseline::GpuModel gpu(baseline::gtx1080());
  const auto c =
      core::compare(net.name, r, gpu.training_cost(net, 6400, 64));
  std::printf(
      "pipelayer lenet-5: %llu cycles, %zu arrays, %.2f us/img -> "
      "%.1fx speedup, %.1fx energy saving vs %s\n",
      static_cast<unsigned long long>(r.pipeline_cycles), r.arrays_used,
      r.time_s / 6400 * 1e6, c.speedup(), c.energy_saving(),
      gpu.spec().name.c_str());
  return 0;
}
