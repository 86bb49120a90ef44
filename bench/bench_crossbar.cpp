// Microbenchmarks of the functional simulation substrate: one-row crossbar
// MVM (fast integer path and exact bit-serial emulation), multi-array grids,
// im2col, and conv forward — the host-side costs of running the simulator.
#include <benchmark/benchmark.h>

#include "circuit/crossbar.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/rng.hpp"
#include "nn/conv2d.hpp"
#include "tensor/im2col.hpp"

namespace {

using namespace reramdl;

circuit::Crossbar make_crossbar(std::size_t size, bool bit_serial) {
  circuit::CrossbarConfig cfg;
  cfg.rows = cfg.cols = size;
  cfg.bit_serial = bit_serial;
  circuit::Crossbar xbar(cfg);
  Rng rng(size);
  xbar.program(Tensor::uniform(Shape{size, size}, rng, -1.0f, 1.0f), 1.0);
  return xbar;
}

void BM_CrossbarFast(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  auto xbar = make_crossbar(size, false);
  Rng rng(7);
  const Tensor x = Tensor::uniform(Shape{1, size}, rng, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(xbar.compute_batch(x, 1.0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size * size));
}
BENCHMARK(BM_CrossbarFast)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_CrossbarBitSerial(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  auto xbar = make_crossbar(size, true);
  Rng rng(8);
  const Tensor x = Tensor::uniform(Shape{1, size}, rng, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(xbar.compute_batch(x, 1.0));
}
BENCHMARK(BM_CrossbarBitSerial)->Arg(32)->Arg(64)->Arg(128);

void BM_GridCompute(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  circuit::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 128;
  circuit::CrossbarGrid grid(cfg);
  Rng rng(9);
  grid.program(Tensor::uniform(Shape{rows, 256}, rng, -1.0f, 1.0f), 1.0);
  const Tensor x = Tensor::uniform(Shape{1, rows}, rng, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(grid.compute_batch(x, 1.0));
}
BENCHMARK(BM_GridCompute)->Arg(256)->Arg(1152)->Arg(4096);

void BM_Im2col(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const Tensor x = Tensor::normal(Shape{1, c, 28, 28}, rng, 0.0f, 1.0f);
  const ConvGeometry g{c, 28, 28, 3, 3, 1, 1};
  for (auto _ : state) {
    Tensor cols = im2col(x, g);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(8)->Arg(32)->Arg(128);

void BM_ConvForward(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  nn::Conv2D conv(c, 14, 14, c, 3, 1, 1, rng);
  const Tensor x = Tensor::normal(Shape{8, c, 14, 14}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
