// Bit-exactness tests for the training-step kernels, each at 1, 2 and 4
// pool threads:
//   (a) LinearQuantizer::quantize_levels and the crossbar paths built on it
//       against scalar LinearQuantizer::quantize (levels and spike counts);
//   (b) matmul_transposed_a(_acc) against the scalar zero-skipping
//       i-ascending double loop it replaced;
//   (c) a CrossbarGrid reprogrammed in place against a freshly built one,
//       and the ideal-write program branch against the per-cell path;
//   (d) ReLU and LeakyReLU forward/backward against the std::vector<bool>
//       mask loops, and ops::input_range against its float loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "circuit/crossbar.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "device/quantizer.hpp"
#include "device/variation.hpp"
#include "nn/activations.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "oracle.hpp"

namespace {

using namespace reramdl;

class TrainKernels : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { parallel::set_thread_count(GetParam()); }
  void TearDown() override { parallel::set_thread_count(0); }
};

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }
std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_eq(const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits_of(a[i]), bits_of(b[i])) << "element " << i;
}

std::uint64_t scalar_spikes(std::int64_t q) {
  return static_cast<std::uint64_t>(
      std::popcount(static_cast<std::uint64_t>(q < 0 ? -q : q)));
}

// Ties at +-k.5 (exact for step 1 and step 0.25), their float neighbours,
// both clamp edges and beyond, signed zeros, denormals, infinities and
// random values.
std::vector<float> quantizer_inputs(double step, double max_level) {
  std::vector<float> xs;
  for (int k = -300; k <= 300; ++k) {
    const float tie = static_cast<float>((k + 0.5) * step);
    xs.push_back(tie);
    xs.push_back(std::nextafter(tie, 0.0f));
    xs.push_back(std::nextafter(tie, tie > 0 ? 1e30f : -1e30f));
    xs.push_back(static_cast<float>(k * step));
  }
  for (const double sign : {-1.0, 1.0}) {
    const float edge = static_cast<float>(sign * max_level * step);
    xs.push_back(edge);
    xs.push_back(std::nextafter(edge, 0.0f));
    xs.push_back(std::nextafter(edge, static_cast<float>(sign) * 1e30f));
    xs.push_back(static_cast<float>(sign * (max_level + 0.5) * step));
    xs.push_back(static_cast<float>(sign) * std::numeric_limits<float>::max());
    xs.push_back(static_cast<float>(sign) *
                 std::numeric_limits<float>::infinity());
    xs.push_back(static_cast<float>(sign) *
                 std::numeric_limits<float>::denorm_min());
    xs.push_back(static_cast<float>(sign) * 1e-39f);  // a denormal
    xs.push_back(static_cast<float>(sign) * 0.0f);
  }
  Rng rng(5);
  for (int i = 0; i < 500; ++i)
    xs.push_back(static_cast<float>(rng.uniform(-1.2, 1.2) * max_level * step));
  return xs;
}

TEST_P(TrainKernels, QuantizeLevelsMatchesScalarQuantize) {
  for (const std::size_t bits : {std::size_t{1}, std::size_t{4},
                                 std::size_t{8}, std::size_t{16}}) {
    const double max_level = static_cast<double>((1u << bits) - 1);
    // x_max = max_level gives step 1, so k.5 inputs are exact ties. With
    // 8 bits, x_max = 280.5 gives a step just above 1.1: some k.5 * step
    // floats then divide to just under the tie, where a reciprocal
    // multiply lands on it and rounds the other way.
    for (const double x_max : {max_level, 0.25 * max_level, 1.0, 3.7, 280.5}) {
      const device::LinearQuantizer q(bits, x_max);
      const std::vector<float> xs = quantizer_inputs(q.step(), max_level);
      std::vector<double> levels(xs.size());
      const std::uint64_t spikes =
          q.quantize_levels(xs.data(), xs.size(), levels.data());
      std::uint64_t want_spikes = 0;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::int64_t want = q.quantize(xs[i]);
        want_spikes += scalar_spikes(want);
        ASSERT_EQ(bits_of(levels[i]), bits_of(static_cast<double>(want)))
            << "bits " << bits << " x_max " << x_max << " x " << xs[i];
      }
      EXPECT_EQ(spikes, want_spikes);
    }
  }
}

// Every crossbar input path quantizes through quantize_levels: the grid's
// compute_batch, a single bit-serial array's compute_batch and the
// slice-walk oracle. Each is checked against outputs and spike counts built
// from scalar quantize().
TEST_P(TrainKernels, CrossbarInputPathsMatchScalarQuantize) {
  circuit::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 16;
  const std::size_t r = 45, c = 20, m = 37;
  Rng rng(11);
  const Tensor w = Tensor::uniform(Shape{r, c}, rng, -1.0f, 1.0f);
  Tensor x = Tensor::uniform(Shape{m, r}, rng, -1.0f, 1.0f);
  // Exact ties, signed zeros and a denormal inside the batch.
  const double x_max = 1.0;
  const device::LinearQuantizer xq(cfg.input_bits, x_max);
  x.at(0, 0) = static_cast<float>(2.5 * xq.step());
  x.at(0, 1) = static_cast<float>(-7.5 * xq.step());
  x.at(1, 2) = -0.0f;
  x.at(2, 3) = 1e-40f;
  x.at(3, 4) = 1.0f;
  x.at(3, 5) = -1.0f;

  circuit::CrossbarGrid grid(cfg);
  grid.program(w, 1.0);
  const Tensor y = grid.compute_batch(x, x_max);

  std::uint64_t want_spikes = 0;
  const device::LinearQuantizer wq(cfg.weight_bits, 1.0);
  const double scale = wq.step() * xq.step();
  for (std::size_t b = 0; b < m; ++b) {
    std::vector<float> want_row(c, 0.0f);
    for (std::size_t rt = 0; rt < grid.row_tiles(); ++rt) {
      for (std::size_t ct = 0; ct < grid.col_tiles(); ++ct) {
        const circuit::Crossbar& tile = grid.array(rt * grid.col_tiles() + ct);
        const std::vector<double>& weff = tile.effective_weights();
        const std::size_t tr = tile.active_rows(), tc = tile.active_cols();
        for (std::size_t j = 0; j < tc; ++j) {
          double acc = 0.0;
          for (std::size_t i = 0; i < tr; ++i)
            acc += static_cast<double>(xq.quantize(x.at(b, rt * cfg.rows + i))) *
                   weff[i * tc + j];
          want_row[ct * cfg.data_cols() + j] += static_cast<float>(acc * scale);
        }
        for (std::size_t i = 0; i < tr; ++i)
          want_spikes += scalar_spikes(xq.quantize(x.at(b, rt * cfg.rows + i)));
      }
    }
    expect_bitwise_eq(y.data() + b * c, want_row.data(), c);
  }
  EXPECT_EQ(grid.aggregate_stats().input_spikes, want_spikes);

  // Single arrays: the slice-walk oracle and a one-row bit-serial
  // compute_batch against the same scalar levels.
  const Tensor w_small = Tensor::uniform(Shape{cfg.rows, cfg.cols}, rng, -1.0f, 1.0f);
  circuit::Crossbar fast(cfg);
  fast.program(w_small, 1.0);
  circuit::CrossbarConfig serial_cfg = cfg;
  serial_cfg.bit_serial = true;
  serial_cfg.counter_bits = 40;  // no I&F saturation
  circuit::Crossbar serial(serial_cfg);
  serial.program(w_small, 1.0);
  for (std::size_t b = 0; b < 4; ++b) {
    std::vector<float> xv(x.data() + b * r, x.data() + b * r + cfg.rows);
    std::vector<float> want(cfg.cols);
    std::uint64_t row_spikes = 0;
    for (std::size_t j = 0; j < cfg.cols; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < cfg.rows; ++i)
        acc += static_cast<double>(xq.quantize(xv[i])) *
               fast.effective_weights()[i * cfg.cols + j];
      want[j] = static_cast<float>(acc * scale);
    }
    for (std::size_t i = 0; i < cfg.rows; ++i)
      row_spikes += scalar_spikes(xq.quantize(xv[i]));
    const std::vector<float> ref = oracle::compute_reference(fast, xv, x_max);
    expect_bitwise_eq(ref.data(), want.data(), cfg.cols);
    const std::uint64_t before = serial.stats().input_spikes;
    const std::vector<float> ys = oracle::compute_row(serial, xv, x_max);
    EXPECT_EQ(serial.stats().input_spikes - before, row_spikes);
    for (std::size_t j = 0; j < cfg.cols; ++j)
      EXPECT_NEAR(ys[j], want[j], 1e-5) << "bit-serial column " << j;
  }
}

// The scalar loop matmul_transposed_a ran before the panel kernel:
// c[p][j] = float(sum over ascending i of double(a[i][p]) * b[i][j]),
// skipping zero a[i][p].
Tensor mm_ta_reference(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c(Shape{k, n});
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double av = a.at(i, p);
        if (av == 0.0) continue;
        acc += av * b.at(i, j);
      }
      c.at(p, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST_P(TrainKernels, MatmulTransposedAMatchesScalarLoop) {
  struct Case {
    std::size_t m, k, n;
  };
  // conv1's dW of LeNet-small at batch 32, then odd and edge shapes.
  const Case cases[] = {{25088, 25, 8}, {1, 1, 1},    {7, 3, 5},
                        {33, 37, 65},   {130, 5, 9},  {5, 70, 130},
                        {300, 200, 16}, {32, 400, 64}, {0, 3, 4},
                        {6, 0, 4},      {6, 3, 0}};
  Rng rng(21);
  for (const Case& cs : cases) {
    Tensor a = Tensor::uniform(Shape{cs.m, cs.k}, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape{cs.m, cs.n}, rng, -1.0f, 1.0f);
    // ReLU'd activations: about half of A is zero.
    for (std::size_t e = 0; e < a.numel(); e += 2) a[e] = 0.0f;
    const Tensor want = mm_ta_reference(a, b);
    const Tensor got = ops::matmul_transposed_a(a, b);
    expect_bitwise_eq(got.data(), want.data(), want.numel());

    Tensor acc = Tensor::uniform(Shape{cs.k, cs.n}, rng, -1.0f, 1.0f);
    Tensor want_acc = acc;
    for (std::size_t e = 0; e < want_acc.numel(); ++e) want_acc[e] += want[e];
    ops::matmul_transposed_a_acc(a, b, acc);
    expect_bitwise_eq(acc.data(), want_acc.data(), want_acc.numel());
  }
}

TEST_P(TrainKernels, MatmulTransposedAKeepsZeroSkipWithNonFiniteB) {
  Rng rng(22);
  Tensor a = Tensor::uniform(Shape{50, 9}, rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape{50, 11}, rng, -1.0f, 1.0f);
  // Row 3 of B holds an Inf and a NaN; A's column 2 is zero there, so the
  // scalar loop never formed 0 * Inf or 0 * NaN for output row 2.
  b.at(3, 1) = std::numeric_limits<float>::infinity();
  b.at(3, 7) = std::numeric_limits<float>::quiet_NaN();
  a.at(3, 2) = 0.0f;
  const Tensor want = mm_ta_reference(a, b);
  const Tensor got = ops::matmul_transposed_a(a, b);
  expect_bitwise_eq(got.data(), want.data(), want.numel());
  EXPECT_TRUE(std::isfinite(got.at(2, 1)));
}

void expect_health_eq(const circuit::CrossbarHealth& a,
                      const circuit::CrossbarHealth& b) {
  EXPECT_EQ(a.stuck_cells, b.stuck_cells);
  EXPECT_EQ(a.defective_cells, b.defective_cells);
  EXPECT_EQ(a.spare_cols_used, b.spare_cols_used);
  EXPECT_EQ(a.spares_remaining, b.spares_remaining);
  EXPECT_EQ(bits_of(a.seconds_since_program), bits_of(b.seconds_since_program));
  EXPECT_EQ(bits_of(a.cumulative_drift), bits_of(b.cumulative_drift));
  EXPECT_EQ(a.program_passes, b.program_passes);
}

void expect_stats_eq(const circuit::CrossbarStats& a,
                     const circuit::CrossbarStats& b) {
  EXPECT_EQ(a.programmed_cells, b.programmed_cells);
  EXPECT_EQ(a.compute_ops, b.compute_ops);
  EXPECT_EQ(a.input_spikes, b.input_spikes);
  EXPECT_EQ(a.saturated_counters, b.saturated_counters);
  EXPECT_EQ(a.stuck_cells, b.stuck_cells);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.verify_retries, b.verify_retries);
  EXPECT_EQ(a.defective_cells, b.defective_cells);
  EXPECT_EQ(a.cells_remapped, b.cells_remapped);
  EXPECT_EQ(a.spare_cols_used, b.spare_cols_used);
}

// Levels (through the slice-walk oracle), W_eff, batched and one-row
// outputs, and every stats and health field of every tile.
void expect_grids_eq(circuit::CrossbarGrid& a, circuit::CrossbarGrid& b,
                     const Tensor& rows, double x_max) {
  ASSERT_EQ(a.num_arrays(), b.num_arrays());
  ASSERT_EQ(a.row_tiles(), b.row_tiles());
  ASSERT_EQ(a.col_tiles(), b.col_tiles());
  for (std::size_t t = 0; t < a.num_arrays(); ++t) {
    const circuit::Crossbar& ta = a.array(t);
    const circuit::Crossbar& tb = b.array(t);
    ASSERT_EQ(ta.active_rows(), tb.active_rows());
    ASSERT_EQ(ta.active_cols(), tb.active_cols());
    const auto& wa = ta.effective_weights();
    const auto& wb = tb.effective_weights();
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t e = 0; e < wa.size(); ++e)
      ASSERT_EQ(bits_of(wa[e]), bits_of(wb[e])) << "tile " << t << " W_eff " << e;
    std::vector<float> x(ta.active_rows());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = rows.at(0, i);
    const std::vector<float> ra = oracle::compute_reference(ta, x, x_max);
    const std::vector<float> rb = oracle::compute_reference(tb, x, x_max);
    expect_bitwise_eq(ra.data(), rb.data(), ra.size());
    expect_stats_eq(ta.stats(), tb.stats());
    expect_health_eq(ta.health(), tb.health());
  }
  expect_health_eq(a.health(), b.health());
  const Tensor ya = a.compute_batch(rows, x_max);
  const Tensor yb = b.compute_batch(rows, x_max);
  expect_bitwise_eq(ya.data(), yb.data(), ya.numel());
  std::vector<float> x0(rows.data(), rows.data() + rows.shape()[1]);
  const std::vector<float> va = oracle::compute_row(a, x0, x_max);
  const std::vector<float> vb = oracle::compute_row(b, x0, x_max);
  expect_bitwise_eq(va.data(), vb.data(), va.size());
  expect_stats_eq(a.aggregate_stats(), b.aggregate_stats());
}

TEST_P(TrainKernels, InPlaceReprogramMatchesFreshGrid) {
  circuit::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 24;
  Rng rng(31);
  const Tensor w1 = Tensor::uniform(Shape{70, 50}, rng, -1.0f, 1.0f);
  const Tensor w2 = Tensor::uniform(Shape{70, 50}, rng, -0.5f, 0.5f);
  // A different shape changes the tile count and every edge tile.
  const Tensor w3 = Tensor::uniform(Shape{40, 30}, rng, -2.0f, 2.0f);
  const Tensor rows1 = Tensor::uniform(Shape{9, 70}, rng, -1.0f, 1.0f);
  const Tensor rows3 = Tensor::uniform(Shape{9, 40}, rng, -1.0f, 1.0f);

  circuit::CrossbarGrid reused(cfg);
  reused.program(w1, 1.0);
  reused.compute_batch(rows1, 1.0);
  reused.advance_age(5.0);
  reused.apply_drift(0.9);
  reused.program(w2, 0.5);

  circuit::CrossbarGrid fresh(cfg);
  fresh.program(w2, 0.5);
  expect_grids_eq(reused, fresh, rows1, 1.0);

  // A variation-programmed grid reprogrammed on the ideal path.
  device::VariationModel var(device::VariationParams{0.05}, Rng(7));
  reused.program(w1, 1.0, &var);
  reused.program(w3, 2.0);
  circuit::CrossbarGrid fresh3(cfg);
  fresh3.program(w3, 2.0);
  expect_grids_eq(reused, fresh3, rows3, 1.0);
}

// With write-verify on but nothing to correct (no variation, no faults),
// program() takes the per-cell path, whose cells land exactly on target:
// it must agree with the ideal-write branch in everything.
TEST_P(TrainKernels, IdealWriteBranchMatchesPerCellPath) {
  circuit::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 24;
  Rng rng(41);
  const Tensor w = Tensor::uniform(Shape{70, 50}, rng, -1.0f, 1.0f);
  const Tensor rows = Tensor::uniform(Shape{9, 70}, rng, -1.0f, 1.0f);
  circuit::ProgramOptions verify;
  verify.write_verify = true;
  circuit::CrossbarGrid per_cell(cfg), ideal(cfg);
  per_cell.program(w, 1.0, verify);
  ideal.program(w, 1.0);
  expect_grids_eq(per_cell, ideal, rows, 1.0);
}

// The float loop input_range ran before its integer max: per row, the max
// of |x| with any Inf or NaN turning the row's range to +inf.
double input_range_reference(const Tensor& x) {
  const std::size_t m = x.shape()[0], k = x.shape()[1];
  double range = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    bool finite = true;
    float r = 0.0f;
    for (std::size_t j = 0; j < k; ++j) {
      const float a = std::fabs(x.at(i, j));
      finite &= a <= std::numeric_limits<float>::max();
      r = std::max(r, a);
    }
    range = std::max(range, static_cast<double>(
                                finite ? r : std::numeric_limits<float>::infinity()));
  }
  return std::max(range, 1e-12);
}

TEST_P(TrainKernels, InputRangeMatchesFloatLoop) {
  Rng rng(61);
  Tensor x = Tensor::uniform(Shape{200, 25}, rng, -3.0f, 3.0f);
  EXPECT_EQ(bits_of(ops::input_range(x)), bits_of(input_range_reference(x)));
  // Signed zeros and denormals only: the 1e-12 floor.
  Tensor tiny(Shape{70, 3});
  for (std::size_t e = 0; e < tiny.numel(); ++e)
    tiny[e] = e % 3 == 0   ? -0.0f
              : e % 3 == 1 ? std::numeric_limits<float>::denorm_min()
                           : -1e-39f;
  EXPECT_EQ(bits_of(ops::input_range(tiny)), bits_of(input_range_reference(tiny)));
  for (const float special : {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::max()}) {
    Tensor y = x;
    y.at(137, 11) = special;
    EXPECT_EQ(bits_of(ops::input_range(y)), bits_of(input_range_reference(y)))
        << special;
  }
}

// The ReLU this layer replaced: a std::vector<bool> mask and a branch per
// element.
struct OldReLU {
  std::vector<bool> mask;
  Tensor forward(const Tensor& x) {
    Tensor y = x;
    mask.assign(x.numel(), false);
    for (std::size_t i = 0; i < y.numel(); ++i) {
      if (y[i] > 0.0f)
        mask[i] = true;
      else
        y[i] = 0.0f;
    }
    return y;
  }
  Tensor backward(const Tensor& g) const {
    Tensor gx = g;
    for (std::size_t i = 0; i < gx.numel(); ++i)
      if (!mask[i]) gx[i] = 0.0f;
    return gx;
  }
};

TEST_P(TrainKernels, ReLUMatchesMaskLoop) {
  Rng rng(51);
  // 3 x 67 elements: a length no vector width divides.
  Tensor x = Tensor::uniform(Shape{3, 67}, rng, -1.0f, 1.0f);
  Tensor g = Tensor::uniform(Shape{3, 67}, rng, -1.0f, 1.0f);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    x[i * 23] = specials[i];
    g[i * 23 + 1] = specials[i];
    g[i * 23] = specials[(i + 3) % std::size(specials)];
  }
  OldReLU old;
  nn::ReLU relu;
  const Tensor y_old = old.forward(x);
  const Tensor y_new = relu.forward(x, /*train=*/true);
  expect_bitwise_eq(y_new.data(), y_old.data(), x.numel());
  EXPECT_EQ(y_new.shape(), x.shape());
  // An inference pass keeps the training mask.
  relu.forward(Tensor::uniform(Shape{2, 5}, rng, -1.0f, 1.0f), false);
  const Tensor gx_old = old.backward(g);
  const Tensor gx_new = relu.backward(g);
  expect_bitwise_eq(gx_new.data(), gx_old.data(), g.numel());
}

// The LeakyReLU this layer replaced: the same mask loop with a slope.
struct OldLeakyReLU {
  float slope;
  std::vector<bool> mask;
  Tensor forward(const Tensor& x) {
    Tensor y = x;
    mask.assign(x.numel(), false);
    for (std::size_t i = 0; i < y.numel(); ++i) {
      if (y[i] > 0.0f)
        mask[i] = true;
      else
        y[i] *= slope;
    }
    return y;
  }
  Tensor backward(const Tensor& g) const {
    Tensor gx = g;
    for (std::size_t i = 0; i < gx.numel(); ++i)
      if (!mask[i]) gx[i] *= slope;
    return gx;
  }
};

TEST_P(TrainKernels, LeakyReLUMatchesMaskLoop) {
  Rng rng(52);
  Tensor x = Tensor::uniform(Shape{3, 67}, rng, -1.0f, 1.0f);
  Tensor g = Tensor::uniform(Shape{3, 67}, rng, -1.0f, 1.0f);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-39f,
                            -1e-39f};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    x[i * 19] = specials[i];
    g[i * 19 + 1] = specials[i];
    g[i * 19] = specials[(i + 3) % std::size(specials)];
  }
  OldLeakyReLU old{0.2f, {}};
  nn::LeakyReLU leaky(0.2f);
  const Tensor y_old = old.forward(x);
  const Tensor y_new = leaky.forward(x, /*train=*/true);
  expect_bitwise_eq(y_new.data(), y_old.data(), x.numel());
  EXPECT_EQ(y_new.shape(), x.shape());
  // An inference pass keeps the training mask.
  leaky.forward(Tensor::uniform(Shape{2, 5}, rng, -1.0f, 1.0f), false);
  const Tensor gx_old = old.backward(g);
  const Tensor gx_new = leaky.backward(g);
  expect_bitwise_eq(gx_new.data(), gx_old.data(), g.numel());
}

INSTANTIATE_TEST_SUITE_P(Threads, TrainKernels,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}));

}  // namespace
