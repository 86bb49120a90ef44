#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "nn/transposed_conv2d.hpp"

namespace reramdl::nn {
namespace {

// Scalar objective: L(x) = <forward(x), g> for a fixed random g. The layer's
// backward(g) must then equal dL/dx, and the accumulated parameter gradients
// must equal dL/dtheta — both checked against central differences.
double objective(Layer& layer, const Tensor& x, const Tensor& g) {
  const Tensor y = layer.forward(x, /*train=*/true);
  EXPECT_EQ(y.numel(), g.numel());
  double acc = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i)
    acc += static_cast<double>(y[i]) * g[i];
  return acc;
}

void check_input_gradient(Layer& layer, Tensor x, const Tensor& g,
                          double tol = 2e-2) {
  for (auto& p : layer.params()) p.grad->zero();
  objective(layer, x, g);
  const Tensor gx = layer.backward(g);
  ASSERT_EQ(gx.numel(), x.numel());

  const float eps = 1e-2f;
  // Sample a subset of coordinates to keep runtime bounded.
  const std::size_t step = std::max<std::size_t>(1, x.numel() / 24);
  for (std::size_t i = 0; i < x.numel(); i += step) {
    // Central differences are invalid within eps of a non-smooth kink
    // (ReLU-family at 0); skip those coordinates.
    if (std::abs(x[i]) < 3e-2f) continue;
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = objective(layer, x, g);
    x[i] = orig - eps;
    const double lm = objective(layer, x, g);
    x[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double scale = std::max(1.0, std::abs(numeric));
    EXPECT_NEAR(gx[i], numeric, tol * scale) << "input coordinate " << i;
  }
}

void check_param_gradients(Layer& layer, const Tensor& x, const Tensor& g,
                           double tol = 2e-2) {
  for (auto& p : layer.params()) p.grad->zero();
  objective(layer, x, g);
  layer.backward(g);

  const float eps = 1e-2f;
  for (auto& p : layer.params()) {
    Tensor& w = *p.value;
    const Tensor& gw = *p.grad;
    const std::size_t step = std::max<std::size_t>(1, w.numel() / 16);
    for (std::size_t i = 0; i < w.numel(); i += step) {
      const float orig = w[i];
      w[i] = orig + eps;
      const double lp = objective(layer, x, g);
      w[i] = orig - eps;
      const double lm = objective(layer, x, g);
      w[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double scale = std::max(1.0, std::abs(numeric));
      EXPECT_NEAR(gw[i], numeric, tol * scale) << "param coordinate " << i;
    }
  }
}

// ---- Parameterized gradient sweep over layer factories --------------------

struct LayerCase {
  std::string name;
  std::function<LayerPtr(Rng&)> make;
  Shape in_shape;
  bool check_params;
};

// gtest would otherwise print the raw bytes of a LayerCase, which hold heap
// and code addresses, so the listed test names would change from run to run.
void PrintTo(const LayerCase& c, std::ostream* os) { *os << c.name; }

class LayerGradient : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerGradient, InputGradientMatchesNumeric) {
  const auto& c = GetParam();
  Rng rng(1234);
  auto layer = c.make(rng);
  const Tensor x = Tensor::normal(c.in_shape, rng, 0.0f, 1.0f);
  const Tensor y = layer->forward(x, true);
  const Tensor g = Tensor::normal(y.shape(), rng, 0.0f, 1.0f);
  check_input_gradient(*layer, x, g);
}

TEST_P(LayerGradient, ParamGradientsMatchNumeric) {
  const auto& c = GetParam();
  if (!c.check_params) GTEST_SKIP() << "layer has no parameters";
  Rng rng(4321);
  auto layer = c.make(rng);
  const Tensor x = Tensor::normal(c.in_shape, rng, 0.0f, 1.0f);
  const Tensor y = layer->forward(x, true);
  const Tensor g = Tensor::normal(y.shape(), rng, 0.0f, 1.0f);
  check_param_gradients(*layer, x, g);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradient,
    ::testing::Values(
        LayerCase{"dense",
                  [](Rng& r) { return std::make_unique<Dense>(6, 4, r); },
                  Shape{3, 6}, true},
        LayerCase{"conv",
                  [](Rng& r) {
                    return std::make_unique<Conv2D>(2, 6, 6, 3, 3, 1, 1, r);
                  },
                  Shape{2, 2, 6, 6}, true},
        LayerCase{"conv_stride2",
                  [](Rng& r) {
                    return std::make_unique<Conv2D>(1, 8, 8, 2, 4, 2, 1, r);
                  },
                  Shape{2, 1, 8, 8}, true},
        LayerCase{"tconv",
                  [](Rng& r) {
                    return std::make_unique<TransposedConv2D>(2, 4, 4, 3, 4, 2,
                                                              1, r);
                  },
                  Shape{2, 2, 4, 4}, true},
        LayerCase{"tconv_stride3",
                  [](Rng& r) {
                    return std::make_unique<TransposedConv2D>(1, 3, 3, 2, 3, 3,
                                                              0, r);
                  },
                  Shape{1, 1, 3, 3}, true},
        LayerCase{"relu", [](Rng&) { return std::make_unique<ReLU>(); },
                  Shape{3, 10}, false},
        LayerCase{"leaky_relu",
                  [](Rng&) { return std::make_unique<LeakyReLU>(0.2f); },
                  Shape{3, 10}, false},
        LayerCase{"sigmoid", [](Rng&) { return std::make_unique<Sigmoid>(); },
                  Shape{3, 10}, false},
        LayerCase{"tanh", [](Rng&) { return std::make_unique<Tanh>(); },
                  Shape{3, 10}, false},
        LayerCase{"avgpool", [](Rng&) { return std::make_unique<AvgPool2D>(2); },
                  Shape{2, 2, 6, 6}, false},
        LayerCase{"flatten", [](Rng&) { return std::make_unique<Flatten>(); },
                  Shape{2, 2, 3, 3}, false},
        LayerCase{"reshape",
                  [](Rng&) { return std::make_unique<Reshape>(2, 3, 3); },
                  Shape{2, 18}, false},
        LayerCase{"batchnorm_conv",
                  [](Rng&) { return std::make_unique<BatchNorm>(3); },
                  Shape{4, 3, 4, 4}, true},
        LayerCase{"batchnorm_dense",
                  [](Rng&) { return std::make_unique<BatchNorm>(6); },
                  Shape{8, 6}, true}),
    [](const ::testing::TestParamInfo<LayerCase>& info) {
      return info.param.name;
    });

// ---- Targeted behavior tests ----------------------------------------------

TEST(Dense, ForwardMatchesManualComputation) {
  Rng rng(7);
  Dense d(2, 2, rng);
  d.weights().at(0, 0) = 1.0f;
  d.weights().at(0, 1) = 2.0f;
  d.weights().at(1, 0) = 3.0f;
  d.weights().at(1, 1) = 4.0f;
  d.bias()[0] = 0.5f;
  d.bias()[1] = -0.5f;
  Tensor x(Shape{1, 2});
  x[0] = 1.0f;
  x[1] = 1.0f;
  const Tensor y = d.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 4.5f);   // 1+3+0.5
  EXPECT_FLOAT_EQ(y[1], 5.5f);   // 2+4-0.5
}

TEST(Conv2D, OutputShape) {
  Rng rng(8);
  Conv2D c(3, 114, 114, 256, 3, 1, 0, rng);
  const Tensor x = Tensor::zeros(Shape{1, 3, 114, 114});
  const Tensor y = c.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 256, 112, 112}));
}

TEST(TransposedConv2D, UpsamplesByStride) {
  Rng rng(9);
  TransposedConv2D t(4, 7, 7, 2, 4, 2, 1, rng);
  const Tensor x = Tensor::zeros(Shape{3, 4, 7, 7});
  const Tensor y = t.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({3, 2, 14, 14}));
}

TEST(MaxPool, SelectsWindowMaximaAndRoutesGradient) {
  MaxPool2D pool(2);
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = 3.0f;
  x[3] = 2.0f;
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor g(Shape{1, 1, 1, 1}, 2.0f);
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.0f);  // gradient flows to the argmax only
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(AvgPool, ComputesWindowMean) {
  AvgPool2D pool(2);
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 2.0f;
  x[2] = 3.0f;
  x[3] = 6.0f;
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(ReLU, ZeroesNegatives) {
  ReLU relu;
  Tensor x(Shape{1, 3});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  Rng rng(10);
  BatchNorm bn(4);
  const Tensor x = Tensor::normal(Shape{64, 4, 3, 3}, rng, 5.0f, 2.0f);
  const Tensor y = bn.forward(x, /*train=*/true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 4; ++c) {
    double mean = 0.0, var = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 64; ++n)
      for (std::size_t p = 0; p < 9; ++p) {
        mean += y.at(n, c, p / 3, p % 3);
        ++count;
      }
    mean /= static_cast<double>(count);
    for (std::size_t n = 0; n < 64; ++n)
      for (std::size_t p = 0; p < 9; ++p) {
        const double d = y.at(n, c, p / 3, p % 3) - mean;
        var += d * d;
      }
    var /= static_cast<double>(count);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, VirtualBnUsesFrozenReferenceStats) {
  Rng rng(11);
  BatchNorm bn(2);
  const Tensor ref = Tensor::normal(Shape{32, 2, 2, 2}, rng, 3.0f, 1.0f);
  bn.set_reference_batch(ref);
  EXPECT_TRUE(bn.uses_reference());
  EXPECT_EQ(bn.name(), "vbn");
  // A wildly different batch is normalized with the *reference* statistics:
  // outputs shift rather than re-normalize.
  const Tensor x = Tensor::full(Shape{4, 2, 2, 2}, 3.0f);
  const Tensor y = bn.forward(x, /*train=*/true);
  for (std::size_t i = 0; i < y.numel(); ++i)
    EXPECT_NEAR(y[i], 0.0f, 0.3f);  // (3 - ref_mean~3) / ref_std~1
  const Tensor x2 = Tensor::full(Shape{4, 2, 2, 2}, 4.0f);
  const Tensor y2 = bn.forward(x2, /*train=*/true);
  // One reference-std above the mean.
  for (std::size_t i = 0; i < y2.numel(); ++i) EXPECT_GT(y2[i], 0.5f);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(12);
  BatchNorm bn(1);
  // Train on many batches so running stats converge.
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::normal(Shape{16, 1, 2, 2}, rng, 10.0f, 2.0f);
    bn.forward(x, true);
  }
  const Tensor probe = Tensor::full(Shape{1, 1, 2, 2}, 10.0f);
  const Tensor y = bn.forward(probe, /*train=*/false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 0.0f, 0.2f);
}

TEST(LayerSpecs, DenseAndConvReportShapes) {
  Rng rng(13);
  Dense d(100, 10, rng);
  const LayerSpec ds = d.spec(100, 1, 1);
  EXPECT_EQ(ds.kind, LayerKind::kDense);
  EXPECT_EQ(ds.matrix_rows(), 100u);
  EXPECT_EQ(ds.matrix_cols(), 10u);
  EXPECT_EQ(ds.vectors_per_sample(), 1u);

  Conv2D c(128, 114, 114, 256, 3, 1, 0, rng);
  const LayerSpec cs = c.spec(128, 114, 114);
  EXPECT_EQ(cs.matrix_rows(), 1152u);   // Fig. 4
  EXPECT_EQ(cs.matrix_cols(), 256u);
  EXPECT_EQ(cs.vectors_per_sample(), 12544u);
}

}  // namespace
}  // namespace reramdl::nn
