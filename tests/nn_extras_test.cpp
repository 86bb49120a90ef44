#include <gtest/gtest.h>

#include <cmath>

#include "nn/gan.hpp"
#include "workload/datasets.hpp"
#include "workload/model_zoo.hpp"

namespace reramdl::nn {
namespace {

// ---- Wasserstein GAN -----------------------------------------------------------

TEST(Wgan, StepsRunAndLossesFinite) {
  Rng rng(8);
  auto g = workload::make_dcgan_g_mnist(rng, 16);
  auto d = workload::make_dcgan_d_mnist(rng);
  Adam opt_g(g.params(), 1e-3f);
  Adam opt_d(d.params(), 1e-3f);
  GanTrainer gan(g, d, opt_g, opt_d, 16, /*cs=*/true,
                 GanObjective::kWasserstein, 0.05f);
  EXPECT_EQ(gan.objective(), GanObjective::kWasserstein);

  Rng data_rng(9);
  const Tensor real = workload::make_gan_images(4, 1, 28, data_rng);
  for (int i = 0; i < 3; ++i) {
    const auto s = gan.step(real, rng);
    EXPECT_TRUE(std::isfinite(s.d_loss_real));
    EXPECT_TRUE(std::isfinite(s.d_loss_fake));
    EXPECT_TRUE(std::isfinite(s.g_loss));
  }
}

TEST(Wgan, CriticWeightsStayClipped) {
  Rng rng(10);
  auto g = workload::make_dcgan_g_mnist(rng, 16);
  auto d = workload::make_dcgan_d_mnist(rng);
  Adam opt_g(g.params(), 1e-3f);
  Adam opt_d(d.params(), 1e-2f);
  const float clip = 0.02f;
  GanTrainer gan(g, d, opt_g, opt_d, 16, true, GanObjective::kWasserstein,
                 clip);
  Rng data_rng(11);
  const Tensor real = workload::make_gan_images(4, 1, 28, data_rng);
  gan.step(real, rng);
  for (auto& p : d.params())
    for (std::size_t i = 0; i < p.value->numel(); ++i) {
      EXPECT_LE((*p.value)[i], clip);
      EXPECT_GE((*p.value)[i], -clip);
    }
}

TEST(Wgan, GeneratorWeightsUnclipped) {
  Rng rng(12);
  auto g = workload::make_dcgan_g_mnist(rng, 16);
  auto d = workload::make_dcgan_d_mnist(rng);
  Adam opt_g(g.params(), 1e-3f);
  Adam opt_d(d.params(), 1e-3f);
  GanTrainer gan(g, d, opt_g, opt_d, 16, true, GanObjective::kWasserstein,
                 0.001f);
  Rng data_rng(13);
  const Tensor real = workload::make_gan_images(4, 1, 28, data_rng);
  gan.step(real, rng);
  float g_absmax = 0.0f;
  for (auto& p : g.params())
    for (std::size_t i = 0; i < p.value->numel(); ++i)
      g_absmax = std::max(g_absmax, std::abs((*p.value)[i]));
  EXPECT_GT(g_absmax, 0.001f);  // He-init weights exceed the tiny clip bound
}

TEST(Wgan, CriticLossIsNegatedMeanPair) {
  // With a zero-output critic, both phase losses vanish by symmetry.
  Rng rng(14);
  auto g = workload::make_dcgan_g_mnist(rng, 16);
  auto d = workload::make_dcgan_d_mnist(rng);
  for (auto& p : d.params()) p.value->zero();
  Sgd opt_g(g.params(), 0.0f);
  Sgd opt_d(d.params(), 0.0f);
  GanTrainer gan(g, d, opt_g, opt_d, 16, true, GanObjective::kWasserstein,
                 0.01f);
  Rng data_rng(15);
  const Tensor real = workload::make_gan_images(4, 1, 28, data_rng);
  const auto s = gan.step(real, rng);
  EXPECT_NEAR(s.d_loss_real, 0.0f, 1e-6f);
  EXPECT_NEAR(s.d_loss_fake, 0.0f, 1e-6f);
}

}  // namespace
}  // namespace reramdl::nn
