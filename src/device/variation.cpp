#include "device/variation.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace reramdl::device {

VariationModel::VariationModel(VariationParams params, Rng rng)
    : params_(params), rng_(rng) {
  RERAMDL_CHECK_GE(params.sigma, 0.0);
  // Skip one draw so every perturb() stream stays bit-identical to the
  // recorded results: bench_ablation_accuracy and bench_fault_campaign
  // print the same numbers as before the stuck-at rates left this model.
  rng_.next_u64();
}

double VariationModel::perturb(double ideal_level, double max_level) {
  double level = ideal_level;
  if (params_.sigma > 0.0) level *= rng_.lognormal_unit_mean(params_.sigma);
  return std::clamp(level, 0.0, max_level);
}

}  // namespace reramdl::device
