// Device non-idealities: programming variation.
//
// Variation is modeled as multiplicative lognormal noise on the programmed
// conductance (unit mean so the expected MVM is unbiased). Stuck-at faults
// are not drawn here: they live in the per-crossbar device::FaultMap
// (fault_map.hpp), where they are persistent, locatable, countable, and
// repairable.
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace reramdl::device {

struct VariationParams {
  // Sigma of the underlying normal of the lognormal conductance noise.
  // 0 disables variation. Typical reported values: 0.05 - 0.3.
  double sigma = 0.0;

  bool enabled() const { return sigma > 0.0; }
};

// Applies lognormal programming noise to an ideal programmed level,
// returning the *effective* level (a real number in [0, max_level]).
class VariationModel {
 public:
  VariationModel(VariationParams params, Rng rng);

  // ideal_level in [0, max_level] -> effective analog level.
  double perturb(double ideal_level, double max_level);

  const VariationParams& params() const { return params_; }

 private:
  VariationParams params_;
  Rng rng_;
};

}  // namespace reramdl::device
