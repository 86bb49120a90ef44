#include "core/functional.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/transposed_conv2d.hpp"
#include "tensor/ops.hpp"

namespace reramdl::core {

// One weighted layer's attachment: the grid it computes on and the layer
// pointer needed for (re)programming and detaching.
struct CrossbarExecutor::Binding {
  nn::Layer* layer = nullptr;
  circuit::CrossbarGrid* grid = nullptr;
  const Tensor* weights = nullptr;

  void install() {
    circuit::CrossbarGrid* g = grid;
    const nn::Layer* l = layer;
    auto hook = [g, l](const Tensor& rows, const Tensor& weights) -> Tensor {
      RERAMDL_CHECK_EQ(rows.shape().rank(), 2u);
      RERAMDL_CHECK_EQ(rows.shape()[1], g->total_rows());
      RERAMDL_CHECK_EQ(weights.shape()[1], g->total_cols());
      // The spike drivers rescale per call to the batch's max |x|. An Inf
      // would become the range and quantize every other input of the batch
      // to 0; a NaN would reach llround. Either way the outputs are garbage
      // with no error, so reject them here.
      const double x_max = ops::input_range(rows);
      if (!std::isfinite(x_max))
        detail::check_fail("crossbar input is finite", __FILE__, __LINE__,
                           l->name() + " layer " + g->obs_label());
      // Batched fast path: the whole activation matrix dispatches as one
      // (tile x row-block) grid job — bit-identical to looping compute()
      // per row, without the per-row copies and per-row pool regions.
      return g->compute_batch(rows, x_max);
    };
    if (auto* d = dynamic_cast<nn::Dense*>(layer)) d->set_forward_matmul(hook);
    else if (auto* c = dynamic_cast<nn::Conv2D*>(layer)) c->set_forward_matmul(hook);
    else if (auto* t = dynamic_cast<nn::TransposedConv2D*>(layer))
      t->set_forward_matmul(hook);
  }

  void uninstall() {
    if (auto* d = dynamic_cast<nn::Dense*>(layer)) d->set_forward_matmul(nullptr);
    else if (auto* c = dynamic_cast<nn::Conv2D*>(layer)) c->set_forward_matmul(nullptr);
    else if (auto* t = dynamic_cast<nn::TransposedConv2D*>(layer))
      t->set_forward_matmul(nullptr);
  }
};

namespace {

const Tensor* weighted_layer_matrix(nn::Layer& layer) {
  if (auto* d = dynamic_cast<nn::Dense*>(&layer)) return &d->weights();
  if (auto* c = dynamic_cast<nn::Conv2D*>(&layer)) return &c->weights();
  if (auto* t = dynamic_cast<nn::TransposedConv2D*>(&layer)) return &t->weights();
  return nullptr;
}

}  // namespace

CrossbarExecutor::CrossbarExecutor(nn::Sequential& net,
                                   const AcceleratorConfig& config,
                                   device::VariationModel* variation)
    : net_(&net), xbar_config_(config.crossbar_config()) {
  circuit::ProgramOptions opts;
  opts.variation = variation;
  bind_and_program(net, opts);
}

CrossbarExecutor::CrossbarExecutor(nn::Sequential& net,
                                   const AcceleratorConfig& config,
                                   const circuit::ProgramOptions& opts)
    : net_(&net), xbar_config_(config.crossbar_config()) {
  bind_and_program(net, opts);
}

void CrossbarExecutor::bind_and_program(nn::Sequential& net,
                                        const circuit::ProgramOptions& opts) {
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);
    const Tensor* w = weighted_layer_matrix(layer);
    if (w == nullptr) continue;
    auto grid = std::make_unique<circuit::CrossbarGrid>(xbar_config_);
    // Default attribution label: weighted-layer ordinal, matching the order
    // mapping::map_network lists the same layers in (so chip-aligned
    // re-labels line up index-for-index).
    grid->set_obs_label("host/layer" + std::to_string(grids_.size()));
    auto binding = std::make_unique<Binding>();
    binding->layer = &layer;
    binding->grid = grid.get();
    binding->weights = w;
    grids_.push_back(std::move(grid));
    bindings_.push_back(std::move(binding));
  }
  RERAMDL_CHECK(!bindings_.empty());
  reprogram(opts);
  for (auto& b : bindings_) b->install();
  attached_ = true;
}

void CrossbarExecutor::reprogram(device::VariationModel* variation) {
  circuit::ProgramOptions opts;
  opts.variation = variation;
  reprogram(opts);
}

void CrossbarExecutor::reprogram(const circuit::ProgramOptions& opts) {
  for (std::size_t l = 0; l < bindings_.size(); ++l) {
    auto& b = bindings_[l];
    const double w_max =
        std::max(static_cast<double>(b->weights->abs_max()), 1e-12);
    circuit::ProgramOptions layer_opts = opts;
    if (opts.faults.enabled())
      layer_opts.faults.seed =
          device::FaultMap::mix_seed(opts.faults.seed, l + 1);
    b->grid->program(*b->weights, w_max, layer_opts);
  }
}

std::size_t CrossbarExecutor::inject_at(std::uint64_t step) {
  std::size_t applied = 0;
  for (auto& g : grids_) applied += g->inject_at(step);
  return applied;
}

void CrossbarExecutor::apply_drift(double factor) {
  for (auto& g : grids_) g->apply_drift(factor);
}

void CrossbarExecutor::set_attribution_paths(
    const std::vector<std::string>& paths) {
  RERAMDL_CHECK_EQ(paths.size(), grids_.size());
  for (std::size_t l = 0; l < grids_.size(); ++l)
    grids_[l]->set_obs_label(paths[l]);
}

void CrossbarExecutor::detach() {
  if (!attached_) return;
  for (auto& b : bindings_) b->uninstall();
  attached_ = false;
}

const circuit::CrossbarGrid& CrossbarExecutor::grid(std::size_t i) const {
  RERAMDL_CHECK_LT(i, grids_.size());
  return *grids_[i];
}

circuit::CrossbarGrid& CrossbarExecutor::grid_mut(std::size_t i) {
  RERAMDL_CHECK_LT(i, grids_.size());
  return *grids_[i];
}

const Tensor& CrossbarExecutor::layer_weights(std::size_t l) const {
  RERAMDL_CHECK_LT(l, bindings_.size());
  return *bindings_[l]->weights;
}

std::uint64_t CrossbarExecutor::refresh_tile(
    std::size_t l, std::size_t t, const circuit::ProgramOptions& opts) {
  RERAMDL_CHECK_LT(l, bindings_.size());
  circuit::ProgramOptions layer_opts = opts;
  if (opts.faults.enabled())
    layer_opts.faults.seed = device::FaultMap::mix_seed(opts.faults.seed, l + 1);
  return grids_[l]->refresh_tile(t, *bindings_[l]->weights, layer_opts);
}

circuit::CrossbarHealth CrossbarExecutor::health() const {
  circuit::CrossbarHealth total;
  bool first = true;
  for (const auto& g : grids_) {
    if (first) {
      total = g->health();
      first = false;
    } else {
      total += g->health();
    }
  }
  return total;
}

circuit::CrossbarStats CrossbarExecutor::aggregate_stats() const {
  circuit::CrossbarStats total;
  for (const auto& g : grids_) total += g->aggregate_stats();
  return total;
}

CrossbarExecutor::~CrossbarExecutor() { detach(); }

}  // namespace reramdl::core
