#include "pipeline/analytic.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace reramdl::pipeline {

std::uint64_t pipelayer_train_cycles_pipelined(std::uint64_t n, std::uint64_t l,
                                               std::uint64_t b) {
  RERAMDL_CHECK_GT(n, 0u);
  RERAMDL_CHECK_GT(l, 0u);
  RERAMDL_CHECK_GT(b, 0u);
  RERAMDL_CHECK_EQ(n % b, 0u);
  return (n / b) * (2 * l + b + 1);
}

std::uint64_t pipelayer_train_cycles_sequential(std::uint64_t n, std::uint64_t l,
                                                std::uint64_t b) {
  RERAMDL_CHECK_GT(n, 0u);
  RERAMDL_CHECK_GT(l, 0u);
  RERAMDL_CHECK_GT(b, 0u);
  RERAMDL_CHECK_EQ(n % b, 0u);
  return (2 * l + 1) * n + n / b;
}

std::uint64_t pipelayer_infer_cycles_pipelined(std::uint64_t n, std::uint64_t l) {
  RERAMDL_CHECK_GT(n, 0u);
  RERAMDL_CHECK_GT(l, 0u);
  return n + l - 1;
}

std::uint64_t pipelayer_infer_cycles_sequential(std::uint64_t n, std::uint64_t l) {
  RERAMDL_CHECK_GT(n, 0u);
  RERAMDL_CHECK_GT(l, 0u);
  return n * l;
}

namespace {
void check_shape(const GanShape& s) {
  RERAMDL_CHECK_GT(s.l_d, 0u);
  RERAMDL_CHECK_GT(s.l_g, 0u);
  RERAMDL_CHECK_GT(s.b, 0u);
}
}  // namespace

std::uint64_t regan_phase1_cycles(const GanShape& s) {
  check_shape(s);
  return 2 * s.l_d + 1 + (s.b - 1);
}

std::uint64_t regan_phase2_cycles(const GanShape& s) {
  check_shape(s);
  return s.l_g + 2 * s.l_d + 1 + (s.b - 1);
}

std::uint64_t regan_train_d_cycles(const GanShape& s) {
  return regan_phase1_cycles(s) + regan_phase2_cycles(s) + 1;
}

std::uint64_t regan_train_g_cycles(const GanShape& s) {
  check_shape(s);
  return 2 * s.l_g + 2 * s.l_d + s.b + 1;
}

std::uint64_t regan_batch_cycles_pipelined(const GanShape& s) {
  return regan_train_d_cycles(s) + regan_train_g_cycles(s);
}

std::uint64_t regan_batch_cycles_unpipelined(const GanShape& s) {
  check_shape(s);
  return (4 * s.l_d + s.l_g + 2) * s.b + (2 * s.l_d + 2 * s.l_g + 1) * s.b;
}

std::uint64_t regan_batch_cycles_sp(const GanShape& s) {
  // ① and ② run on duplicated D; ② is the longer phase, then one D-update
  // cycle, then G.
  const std::uint64_t d_phase =
      std::max(regan_phase1_cycles(s), regan_phase2_cycles(s)) + 1;
  return d_phase + regan_train_g_cycles(s);
}

std::uint64_t regan_batch_cycles_cs(const GanShape& s) {
  // ① drains first; the shared ②/③ pass then serves both losses, updating D
  // at T11 and G at T14 (both inside the G-training window).
  return regan_phase1_cycles(s) + regan_train_g_cycles(s);
}

std::uint64_t regan_batch_cycles_sp_cs(const GanShape& s) {
  // ① (on the duplicated D) fully overlaps the shared pass, which is at
  // least as long because l_g >= 1 implies ② depth > ① depth.
  return regan_train_g_cycles(s);
}

std::uint64_t regan_batch_cycles(const GanShape& s, const ReGanOptions& opts) {
  if (opts.spatial_parallelism)
    return opts.computation_sharing ? regan_batch_cycles_sp_cs(s)
                                    : regan_batch_cycles_sp(s);
  return opts.computation_sharing ? regan_batch_cycles_cs(s)
                                  : regan_batch_cycles_pipelined(s);
}

double pipelayer_training_utilization(std::uint64_t n, std::uint64_t l,
                                      std::uint64_t b) {
  const double work = static_cast<double>(n) * static_cast<double>(2 * l + 1);
  const double slots =
      static_cast<double>(pipelayer_train_cycles_pipelined(n, l, b)) *
      static_cast<double>(2 * l + 1);
  return work / slots;
}

double pipelayer_sequential_utilization(std::uint64_t n, std::uint64_t l,
                                        std::uint64_t b) {
  const double work = static_cast<double>(n) * static_cast<double>(2 * l + 1);
  const double slots =
      static_cast<double>(pipelayer_train_cycles_sequential(n, l, b)) *
      static_cast<double>(2 * l + 1);
  return work / slots;
}

}  // namespace reramdl::pipeline
