// Serving-layer acceptance tests: bounded admission queues, the dynamic
// batching policy, virtual-time scheduling across tenants and chips, request
// accounting conservation, and bit-reproducible replay across thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "common/parallel.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "serving/batcher.hpp"
#include "serving/queue.hpp"
#include "serving/server.hpp"
#include "serving/workload.hpp"

namespace reramdl::serving {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  void TearDown() override { parallel::set_thread_count(0); }
};

Request make_request(std::uint64_t id, std::size_t tenant,
                     std::uint64_t arrival_us, std::size_t in_features,
                     std::uint64_t payload_seed) {
  Request r;
  r.id = id;
  r.tenant = tenant;
  r.arrival_us = arrival_us;
  r.input = Tensor(Shape{in_features});
  Rng rng(payload_seed);
  for (std::size_t i = 0; i < in_features; ++i)
    r.input[i] = static_cast<float>(rng.uniform());
  return r;
}

// A tiny MLP tenant model (12 -> 8 -> 4) the crossbar executor can program.
std::unique_ptr<nn::Sequential> make_tiny_net(std::uint64_t seed) {
  auto net = std::make_unique<nn::Sequential>();
  Rng rng(seed);
  net->emplace<nn::Dense>(12, 8, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Dense>(8, 4, rng);
  return net;
}

core::AcceleratorConfig accel_config() {
  core::AcceleratorConfig cfg;
  cfg.chip = arch::pipelayer_chip();
  return cfg;
}

TEST_F(ServingTest, QueueRejectPolicyRefusesWhenFull) {
  TenantQueue q(2, AdmissionPolicy::kReject);
  EXPECT_TRUE(q.admit(make_request(0, 0, 0, 4, 1)).admitted);
  EXPECT_TRUE(q.admit(make_request(1, 0, 1, 4, 2)).admitted);
  const auto res = q.admit(make_request(2, 0, 2, 4, 3));
  EXPECT_FALSE(res.admitted);
  EXPECT_FALSE(res.shed.has_value());
  EXPECT_EQ(q.submitted(), 3u);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_EQ(q.size(), 2u);
}

TEST_F(ServingTest, QueueShedOldestDropsFrontAndAdmits) {
  TenantQueue q(2, AdmissionPolicy::kShedOldest);
  q.admit(make_request(0, 0, 0, 4, 1));
  q.admit(make_request(1, 0, 1, 4, 2));
  const auto res = q.admit(make_request(2, 0, 2, 4, 3));
  EXPECT_TRUE(res.admitted);
  ASSERT_TRUE(res.shed.has_value());
  EXPECT_EQ(res.shed->id, 0u);  // oldest victim
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.size(), 2u);
  // FIFO order preserved after the shed: 1 then 2.
  const auto batch = q.pop_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
}

TEST_F(ServingTest, BatchTriggerFullBatchBeatsWindow) {
  ServingConfig cfg;
  cfg.max_batch = 3;
  cfg.max_wait_us = 1000;
  TenantQueue q(16, AdmissionPolicy::kReject);
  EXPECT_FALSE(batch_trigger_us(q, cfg).has_value());  // empty: no trigger
  q.admit(make_request(0, 0, 100, 4, 1));
  // Partial batch: the window anchored at the oldest arrival.
  EXPECT_EQ(batch_trigger_us(q, cfg), std::optional<std::uint64_t>(1100));
  q.admit(make_request(1, 0, 150, 4, 2));
  EXPECT_EQ(batch_trigger_us(q, cfg), std::optional<std::uint64_t>(1100));
  // Third request fills the batch: trigger snaps to its arrival.
  q.admit(make_request(2, 0, 400, 4, 3));
  EXPECT_EQ(batch_trigger_us(q, cfg), std::optional<std::uint64_t>(400));
  // Launch waits for the chip.
  EXPECT_EQ(launch_us(400, 250), 400u);
  EXPECT_EQ(launch_us(400, 900), 900u);
}

TEST_F(ServingTest, ReplayCompletesEverythingUnderCapacity) {
  ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 500;
  auto net = make_tiny_net(7);
  Server server(cfg);
  ASSERT_EQ(server.add_tenant(*net, accel_config()), 0u);

  std::vector<Request> trace;
  for (std::uint64_t i = 0; i < 10; ++i)
    trace.push_back(make_request(i, 0, i * 2000, 12, 100 + i));
  const auto outcomes = server.run_replay(std::move(trace));

  ASSERT_EQ(outcomes.size(), 10u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    EXPECT_EQ(o.id, i);  // sorted by id
    EXPECT_EQ(o.status, RequestStatus::kCompleted);
    EXPECT_EQ(o.output.numel(), 4u);
    EXPECT_GE(o.dispatch_us, o.arrival_us);
    EXPECT_EQ(o.done_us, o.dispatch_us + cfg.service_us(o.batch_size));
    EXPECT_EQ(o.e2e_us(), o.queue_us() + o.service_us());
    EXPECT_GE(o.batch_size, 1u);
    EXPECT_LE(o.batch_size, cfg.max_batch);
  }
  EXPECT_TRUE(server.accounting_conserved());
  const auto c = server.tenant_counters(0);
  EXPECT_EQ(c.submitted, 10u);
  EXPECT_EQ(c.completed, 10u);
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_EQ(c.shed, 0u);
  EXPECT_EQ(c.queued, 0u);
}

TEST_F(ServingTest, DynamicBatcherCoalescesBursts) {
  ServingConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100;
  auto net = make_tiny_net(8);
  Server server(cfg);
  server.add_tenant(*net, accel_config());

  // Ten requests in a 10 us burst: the batch fills at the 8th arrival and
  // launches immediately; the two stragglers ride the next window.
  std::vector<Request> trace;
  for (std::uint64_t i = 0; i < 10; ++i)
    trace.push_back(make_request(i, 0, i, 12, 200 + i));
  const auto outcomes = server.run_replay(std::move(trace));

  ASSERT_EQ(outcomes.size(), 10u);
  EXPECT_EQ(outcomes[0].batch_size, 8u);
  EXPECT_EQ(outcomes[0].dispatch_us, 7u);  // the batch-filling arrival
  EXPECT_EQ(outcomes[9].batch_size, 2u);
  const auto c = server.tenant_counters(0);
  EXPECT_EQ(c.batches, 2u);
  EXPECT_TRUE(server.accounting_conserved());
}

TEST_F(ServingTest, RejectPolicyEmitsRejectedOutcomes) {
  ServingConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100000;  // window never fires before drain
  cfg.queue_depth = 2;
  cfg.admission = AdmissionPolicy::kReject;
  auto net = make_tiny_net(9);
  Server server(cfg);
  server.add_tenant(*net, accel_config());

  std::vector<Request> trace;
  for (std::uint64_t i = 0; i < 5; ++i)
    trace.push_back(make_request(i, 0, i, 12, 300 + i));
  const auto outcomes = server.run_replay(std::move(trace));

  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[0].status, RequestStatus::kCompleted);
  EXPECT_EQ(outcomes[1].status, RequestStatus::kCompleted);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(outcomes[i].status, RequestStatus::kRejected);
    EXPECT_EQ(outcomes[i].done_us, outcomes[i].arrival_us);
  }
  const auto c = server.tenant_counters(0);
  EXPECT_EQ(c.submitted, 5u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.rejected, 3u);
  EXPECT_TRUE(server.accounting_conserved());
}

TEST_F(ServingTest, ShedOldestPolicyDropsStaleRequests) {
  ServingConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100000;
  cfg.queue_depth = 2;
  cfg.admission = AdmissionPolicy::kShedOldest;
  auto net = make_tiny_net(10);
  Server server(cfg);
  server.add_tenant(*net, accel_config());

  std::vector<Request> trace;
  for (std::uint64_t i = 0; i < 5; ++i)
    trace.push_back(make_request(i, 0, i, 12, 400 + i));
  const auto outcomes = server.run_replay(std::move(trace));

  // Requests 0..2 displaced in arrival order; the freshest two complete.
  ASSERT_EQ(outcomes.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcomes[i].status, RequestStatus::kShed);
    // Shed stamp is the displacing request's arrival (i victimized by i+2).
    EXPECT_EQ(outcomes[i].done_us, i + 2);
  }
  EXPECT_EQ(outcomes[3].status, RequestStatus::kCompleted);
  EXPECT_EQ(outcomes[4].status, RequestStatus::kCompleted);
  const auto c = server.tenant_counters(0);
  EXPECT_EQ(c.shed, 3u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_TRUE(server.accounting_conserved());
}

TEST_F(ServingTest, SchedulerBreaksLaunchTiesOnLowestTenant) {
  ServingConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100;
  cfg.num_chips = 1;  // both tenants share the chip
  auto net0 = make_tiny_net(11);
  auto net1 = make_tiny_net(12);
  Server server(cfg);
  server.add_tenant(*net0, accel_config());
  server.add_tenant(*net1, accel_config());
  EXPECT_EQ(server.tenant_chip(0), 0u);
  EXPECT_EQ(server.tenant_chip(1), 0u);

  std::vector<Request> trace;
  trace.push_back(make_request(0, 0, 0, 12, 500));
  trace.push_back(make_request(1, 1, 0, 12, 501));
  const auto outcomes = server.run_replay(std::move(trace));

  ASSERT_EQ(outcomes.size(), 2u);
  // Same trigger (window expiry at 100): tenant 0 wins the tie, tenant 1
  // waits for the chip.
  EXPECT_EQ(outcomes[0].dispatch_us, 100u);
  EXPECT_EQ(outcomes[1].dispatch_us, 100u + cfg.service_us(1));
  EXPECT_EQ(server.chip_free_us(0), outcomes[1].done_us);
}

TEST_F(ServingTest, ShardedChipsServeTenantsIndependently) {
  ServingConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100;
  cfg.num_chips = 2;
  auto net0 = make_tiny_net(13);
  auto net1 = make_tiny_net(14);
  Server server(cfg);
  server.add_tenant(*net0, accel_config());
  server.add_tenant(*net1, accel_config());
  EXPECT_EQ(server.tenant_chip(0), 0u);
  EXPECT_EQ(server.tenant_chip(1), 1u);

  std::vector<Request> trace;
  trace.push_back(make_request(0, 0, 0, 12, 600));
  trace.push_back(make_request(1, 1, 0, 12, 601));
  const auto outcomes = server.run_replay(std::move(trace));

  ASSERT_EQ(outcomes.size(), 2u);
  // No contention: both launch at their window expiry.
  EXPECT_EQ(outcomes[0].dispatch_us, 100u);
  EXPECT_EQ(outcomes[1].dispatch_us, 100u);
}

TEST_F(ServingTest, TraceGenerationIsDeterministicAndSorted) {
  TrafficSpec spec;
  spec.tenants = 2;
  spec.duration_us = 50000;
  spec.rate_rps = 400.0;
  spec.seed = 99;
  const auto a = generate_trace(spec, Shape{12});
  const auto b = generate_trace(spec, Shape{12});
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
    }
    ASSERT_EQ(a[i].input.numel(), b[i].input.numel());
    EXPECT_EQ(std::memcmp(a[i].input.data(), b[i].input.data(),
                          a[i].input.numel() * sizeof(float)),
              0);
  }
  TrafficSpec other = spec;
  other.seed = 100;
  const auto c = generate_trace(other, Shape{12});
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].arrival_us != c[i].arrival_us;
  EXPECT_TRUE(differs) << "different seeds should give different traces";
}

// The tentpole determinism claim: an entire replay — statuses, stamps, batch
// sizes, and output bytes — is identical for any RERAMDL_THREADS.
TEST_F(ServingTest, ReplayBitReproducibleAcrossThreadCounts) {
  TrafficSpec spec;
  spec.tenants = 2;
  spec.duration_us = 60000;
  spec.rate_rps = 300.0;
  spec.seed = 42;

  auto run = [&](std::size_t threads) {
    parallel::set_thread_count(threads);
    ServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_us = 2000;
    cfg.queue_depth = 8;
    cfg.admission = AdmissionPolicy::kShedOldest;
    auto net0 = make_tiny_net(21);
    auto net1 = make_tiny_net(22);
    Server server(cfg);
    server.add_tenant(*net0, accel_config());
    server.add_tenant(*net1, accel_config());
    auto outcomes = server.run_replay(generate_trace(spec, Shape{12}));
    EXPECT_TRUE(server.accounting_conserved());
    return outcomes;
  };

  const auto ref = run(1);
  ASSERT_FALSE(ref.empty());
  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const auto got = run(threads);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].id, ref[i].id);
      EXPECT_EQ(got[i].tenant, ref[i].tenant);
      EXPECT_EQ(got[i].status, ref[i].status);
      EXPECT_EQ(got[i].arrival_us, ref[i].arrival_us);
      EXPECT_EQ(got[i].dispatch_us, ref[i].dispatch_us);
      EXPECT_EQ(got[i].done_us, ref[i].done_us);
      EXPECT_EQ(got[i].batch_size, ref[i].batch_size);
      ASSERT_EQ(got[i].output.numel(), ref[i].output.numel());
      if (got[i].output.numel() > 0) {
        EXPECT_EQ(std::memcmp(got[i].output.data(), ref[i].output.data(),
                              ref[i].output.numel() * sizeof(float)),
                  0)
            << "output bytes differ for request " << ref[i].id;
      }
    }
  }
}

}  // namespace
}  // namespace reramdl::serving
