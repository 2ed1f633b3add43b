// Runtime/simulator equivalence: the same protocol fed the same
// operation multiset must behave identically in both backends wherever
// the model says it must.
//
// Sequential schedules (the paper's model — quiesce between incs) are
// the sharp case: the tree and central counters send a
// schedule-independent message set per operation, so not just the
// values but total_messages and every per-processor load must match the
// simulator exactly, across seeds (which vary the simulator's delivery
// interleavings) and worker counts (which vary the runtime's).
//
// Concurrent schedules only promise a value permutation and
// conservation laws (sum of loads == 2 * total), checked in
// test_runtime.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "harness/throughput.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

void expect_backends_agree(CounterKind kind, std::int64_t min_n,
                           std::size_t workers, std::uint64_t seed,
                           std::size_t flush_batch = 64) {
  SCOPED_TRACE(to_string(kind) + " W=" + std::to_string(workers) +
               " seed=" + std::to_string(seed) +
               " flush_batch=" + std::to_string(flush_batch));
  auto for_sim = make_counter(kind, min_n);
  const auto n = static_cast<std::int64_t>(for_sim->num_processors());
  const std::vector<ProcessorId> order = schedule_sequential(n);

  SimConfig config;
  config.seed = seed;
  Simulator sim(std::move(for_sim), config);
  const RunResult sim_result = run_sequential(sim, order);
  ASSERT_TRUE(sim_result.values_ok);

  const RuntimeSequentialResult rt_result = run_runtime_sequential(
      make_counter(kind, min_n), workers, order, seed, flush_batch);

  // Both sequential drivers assert values 0,1,2,... internally; this
  // pins that they returned the same thing to the caller too.
  EXPECT_EQ(rt_result.values, sim_result.values);
  EXPECT_EQ(rt_result.metrics.total_messages(), sim_result.total_messages);
  EXPECT_EQ(rt_result.metrics.max_load(), sim_result.max_load);
  for (ProcessorId p = 0; p < n; ++p) {
    EXPECT_EQ(rt_result.metrics.load(p), sim.metrics().load(p)) << "p=" << p;
    EXPECT_EQ(rt_result.metrics.word_load(p), sim.metrics().word_load(p))
        << "p=" << p;
  }
}

TEST(RuntimeEquivalence, CentralMatchesSimulatorExactly) {
  for (const std::uint64_t seed : {1u, 7u, 33u}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      expect_backends_agree(CounterKind::kCentral, 12, workers, seed);
    }
  }
}

TEST(RuntimeEquivalence, TreeCounterMatchesSimulatorExactly) {
  for (const std::uint64_t seed : {1u, 7u, 33u}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      // k=2 tree (n=8): retirements happen within the schedule, so the
      // equality covers handover, NewId and forwarding traffic too.
      expect_backends_agree(CounterKind::kTree, 8, workers, seed);
    }
  }
}

TEST(RuntimeEquivalence, StaticTreeMatchesSimulatorExactly) {
  expect_backends_agree(CounterKind::kStaticTree, 8, 4, 9);
}

// Outbox coalescing is delivery-transparent: whether cross-shard events
// are handed over one at a time (flush_batch=1), in small clumps, or
// only at the dry point (a batch bound far above anything a sequential
// schedule accumulates), the values, every per-processor load, and the
// per-op message attribution must still match the simulator exactly.
TEST(RuntimeEquivalence, OutboxFlushBatchSizeIsObservablyTransparent) {
  for (const std::size_t flush_batch : {1u, 4u, 1024u}) {
    expect_backends_agree(CounterKind::kCentral, 12, 4, 7, flush_batch);
    expect_backends_agree(CounterKind::kTree, 8, 4, 7, flush_batch);
  }
}

// Longer sequential schedule on the tree: several incs per processor,
// so roles retire repeatedly while the counts stay deterministic.
TEST(RuntimeEquivalence, TreeRepeatedRoundsMatchSimulator) {
  const std::int64_t min_n = 8;
  auto for_sim = make_counter(CounterKind::kTree, min_n);
  const auto n = static_cast<std::int64_t>(for_sim->num_processors());
  std::vector<ProcessorId> order;
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t p = 0; p < n; ++p) {
      order.push_back(static_cast<ProcessorId>(p));
    }
  }
  SimConfig config;
  config.seed = 21;
  Simulator sim(std::move(for_sim), config);
  const RunResult sim_result = run_sequential(sim, order);
  const RuntimeSequentialResult rt_result = run_runtime_sequential(
      make_counter(CounterKind::kTree, min_n), 4, order, 21);
  EXPECT_EQ(rt_result.values, sim_result.values);
  EXPECT_EQ(rt_result.metrics.total_messages(), sim_result.total_messages);
  EXPECT_EQ(rt_result.metrics.max_load(), sim_result.max_load);
}

}  // namespace
}  // namespace dcnt
