// Randomized stress: drive every counter (and the tree services) with
// pseudo-random workloads, delivery regimes and interleavings, checking
// semantic invariants at every quiescent point. No expectations about
// specific numbers — only that nothing is ever wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/tree_bit.hpp"
#include "core/tree_counter.hpp"
#include "core/tree_pq.hpp"
#include "core/tree_service.hpp"
#include "faults/retry.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

DelayModel random_delay(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return DelayModel::fixed_delay(rng.next_in(1, 4));
    case 1:
      return DelayModel::uniform(1, rng.next_in(2, 40));
    case 2:
      return DelayModel::heavy_tail(1, rng.next_in(10, 500));
    default:
      return DelayModel::with_slow_processor(
          DelayModel::uniform(1, 8), static_cast<ProcessorId>(rng.next_below(8)),
          rng.next_in(2, 20));
  }
}

class FuzzCounters : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCounters, SequentialInvariantsUnderRandomEverything) {
  Rng meta(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 8; ++round) {
    const auto kinds = all_counter_kinds();
    const CounterKind kind = kinds[meta.next_below(kinds.size())];
    const std::int64_t n = meta.next_in(8, 100);
    SimConfig cfg;
    cfg.seed = meta.next();
    cfg.delay = random_delay(meta);
    cfg.fifo_channels = meta.next_below(2) == 0;
    Simulator sim(make_counter(kind, n), cfg);
    const auto actual_n = static_cast<std::int64_t>(sim.num_processors());
    const std::int64_t ops = meta.next_in(1, 2 * actual_n);
    Rng order_rng(meta.next());
    const auto order = schedule_uniform(actual_n, ops, order_rng);
    const RunResult result = run_sequential(sim, order);
    ASSERT_TRUE(result.values_ok)
        << to_string(kind) << " n=" << actual_n << " ops=" << ops;
  }
}

TEST_P(FuzzCounters, ConcurrentPermutationInvariant) {
  Rng meta(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  for (int round = 0; round < 6; ++round) {
    const auto kinds = all_counter_kinds();
    const CounterKind kind = kinds[meta.next_below(kinds.size())];
    if (!supports_concurrency(kind)) continue;
    const std::int64_t n = meta.next_in(8, 64);
    SimConfig cfg;
    cfg.seed = meta.next();
    cfg.delay = random_delay(meta);
    Simulator sim(make_counter(kind, n), cfg);
    const auto actual_n = static_cast<std::int64_t>(sim.num_processors());
    Rng order_rng(meta.next());
    const auto order =
        schedule_uniform(actual_n, meta.next_in(4, 80), order_rng);
    const auto batch = static_cast<std::size_t>(meta.next_in(2, 16));
    const RunResult result = run_concurrent(sim, order, batch);
    ASSERT_TRUE(result.values_ok) << to_string(kind);
  }
}

TEST_P(FuzzCounters, TreePriorityQueueRandomOps) {
  Rng meta(static_cast<std::uint64_t>(GetParam()) * 31337 + 99);
  TreeServiceParams params;
  params.k = 2 + static_cast<int>(meta.next_below(2));  // k in {2, 3}
  SimConfig cfg;
  cfg.seed = meta.next();
  cfg.delay = random_delay(meta);
  Simulator sim(std::make_unique<TreePriorityQueue>(params), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  std::vector<std::int64_t> model;  // reference multiset
  const std::int64_t ops = meta.next_in(20, 120);
  for (std::int64_t i = 0; i < ops; ++i) {
    const auto origin = static_cast<ProcessorId>(meta.next_below(
        static_cast<std::uint64_t>(n)));
    if (meta.next_below(2) == 0) {
      const auto key = meta.next_in(-50, 50);
      const OpId op =
          sim.begin_op(origin, {TreePriorityQueue::kOpInsert, key});
      sim.run_until_quiescent();
      ASSERT_EQ(*sim.result(op), key);
      model.push_back(key);
    } else {
      const OpId op = sim.begin_op(origin, {TreePriorityQueue::kOpExtractMin});
      sim.run_until_quiescent();
      if (model.empty()) {
        ASSERT_EQ(*sim.result(op), TreePriorityQueue::kEmptyQueue);
      } else {
        const auto it = std::min_element(model.begin(), model.end());
        ASSERT_EQ(*sim.result(op), *it);
        model.erase(it);
      }
    }
  }
  const auto& pq = dynamic_cast<const TreePriorityQueue&>(sim.counter());
  EXPECT_EQ(pq.size(), model.size());
  pq.deep_check();
}

TEST_P(FuzzCounters, TreeBitRandomInterleavedWithClones) {
  // Clone mid-run and continue both — state snapshots must be complete.
  Rng meta(static_cast<std::uint64_t>(GetParam()) * 271 + 3);
  TreeServiceParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.seed = meta.next();
  cfg.delay = random_delay(meta);
  Simulator sim(std::make_unique<TreeFlipBit>(params), cfg);
  const std::int64_t warm = meta.next_in(1, 30);
  for (std::int64_t i = 0; i < warm; ++i) {
    sim.begin_inc(static_cast<ProcessorId>(meta.next_below(8)));
    sim.run_until_quiescent();
  }
  Simulator clone(sim);
  for (Simulator* s : {&sim, &clone}) {
    for (int i = 0; i < 10; ++i) {
      const OpId op = s->begin_inc(static_cast<ProcessorId>(i % 8));
      s->run_until_quiescent();
      ASSERT_EQ(*s->result(op), static_cast<Value>((warm + i) % 2));
    }
  }
}

TEST_P(FuzzCounters, LossyChannelsWithReliableTransport) {
  // Random FaultSchedules over the retry transport: any mix of drops,
  // duplicates and a crash-recover window must still hand out distinct
  // consecutive values (run_sequential aborts otherwise). The inner
  // protocol is the plain tree counter — all fault masking lives in the
  // transport.
  Rng meta(static_cast<std::uint64_t>(GetParam()) * 48611 + 7);
  for (int round = 0; round < 6; ++round) {
    SimConfig cfg;
    cfg.seed = meta.next();
    cfg.delay = random_delay(meta);
    cfg.faults.drop_probability =
        static_cast<double>(meta.next_below(30)) / 100.0;  // 0 .. 0.29
    cfg.faults.duplicate_probability =
        static_cast<double>(meta.next_below(30)) / 100.0;
    if (meta.next_below(2) == 0) {
      // A transient crash-recover window on a non-root processor: the
      // transport rides it out with retransmissions (crash-stops need
      // the self-healing service, covered in test_fault_tolerance).
      const SimTime at = meta.next_in(10, 200);
      cfg.faults.crashes.push_back(
          {static_cast<ProcessorId>(meta.next_in(1, 7)), at,
           at + meta.next_in(20, 120)});
    }
    TreeServiceParams params;
    params.k = 2;
    RetryParams retry;
    retry.ack_timeout = meta.next_in(4, 16);
    retry.max_timeout = retry.ack_timeout * 8;
    retry.max_attempts = 30;
    Simulator sim(std::make_unique<ReliableTransport>(
                      std::make_unique<TreeCounter>(params), retry),
                  cfg);
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    Rng order_rng(meta.next());
    const auto order = schedule_uniform(n, meta.next_in(4, 3 * n), order_rng);
    const RunResult result = run_sequential(sim, order);
    ASSERT_TRUE(result.values_ok)
        << "drop=" << cfg.faults.drop_probability
        << " dup=" << cfg.faults.duplicate_probability
        << " crashes=" << cfg.faults.crashes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCounters, ::testing::Range(1, 6));

}  // namespace
}  // namespace dcnt
