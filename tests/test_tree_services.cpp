// The §2 sibling data structures on the §4 machinery: the flip bit and
// the priority queue. The paper's point — the bottleneck argument is
// about *predecessor-dependent* objects, not counters specifically —
// becomes: same tree, same lemmas, same O(k) load, different root state.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "analysis/audit.hpp"
#include "core/tree_bit.hpp"
#include "core/tree_counter.hpp"
#include "core/tree_pq.hpp"
#include "harness/schedule.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

TEST(TreeFlipBit, SequentialFlipsReturnAlternatingBits) {
  TreeServiceParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.seed = 3;
  cfg.delay = DelayModel::uniform(1, 9);
  Simulator sim(std::make_unique<TreeFlipBit>(params), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  for (ProcessorId p = 0; p < n; ++p) {
    const OpId op = sim.begin_inc(p);
    sim.run_until_quiescent();
    ASSERT_TRUE(sim.result(op).has_value());
    EXPECT_EQ(*sim.result(op), static_cast<Value>(p % 2));
    sim.counter().check_quiescent(sim.ops_completed());
  }
  const auto& bit = dynamic_cast<const TreeFlipBit&>(sim.counter());
  EXPECT_EQ(bit.bit(), n % 2 == 1);
  bit.deep_check();
}

TEST(TreeFlipBit, InheritsTheBottleneckBound) {
  TreeServiceParams params;
  params.k = 3;
  Simulator sim(std::make_unique<TreeFlipBit>(params), {});
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  for (ProcessorId p = 0; p < n; ++p) {
    sim.begin_inc(p);
    sim.run_until_quiescent();
  }
  const TreeAuditReport report = audit_tree_run(sim);
  EXPECT_TRUE(report.retirement_lemma_ok);
  EXPECT_TRUE(report.pools_ok);
  EXPECT_LE(report.max_load, 30 * params.k);
}

TEST(TreeFlipBit, RetirementShipsTheBitCorrectly) {
  // Many flips force root retirements; the bit must survive handovers.
  TreeServiceParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.seed = 11;
  cfg.delay = DelayModel::uniform(1, 6);
  Simulator sim(std::make_unique<TreeFlipBit>(params), cfg);
  for (int i = 0; i < 100; ++i) {
    const OpId op = sim.begin_inc(static_cast<ProcessorId>(i % 8));
    sim.run_until_quiescent();
    EXPECT_EQ(*sim.result(op), static_cast<Value>(i % 2));
  }
  const auto& bit = dynamic_cast<const TreeFlipBit&>(sim.counter());
  EXPECT_GT(bit.stats().retirements_total, 0);
}

TEST(TreePriorityQueue, InsertThenExtractIsSorted) {
  TreeServiceParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.seed = 5;
  cfg.delay = DelayModel::uniform(1, 7);
  Simulator sim(std::make_unique<TreePriorityQueue>(params), cfg);
  const std::vector<std::int64_t> keys = {42, 7, 99, 7, -3, 18, 0, 56};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const OpId op = sim.begin_op(static_cast<ProcessorId>(i),
                                 {TreePriorityQueue::kOpInsert, keys[i]});
    sim.run_until_quiescent();
    EXPECT_EQ(*sim.result(op), keys[i]);  // insert echoes the key
  }
  std::vector<std::int64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const OpId op = sim.begin_op(static_cast<ProcessorId>(i),
                                 {TreePriorityQueue::kOpExtractMin});
    sim.run_until_quiescent();
    EXPECT_EQ(*sim.result(op), sorted[i]);
  }
  const auto& pq = dynamic_cast<const TreePriorityQueue&>(sim.counter());
  EXPECT_EQ(pq.size(), 0u);
}

TEST(TreePriorityQueue, ExtractFromEmptyReturnsSentinel) {
  TreeServiceParams params;
  params.k = 2;
  Simulator sim(std::make_unique<TreePriorityQueue>(params), {});
  const OpId op = sim.begin_op(3, {TreePriorityQueue::kOpExtractMin});
  sim.run_until_quiescent();
  EXPECT_EQ(*sim.result(op), TreePriorityQueue::kEmptyQueue);
}

TEST(TreePriorityQueue, InterleavedWorkload) {
  TreeServiceParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.seed = 21;
  cfg.delay = DelayModel::uniform(1, 5);
  Simulator sim(std::make_unique<TreePriorityQueue>(params), cfg);
  // Insert i*2 for i in 0..7, extracting after every second insert; a
  // min-extract always returns the smallest key still inside.
  std::vector<std::int64_t> inside;
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const auto origin = static_cast<ProcessorId>(i % 8);
    if (i % 3 != 2) {
      const auto key = static_cast<std::int64_t>(rng.next_below(1000));
      sim.begin_op(origin, {TreePriorityQueue::kOpInsert, key});
      sim.run_until_quiescent();
      inside.push_back(key);
    } else {
      const OpId op = sim.begin_op(origin, {TreePriorityQueue::kOpExtractMin});
      sim.run_until_quiescent();
      const auto it = std::min_element(inside.begin(), inside.end());
      ASSERT_NE(it, inside.end());
      EXPECT_EQ(*sim.result(op), *it);
      inside.erase(it);
    }
  }
  const auto& pq = dynamic_cast<const TreePriorityQueue&>(sim.counter());
  EXPECT_EQ(pq.size(), inside.size());
  pq.deep_check();
}

TEST(TreePriorityQueue, HandoverWordsGrowWithQueueUnlikeCounter) {
  // The measured caveat: the PQ's root handover ships the heap, so the
  // paper's O(log n)-bit message property does not extend to it.
  TreeServiceParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.seed = 2;
  Simulator pq_sim(std::make_unique<TreePriorityQueue>(params), cfg);
  for (int i = 0; i < 200; ++i) {
    pq_sim.begin_op(static_cast<ProcessorId>(i % 8),
                    {TreePriorityQueue::kOpInsert, 1000 - i});
    pq_sim.run_until_quiescent();
  }
  const auto& pq = dynamic_cast<const TreePriorityQueue&>(pq_sim.counter());
  ASSERT_GT(pq.stats().retirements_total, 0);
  EXPECT_GT(pq.stats().max_handover_words, 50);

  Simulator cnt_sim(std::make_unique<TreeCounter>(params), cfg);
  for (int i = 0; i < 200; ++i) {
    cnt_sim.begin_inc(static_cast<ProcessorId>(i % 8));
    cnt_sim.run_until_quiescent();
  }
  const auto& cnt = dynamic_cast<const TreeCounter&>(cnt_sim.counter());
  EXPECT_LE(cnt.stats().max_handover_words, 4);  // node, parent, value (+tag)

  // The same divergence in the runtime's own accounting: the largest
  // single message the PQ run ever sent is an order of magnitude beyond
  // the counter's (whose messages all stay O(1) words = O(log n) bits).
  EXPECT_GT(pq_sim.metrics().max_message_words(),
            10 * cnt_sim.metrics().max_message_words());
  EXPECT_LE(cnt_sim.metrics().max_message_words(), 5);
}

TEST(TreePriorityQueue, WideHandoversMatchTheSimulatorOnTheRuntime) {
  // The PQ's root handover ships the whole heap, far wider than a
  // message's inline words, so this drives the spilled-payload path
  // through the threaded runtime's queues. Sequential ops keep the
  // tree's message pattern schedule-independent: values and the widest
  // message must agree with the simulator exactly.
  TreeServiceParams params;
  params.k = 2;
  constexpr int kOps = 200;
  const auto arg_of = [](int i) -> MessageArgs {
    if (i < kOps) return {TreePriorityQueue::kOpInsert, 1000 - i};
    return {TreePriorityQueue::kOpExtractMin};
  };
  SimConfig cfg;
  cfg.seed = 2;
  Simulator sim(std::make_unique<TreePriorityQueue>(params), cfg);
  RuntimeConfig rcfg;
  rcfg.workers = 1;
  rcfg.max_ops = 2 * kOps;
  ThreadedRuntime rt(std::make_unique<TreePriorityQueue>(params), rcfg);
  for (int i = 0; i < 2 * kOps; ++i) {
    const auto origin = static_cast<ProcessorId>(i % 8);
    const OpId sim_op = sim.begin_op(origin, arg_of(i));
    sim.run_until_quiescent();
    const OpId rt_op = rt.begin_op(origin, arg_of(i));
    rt.wait_quiescent();
    ASSERT_EQ(sim_op, rt_op);
    ASSERT_EQ(sim.result(sim_op), rt.result(rt_op)) << "op " << i;
  }
  const auto& pq = dynamic_cast<const TreePriorityQueue&>(rt.protocol());
  EXPECT_GT(pq.stats().max_handover_words, 50);
  EXPECT_GT(rt.merged_metrics().max_message_words(),
            static_cast<std::int64_t>(MessageArgs::kInline) + 1);
  EXPECT_EQ(rt.merged_metrics().max_message_words(),
            sim.metrics().max_message_words());
  EXPECT_EQ(rt.merged_metrics().total_messages(),
            sim.metrics().total_messages());
  pq.check_quiescent(2 * kOps);
}

TEST(TreePriorityQueue, PoolWrapKeepsHeapIntact) {
  // 200+ ops on n=8 wrap pools repeatedly; the heap must survive
  // wrap-around handovers too.
  TreeServiceParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.seed = 8;
  cfg.delay = DelayModel::uniform(1, 4);
  Simulator sim(std::make_unique<TreePriorityQueue>(params), cfg);
  for (int i = 0; i < 128; ++i) {
    sim.begin_op(static_cast<ProcessorId>(i % 8),
                 {TreePriorityQueue::kOpInsert, i});
    sim.run_until_quiescent();
  }
  for (int i = 0; i < 128; ++i) {
    const OpId op = sim.begin_op(static_cast<ProcessorId>(i % 8),
                                 {TreePriorityQueue::kOpExtractMin});
    sim.run_until_quiescent();
    EXPECT_EQ(*sim.result(op), i);
  }
}

}  // namespace
}  // namespace dcnt
