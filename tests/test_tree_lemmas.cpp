// Executable versions of the paper's §4 lemmas, via analysis/audit.hpp.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/audit.hpp"
#include "core/tree_counter.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

Simulator run_paper_workload(int k, std::uint64_t seed, bool random_order) {
  TreeCounterParams params;
  params.k = k;
  SimConfig cfg;
  cfg.seed = seed;
  cfg.delay = DelayModel::uniform(1, 8);
  Simulator sim(std::make_unique<TreeCounter>(params), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  Rng rng(seed + 1);
  const auto order =
      random_order ? schedule_permutation(n, rng) : schedule_sequential(n);
  run_sequential(sim, order);
  return sim;
}

class LemmaTest : public ::testing::TestWithParam<std::tuple<int, int, bool>> {
 protected:
  Simulator sim_ = run_paper_workload(
      std::get<0>(GetParam()),
      static_cast<std::uint64_t>(std::get<1>(GetParam())),
      std::get<2>(GetParam()));
  TreeAuditReport report_ = audit_tree_run(sim_);
};

TEST_P(LemmaTest, RetirementLemma) {
  // "No node retires more than once during any single inc operation."
  EXPECT_TRUE(report_.retirement_lemma_ok)
      << "max retirements per (node, op): "
      << report_.max_retirements_per_node_per_op;
}

TEST_P(LemmaTest, NumberOfRetirementsLemma) {
  // "Each node on level i retires at most k^(k-i) - 1 times" — i.e. the
  // replacement pools never run out.
  EXPECT_TRUE(report_.pools_ok);
  for (std::size_t level = 0; level < report_.max_retirements_by_level.size();
       ++level) {
    EXPECT_LE(report_.max_retirements_by_level[level],
              report_.pool_budget_by_level[level])
        << "level " << level;
  }
}

TEST_P(LemmaTest, PerOperationMessageBudget) {
  // Grow Old Lemma consequence: an inc costs its k+2 path messages plus
  // O(k) per retirement it triggers.
  EXPECT_TRUE(report_.op_messages_ok)
      << "max per-op messages " << report_.max_op_messages << " budget "
      << report_.op_message_budget;
}

TEST_P(LemmaTest, BottleneckTheorem) {
  // "Each processor receives and sends at most O(k) messages."
  const int k = std::get<0>(GetParam());
  EXPECT_LE(report_.max_load, 30 * k)
      << "load/k = " << report_.load_per_k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LemmaTest,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Values(1, 2),
                       ::testing::Bool()));

TEST(LeafWorkLemma, LeavesSeeConstantTraffic) {
  // "During the entire sequence of n inc operations each leaf receives
  // and sends at most [a constant number of] messages." In its *leaf*
  // capacity a processor sends one inc, receives one value, and would
  // receive a new-id notification only if its level-k parent retired —
  // which never happens under the default threshold (level-k pools have
  // size 1). Most processors additionally serve an inner-node stint
  // (the pools cover all n ids), which adds O(k); pure leaves stay at
  // exactly 2.
  Simulator sim = run_paper_workload(4, 7, false);
  const auto* tc = dynamic_cast<const TreeCounter*>(&sim.counter());
  ASSERT_NE(tc, nullptr);
  const int k = tc->layout().k();
  // Level-k nodes never retire => leaves never receive new-id messages.
  EXPECT_EQ(tc->stats().retirements_by_level[static_cast<std::size_t>(k)], 0);
  const Summary loads = sim.metrics().load_summary();
  EXPECT_EQ(loads.min(), 2);  // a pure leaf: one send, one receive
}

TEST(GrowOldLemma, RetirementFreeOpsAreCheap) {
  // Ops that trigger no retirement cost exactly the k+2 path messages.
  Simulator sim = run_paper_workload(3, 5, false);
  const auto* tc = dynamic_cast<const TreeCounter*>(&sim.counter());
  ASSERT_NE(tc, nullptr);
  std::vector<bool> op_retired(sim.ops_completed(), false);
  for (const auto& ev : tc->retirement_log()) {
    if (ev.op >= 0) op_retired[static_cast<std::size_t>(ev.op)] = true;
  }
  const auto& per_op = sim.per_op_messages();
  std::int64_t checked = 0;
  for (std::size_t op = 0; op < per_op.size(); ++op) {
    if (op_retired[op]) continue;
    // Exactly the k+2 path messages — except that hops between two
    // roles held by the same processor are local and uncounted, so the
    // count can only be smaller.
    EXPECT_LE(per_op[op], 3 + 2) << "op " << op;  // k+2 with k=3
    EXPECT_GE(per_op[op], 2) << "op " << op;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(RetirementLemma, HoldsEvenWithHandoverAgedVariant) {
  TreeCounterParams params;
  params.k = 4;
  params.count_handover_in_age = true;
  Simulator sim(std::make_unique<TreeCounter>(params), {});
  run_sequential(sim, schedule_sequential(1024));
  const TreeAuditReport report = audit_tree_run(sim);
  EXPECT_TRUE(report.retirement_lemma_ok);
}

}  // namespace
}  // namespace dcnt
