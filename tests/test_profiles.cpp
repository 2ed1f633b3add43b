// Simulator latency (the load driver on the simulator's clock, one tick
// as 1 us) and the per-level tree profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "analysis/tree_profile.hpp"
#include "baselines/central.hpp"
#include "core/bound.hpp"
#include "core/tree_counter.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/stats.hpp"
#include "traffic/shape.hpp"

namespace dcnt {
namespace {

/// Every field fill_traffic copies, for run-to-run equality.
auto latency_fields(const RunResult& r) {
  return std::tuple(r.ops, r.mean_us, r.p50_us, r.p95_us, r.p99_us,
                    r.p999_us, r.p9999_us, r.max_us, r.slo_den, r.slo_ok,
                    r.hdr_recorder, r.values);
}

TEST(Latency, FixedDelayCentralRoundTrip) {
  SimConfig cfg;
  cfg.delay = DelayModel::fixed_delay(3);
  Simulator sim(std::make_unique<CentralCounter>(8, 0), cfg);
  // The holder goes last.
  const RunResult run = run_sequential(sim, schedule_reverse(8));
  EXPECT_EQ(run.ops, 8u);
  EXPECT_EQ(run.slo_den, 8);
  // Remote incs: request 3 + reply 3 = 6 ticks; the holder's own is 0.
  EXPECT_EQ(run.max_us, 6.0);
  EXPECT_EQ(run.p50_us, 6.0);
  EXPECT_NEAR(run.mean_us, 6.0 * 7 / 8, 1e-9);
}

TEST(Latency, TreeDeeperThanCentral) {
  SimConfig cfg;
  cfg.delay = DelayModel::fixed_delay(1);
  TreeCounterParams params;
  params.k = 3;
  Simulator tree(std::make_unique<TreeCounter>(params), cfg);
  Simulator central(std::make_unique<CentralCounter>(81), cfg);
  // Theta(k) hops vs one round trip — the price of spreading load.
  EXPECT_GT(run_sequential(tree, schedule_sequential(81)).mean_us,
            run_sequential(central, schedule_sequential(81)).mean_us);
}

TEST(Latency, DriverTicksAreTheSimulatorsOpTimes) {
  // The simulator is the latency reference: whatever the window, the
  // driver charges each op exactly op_responded_at - op_invoked_at. The
  // SLO sweep pins the whole distribution, one CDF step at a time.
  for (const std::size_t window : {std::size_t{1}, std::size_t{16}}) {
    const auto run = [&](std::int64_t slo_ticks, Summary* ticks) {
      SimConfig cfg;
      cfg.seed = 11;
      cfg.delay = DelayModel::uniform(1, 8);
      Simulator sim(make_counter(CounterKind::kTree, 81), cfg);
      traffic::DriverOptions load;
      load.concurrency = window;
      load.slo_ns = slo_ticks * 1000;
      const RunResult result = run_load(
          sim, make_initiators("roundrobin", 0.0, 81, 324, 1), load);
      if (ticks != nullptr) {
        for (OpId op = 0; op < static_cast<OpId>(sim.ops_started()); ++op) {
          ticks->add(sim.op_responded_at(op) - sim.op_invoked_at(op));
        }
      }
      return result;
    };
    Summary ticks;
    const RunResult result = run(0, &ticks);
    ASSERT_EQ(result.slo_den, 324);
    EXPECT_FALSE(result.hdr_recorder);
    EXPECT_DOUBLE_EQ(result.mean_us, ticks.mean()) << window;
    for (const auto& [got, q] :
         {std::pair{result.p50_us, 50.0}, std::pair{result.p95_us, 95.0},
          std::pair{result.p99_us, 99.0}, std::pair{result.max_us, 100.0}}) {
      EXPECT_EQ(got, static_cast<double>(ticks.percentile(q))) << window;
    }
    for (std::int64_t slo = ticks.min(); slo < ticks.max(); ++slo) {
      const auto within = std::count_if(
          ticks.samples().begin(), ticks.samples().end(),
          [&](std::int64_t t) { return t <= slo; });
      EXPECT_EQ(run(slo, nullptr).slo_ok, within) << window << " " << slo;
    }
  }
}

TEST(Latency, OpenLoopRunsInTicks) {
  // An arrival every 2 ticks (500k/s of 1 us ticks), three ops in flight:
  // each arrives on its tick, and a remote op reads exactly request 3 +
  // reply 3.
  traffic::DriverOptions load;
  load.shape.rate = 500'000.0;
  const std::vector<ProcessorId> order =
      make_initiators("roundrobin", 0.0, 8, 400, 1);
  SimConfig cfg;
  cfg.delay = DelayModel::fixed_delay(3);
  Simulator sim(std::make_unique<CentralCounter>(8, 0), cfg);
  const RunResult run = run_load(sim, order, load);
  ASSERT_EQ(run.ops, order.size());
  EXPECT_TRUE(run.values_ok);
  for (OpId op = 0; op < static_cast<OpId>(order.size()); ++op) {
    EXPECT_EQ(sim.op_invoked_at(op), 2 * op);
    EXPECT_EQ(sim.op_responded_at(op) - sim.op_invoked_at(op),
              order[static_cast<std::size_t>(op)] == 0 ? 0 : 6);
  }
  EXPECT_EQ(run.max_us, 6.0);
  EXPECT_EQ(run.mean_us, 6.0 * 7 / 8);

  // Arrivals between ticks go out on the first tick that reaches them,
  // and random delays leave a run a pure function of (protocol, seed).
  load.shape.rate = 300'000.0;
  cfg.delay = DelayModel::uniform(1, 8);
  const auto again = [&] {
    Simulator s(std::make_unique<CentralCounter>(8, 0), cfg);
    const RunResult r = run_load(s, order, load);
    traffic::ArrivalTimeline timeline(load.shape);
    for (OpId op = 0; op < static_cast<OpId>(order.size()); ++op) {
      const std::int64_t arrival_ns = 1000 + timeline.next_ns();
      EXPECT_EQ(s.op_invoked_at(op), (arrival_ns + 999) / 1000 - 1);
    }
    return latency_fields(r);
  };
  EXPECT_EQ(again(), again());
}

TEST(Latency, DurationCutInTicksRunsAnExactPrefix) {
  // Four clients, every op remote (6 ticks): a window refills at ticks
  // 0, 6, ..., 96, and the first refill at or past the 100-tick budget
  // declines, so exactly 17 * 4 ops run, ids 0..67.
  SimConfig cfg;
  cfg.delay = DelayModel::fixed_delay(3);
  Simulator sim(std::make_unique<CentralCounter>(8, 0), cfg);
  traffic::DriverOptions load;
  load.concurrency = 4;
  load.duration_s = 100e-6;
  const RunResult run = run_load(sim, schedule_single_origin(1, 1000), load);
  EXPECT_EQ(run.ops, 68u);
  EXPECT_EQ(sim.ops_started(), 68u);
  EXPECT_EQ(sim.ops_completed(), 68u);
  EXPECT_TRUE(run.values_ok);  // a permutation of 0..67
  EXPECT_EQ(run.max_us, 6.0);
}

TEST(TreeProfile, RowsAreInternallyConsistent) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim(std::make_unique<TreeCounter>(params), {});
  run_sequential(sim, schedule_sequential(81));
  const auto profile = tree_level_profile(sim);
  ASSERT_EQ(profile.size(), 4u);  // levels 0..k
  std::int64_t total_retirements = 0;
  for (const auto& row : profile) {
    EXPECT_EQ(row.nodes, ipow(3, row.level));
    EXPECT_LE(row.max_retirements_per_node, row.pool_budget_per_node);
    // Incumbents: the initial ones plus one per retirement, minus any
    // processor serving twice (none without pool wraps).
    EXPECT_EQ(row.distinct_incumbents, row.nodes + row.retirements);
    EXPECT_GE(row.max_incumbent_load, 1);
    total_retirements += row.retirements;
  }
  const auto& tc = dynamic_cast<const TreeCounter&>(sim.counter());
  EXPECT_EQ(total_retirements, tc.stats().retirements_total);
}

TEST(TreeProfile, LeafParentLevelNeverRetiresAtDefaultThreshold) {
  TreeCounterParams params;
  params.k = 4;
  Simulator sim(std::make_unique<TreeCounter>(params), {});
  run_sequential(sim, schedule_sequential(1024));
  const auto profile = tree_level_profile(sim);
  EXPECT_EQ(profile.back().retirements, 0);
  EXPECT_EQ(profile.back().pool_budget_per_node, 0);
  EXPECT_EQ(profile.back().distinct_incumbents, profile.back().nodes);
}

TEST(TreeProfile, TextRenderingContainsEveryLevel) {
  TreeCounterParams params;
  params.k = 2;
  Simulator sim(std::make_unique<TreeCounter>(params), {});
  run_sequential(sim, schedule_sequential(8));
  const std::string text = to_string(tree_level_profile(sim));
  EXPECT_NE(text.find("level"), std::string::npos);
  EXPECT_NE(text.find("pool budget"), std::string::npos);
}

}  // namespace
}  // namespace dcnt
