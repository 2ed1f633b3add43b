// Model-checking small instances: every delivery schedule, not just
// sampled ones (the §2 model quantifies over all of them).
#include "analysis/explore.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

#include <memory>

#include "baselines/central.hpp"
#include "baselines/counting_network.hpp"
#include "core/tree_counter.hpp"
#include "core/tree_pq.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

TEST(Explore, CentralCounterTwoConcurrentIncsExhaustive) {
  Simulator base(std::make_unique<CentralCounter>(4), {});
  const ExploreResult result = explore_schedules(base, {1, 2});
  EXPECT_FALSE(result.truncated);
  // Two requests race to the holder: 2 orders at the holder, then the
  // replies interleave; every path must hand out {0, 1}.
  EXPECT_GE(result.paths, 2);
  EXPECT_EQ(result.max_depth, 4);  // 2 requests + 2 replies
  EXPECT_EQ(result.distinct_outcomes, 2);  // (0,1) and (1,0)
}

TEST(Explore, CentralCounterThreeIncs) {
  Simulator base(std::make_unique<CentralCounter>(5), {});
  const ExploreResult result = explore_schedules(base, {1, 2, 3});
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.distinct_outcomes, 6);  // all 3! arrival orders
}

TEST(Explore, TreeCounterSingleIncAllSchedules) {
  TreeCounterParams params;
  params.k = 2;
  Simulator base(std::make_unique<TreeCounter>(params), {});
  const ExploreResult result = explore_schedules(base, {5});
  EXPECT_FALSE(result.truncated);
  // One inc is a chain: exactly one schedule, k+2 messages. Each of the
  // k non-root roles on the path buffers the inc and flushes it at its
  // dry point, a local event of its own, so the chain is k+2 deliveries
  // plus k flushes long; a flush is never pending next to another
  // event, so the schedule stays unique.
  EXPECT_EQ(result.paths, 1);
  EXPECT_EQ(result.max_depth, 4 + params.k);
  EXPECT_EQ(result.distinct_outcomes, 1);
  Simulator sim(base);
  sim.begin_inc(5);
  sim.run_until_quiescent();
  EXPECT_EQ(sim.metrics().total_messages(), params.k + 2);
}

TEST(Explore, TreeCounterTwoConcurrentIncsExhaustive) {
  TreeCounterParams params;
  params.k = 2;
  Simulator base(std::make_unique<TreeCounter>(params), {});
  const ExploreResult result = explore_schedules(base, {0, 7});
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.paths, 1);
  EXPECT_EQ(result.distinct_outcomes, 2);
}

TEST(Explore, TreeCounterRetirementCascadeAllSchedules) {
  // Warm the tree until the next inc is about to trigger retirements,
  // then explore every schedule of that inc — this model-checks the
  // handover / new-id / stash / forward machinery exhaustively.
  TreeCounterParams params;
  params.k = 2;
  params.age_threshold = 6;  // retire a bit sooner; still stable (>= k+2)
  bool found_branching = false;
  std::int64_t paths_checked = 0;
  for (std::int64_t warm = 0; warm < 7 && !found_branching; ++warm) {
    Simulator base(std::make_unique<TreeCounter>(params), {});
    std::vector<ProcessorId> warmup;
    for (ProcessorId p = 0; p < warm; ++p) warmup.push_back(p);
    if (!warmup.empty()) run_sequential(base, warmup);
    // Explore the next op's schedules; when it triggers a retirement,
    // the handover + notification fan-out branches the schedule tree —
    // far past full exhaustiveness (two simultaneous retirements put
    // ~10 messages in flight), so coverage is cap-bounded. Every
    // explored path still checks all invariants.
    ExploreOptions options;
    options.max_paths = 100'000;
    const ExploreResult result = explore_schedules(
        base, {static_cast<ProcessorId>(warm)}, options);
    EXPECT_EQ(result.distinct_outcomes, 1);  // single op: value fixed
    paths_checked += result.paths;
    if (result.paths > 1) found_branching = true;
  }
  // Some warmup length leaves a node one message short of retirement.
  EXPECT_TRUE(found_branching);
  EXPECT_GE(paths_checked, 1000);  // real coverage, not a near-miss
}

TEST(Explore, CountingNetworkTwoTokensExhaustive) {
  CountingNetworkParams params;
  params.n = 4;
  params.width = 2;
  Simulator base(std::make_unique<CountingNetworkCounter>(params), {});
  const ExploreResult result = explore_schedules(base, {0, 1});
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.distinct_outcomes, 2);
}

TEST(Explore, PriorityQueueInsertExtractExhaustive) {
  TreeServiceParams params;
  params.k = 2;
  Simulator base(std::make_unique<TreePriorityQueue>(params), {});
  // Insert then (sequentially) extract: both explored exhaustively.
  ExploreOptions options;
  options.check_counter_semantics = false;
  options.on_path_end = [](const Simulator& sim) {
    DCNT_CHECK(sim.result(0).has_value());
    DCNT_CHECK(*sim.result(0) == 42);
  };
  const ExploreResult insert_result = explore_schedules_args(
      base, {{3, {TreePriorityQueue::kOpInsert, 42}}}, options);
  EXPECT_FALSE(insert_result.truncated);
  EXPECT_GE(insert_result.paths, 1);
}

TEST(Explore, TruncationIsReportedNotSilent) {
  TreeCounterParams params;
  params.k = 2;
  Simulator base(std::make_unique<TreeCounter>(params), {});
  ExploreOptions options;
  options.max_paths = 3;  // deliberately tiny
  const ExploreResult result =
      explore_schedules(base, {0, 2, 4, 6}, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.paths, 3);
}

TEST(Explore, CustomInvariantRuns) {
  Simulator base(std::make_unique<CentralCounter>(3), {});
  int calls = 0;
  ExploreOptions options;
  options.on_path_end = [&calls](const Simulator& sim) {
    ++calls;
    DCNT_CHECK(sim.metrics().total_messages() == 4);
  };
  const ExploreResult result = explore_schedules(base, {1, 2}, options);
  EXPECT_EQ(calls, result.paths);
}

TEST(Explore, ParallelExplorationMatchesSerial) {
  Simulator central(std::make_unique<CentralCounter>(5), {});
  TreeCounterParams params;
  params.k = 2;
  Simulator tree(std::make_unique<TreeCounter>(params), {});
  const auto check = [](const Simulator& base,
                        const std::vector<ProcessorId>& ops) {
    ExploreOptions serial;
    serial.threads = 1;
    ExploreOptions parallel = serial;
    parallel.threads = 4;
    const ExploreResult a = explore_schedules(base, ops, serial);
    const ExploreResult b = explore_schedules(base, ops, parallel);
    EXPECT_EQ(a.paths, b.paths);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.max_depth, b.max_depth);
    EXPECT_EQ(a.distinct_outcomes, b.distinct_outcomes);
  };
  check(central, {1, 2, 3});
  check(tree, {0, 7});
}

TEST(Explore, ParallelTruncationLandsAtTheSamePath) {
  // Truncation is order-sensitive: the parallel merge must stop at the
  // exact path where the serial DFS stops.
  Simulator base(std::make_unique<CentralCounter>(5), {});
  for (const std::int64_t cap : {1, 3, 7}) {
    ExploreOptions serial;
    serial.threads = 1;
    serial.max_paths = cap;
    ExploreOptions parallel = serial;
    parallel.threads = 4;
    const ExploreResult a = explore_schedules(base, {1, 2, 3}, serial);
    const ExploreResult b = explore_schedules(base, {1, 2, 3}, parallel);
    EXPECT_EQ(a.paths, b.paths) << "cap " << cap;
    EXPECT_EQ(a.truncated, b.truncated) << "cap " << cap;
    EXPECT_EQ(a.max_depth, b.max_depth) << "cap " << cap;
    EXPECT_EQ(a.distinct_outcomes, b.distinct_outcomes) << "cap " << cap;
  }
}

}  // namespace
}  // namespace dcnt
