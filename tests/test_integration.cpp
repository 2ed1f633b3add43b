// Cross-cutting properties, swept over every counter implementation:
//   * sequential correctness under several delivery regimes and orders,
//   * the Hot Spot Lemma (a *necessary* property of any correct counter),
//   * delivery-seed invariance of returned values (sequential model),
//   * the qualitative separation the paper predicts between the tree
//     counter and the centralized designs.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/hotspot.hpp"
#include "analysis/report.hpp"
#include "core/bound.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/stats.hpp"

namespace dcnt {
namespace {

struct Regime {
  const char* name;
  DelayModel delay;
  bool fifo;
};

std::vector<Regime> regimes() {
  return {
      {"fixed", DelayModel::fixed_delay(1), false},
      {"uniform", DelayModel::uniform(1, 13), false},
      {"uniform-fifo", DelayModel::uniform(1, 13), true},
      {"heavy-tail", DelayModel::heavy_tail(1, 200), false},
  };
}

class AllCountersTest : public ::testing::TestWithParam<CounterKind> {};

TEST_P(AllCountersTest, SequentialCorrectUnderEveryRegime) {
  for (const Regime& regime : regimes()) {
    SimConfig cfg;
    cfg.seed = 31337;
    cfg.delay = regime.delay;
    cfg.fifo_channels = regime.fifo;
    Simulator sim(make_counter(GetParam(), 20), cfg);
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    Rng rng(7);
    const auto order = schedule_permutation(n, rng);
    const RunResult result = run_sequential(sim, order);
    EXPECT_TRUE(result.values_ok)
        << to_string(GetParam()) << " under " << regime.name;
  }
}

TEST_P(AllCountersTest, HotSpotLemmaHolds) {
  SimConfig cfg;
  cfg.seed = 5;
  cfg.delay = DelayModel::uniform(1, 7);
  cfg.enable_trace = true;
  Simulator sim(make_counter(GetParam(), 16), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  Rng rng(3);
  const auto order = schedule_permutation(n, rng);
  run_sequential(sim, order);
  const HotSpotReport report = check_hot_spot(sim.trace(), order);
  EXPECT_TRUE(report.all_intersect) << to_string(GetParam());
}

TEST_P(AllCountersTest, ValuesAreSeedInvariant) {
  // In the sequential model the i-th op returns i-1 regardless of
  // message delays — asynchrony must not leak into results.
  std::vector<Value> reference;
  for (const std::uint64_t seed : {1ULL, 99ULL, 12345ULL}) {
    SimConfig cfg;
    cfg.seed = seed;
    cfg.delay = DelayModel::uniform(1, 29);
    Simulator sim(make_counter(GetParam(), 12), cfg);
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    const RunResult result = run_sequential(sim, schedule_sequential(n));
    if (reference.empty()) {
      reference = result.values;
    } else {
      EXPECT_EQ(result.values, reference) << to_string(GetParam());
    }
  }
}

TEST_P(AllCountersTest, ConcurrentWhenSupported) {
  if (!supports_concurrency(GetParam())) GTEST_SKIP();
  SimConfig cfg;
  cfg.seed = 77;
  cfg.delay = DelayModel::uniform(1, 9);
  Simulator sim(make_counter(GetParam(), 24), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  const RunResult result = run_concurrent(sim, schedule_sequential(n), 8);
  EXPECT_TRUE(result.values_ok) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllCountersTest,
                         ::testing::ValuesIn(all_counter_kinds()),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(AllCountersTest, CorrectWithAPathologicallySlowProcessor) {
  // The model allows arbitrary finite delays; stretching every channel
  // of processor 0 (often a root/holder) by 50x must change nothing
  // semantically.
  SimConfig cfg;
  cfg.seed = 13;
  cfg.delay = DelayModel::with_slow_processor(DelayModel::uniform(1, 8),
                                              /*slow_pid=*/0, /*factor=*/50);
  Simulator sim(make_counter(GetParam(), 16), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  const RunResult result = run_sequential(sim, schedule_reverse(n));
  EXPECT_TRUE(result.values_ok) << to_string(GetParam());
}

TEST(Separation, TreeBeatsCentralizedDesignsAtScale) {
  // The paper's headline shape: at n = 1024 the tree counter's
  // bottleneck is O(k)=O(4) vs Theta(n) for central / static tree.
  const std::int64_t n = 1024;
  std::map<std::string, std::int64_t> max_load;
  for (const CounterKind kind :
       {CounterKind::kTree, CounterKind::kStaticTree, CounterKind::kCentral}) {
    Simulator sim(make_counter(kind, n), {});
    const auto actual_n = static_cast<std::int64_t>(sim.num_processors());
    run_sequential(sim, schedule_sequential(actual_n));
    max_load[to_string(kind)] = sim.metrics().max_load();
  }
  EXPECT_LT(max_load["tree"] * 10, max_load["central"]);
  EXPECT_LT(max_load["tree"] * 10, max_load["static-tree"]);
}

TEST(Separation, TreeLoadTracksKNotN) {
  // Fit max_load against k for k = 2..5: strongly linear (r^2 high),
  // and the same loads against n are wildly sublinear.
  std::vector<double> ks;
  std::vector<double> loads;
  for (int k = 2; k <= 5; ++k) {
    Simulator sim(make_counter(CounterKind::kTree, tree_size_for_k(k)), {});
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    run_sequential(sim, schedule_sequential(n));
    ks.push_back(static_cast<double>(k));
    loads.push_back(static_cast<double>(sim.metrics().max_load()));
  }
  const LinearFit fit = fit_linear(ks, loads);
  EXPECT_GT(fit.r2, 0.9);
  // n grew 1953x while load grew < 5x.
  EXPECT_LT(loads.back() / loads.front(), 5.0);
}

TEST(Separation, SkewedWorkloadConcentratesLoad) {
  // §3's remark: "the amount of achievable distribution is limited if
  // many operations are initiated by a single processor." All ops from
  // one origin: its load alone is Theta(ops), whatever the counter.
  Simulator sim(make_counter(CounterKind::kTree, 81), {});
  const auto order = schedule_single_origin(17, 100);
  run_sequential(sim, order);
  EXPECT_GE(sim.metrics().load(17), 2 * 100);
}

}  // namespace
}  // namespace dcnt
