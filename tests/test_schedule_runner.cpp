#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baselines/central.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

TEST(Schedule, SequentialAndReverse) {
  EXPECT_EQ(schedule_sequential(4), (std::vector<ProcessorId>{0, 1, 2, 3}));
  EXPECT_EQ(schedule_reverse(4), (std::vector<ProcessorId>{3, 2, 1, 0}));
}

TEST(Schedule, PermutationIsPermutation) {
  Rng rng(1);
  auto order = schedule_permutation(100, rng);
  EXPECT_EQ(order.size(), 100u);
  std::sort(order.begin(), order.end());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Schedule, PermutationDependsOnSeed) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(schedule_permutation(50, a), schedule_permutation(50, b));
}

TEST(Schedule, UniformInRange) {
  Rng rng(7);
  const auto order = schedule_uniform(10, 1000, rng);
  EXPECT_EQ(order.size(), 1000u);
  for (const auto p : order) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 10);
  }
}

TEST(Schedule, ZipfSkewsTowardZero) {
  Rng rng(3);
  const auto order = schedule_zipf(100, 10000, 1.2, rng);
  std::int64_t zero_hits = 0;
  for (const auto p : order) {
    if (p == 0) ++zero_hits;
  }
  // Zipf(1.2) over 100 elements gives element 0 far more than 1/100.
  EXPECT_GT(zero_hits, 1000);
}

TEST(Schedule, ZipfZeroIsUniformish) {
  Rng rng(4);
  const auto order = schedule_zipf(10, 10000, 0.0, rng);
  std::vector<int> hits(10, 0);
  for (const auto p : order) ++hits[static_cast<std::size_t>(p)];
  for (const int h : hits) {
    EXPECT_GT(h, 600);
    EXPECT_LT(h, 1400);
  }
}

TEST(Schedule, SingleOrigin) {
  const auto order = schedule_single_origin(5, 3);
  EXPECT_EQ(order, (std::vector<ProcessorId>{5, 5, 5}));
}

TEST(Runner, SequentialReportsLoads) {
  Simulator sim(std::make_unique<CentralCounter>(8), {});
  const RunResult result = run_sequential(sim, schedule_sequential(8));
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(result.total_messages, 14);
  EXPECT_EQ(result.max_load, 14);
  EXPECT_EQ(result.bottleneck, 0);
  EXPECT_DOUBLE_EQ(result.mean_load, 2.0 * 14 / 8);
  EXPECT_EQ(result.values, (std::vector<Value>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Runner, SequentialResumesAfterPriorOps) {
  Simulator sim(std::make_unique<CentralCounter>(4), {});
  run_sequential(sim, {0, 1});
  const RunResult result = run_sequential(sim, {2, 3});
  EXPECT_EQ(result.values, (std::vector<Value>{2, 3}));
}

TEST(Factory, AllKindsBuildAndCount) {
  for (const CounterKind kind : all_counter_kinds()) {
    auto counter = make_counter(kind, 30);
    ASSERT_NE(counter, nullptr) << to_string(kind);
    EXPECT_GE(counter->num_processors(), 30u) << to_string(kind);
    SimConfig cfg;
    cfg.seed = 42;
    Simulator sim(std::move(counter), cfg);
    const RunResult result = run_sequential(sim, schedule_sequential(10));
    EXPECT_TRUE(result.values_ok) << to_string(kind);
  }
}

TEST(Factory, RoundTripNames) {
  for (const CounterKind kind : all_counter_kinds()) {
    EXPECT_EQ(counter_kind_from_string(to_string(kind)), kind);
  }
}

TEST(Factory, TreeRoundsUpToPaperSizes) {
  EXPECT_EQ(make_counter(CounterKind::kTree, 9)->num_processors(), 81u);
  EXPECT_EQ(make_counter(CounterKind::kTree, 81)->num_processors(), 81u);
  EXPECT_EQ(make_counter(CounterKind::kTree, 82)->num_processors(), 1024u);
  EXPECT_EQ(make_counter(CounterKind::kCentral, 82)->num_processors(), 82u);
}

}  // namespace
}  // namespace dcnt
