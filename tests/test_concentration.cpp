#include "analysis/concentration.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "baselines/central.hpp"
#include "core/tree_counter.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

TEST(Concentration, UniformLoadsAreFlat) {
  const auto report = concentration(std::vector<std::int64_t>(100, 7));
  EXPECT_DOUBLE_EQ(report.max_over_mean, 1.0);
  EXPECT_NEAR(report.gini, 0.0, 1e-9);
  EXPECT_NEAR(report.top10_share, 0.10, 1e-9);
}

TEST(Concentration, SingleHotSpotIsMaximal) {
  std::vector<std::int64_t> loads(100, 0);
  loads[42] = 1000;
  const auto report = concentration(loads);
  EXPECT_DOUBLE_EQ(report.max_over_mean, 100.0);
  EXPECT_NEAR(report.gini, 0.99, 1e-9);  // 1 - 1/n
  EXPECT_DOUBLE_EQ(report.top1_share, 1.0);
  EXPECT_DOUBLE_EQ(report.top10_share, 1.0);
}

TEST(Concentration, AllZeroLoadsAreDefined) {
  const auto report = concentration(std::vector<std::int64_t>(10, 0));
  EXPECT_DOUBLE_EQ(report.gini, 0.0);
  EXPECT_DOUBLE_EQ(report.max_over_mean, 0.0);
}

TEST(Concentration, TwoClassDistribution) {
  // Half the processors at 2, half at 0: Gini = 0.5 exactly.
  std::vector<std::int64_t> loads;
  for (int i = 0; i < 50; ++i) loads.push_back(0);
  for (int i = 0; i < 50; ++i) loads.push_back(2);
  const auto report = concentration(loads);
  EXPECT_NEAR(report.gini, 0.5, 1e-2);
  EXPECT_DOUBLE_EQ(report.max_over_mean, 2.0);
}

TEST(Concentration, CentralCounterFarMoreConcentratedThanTree) {
  SimConfig cfg;
  cfg.seed = 4;
  Simulator central(std::make_unique<CentralCounter>(81), cfg);
  run_sequential(central, schedule_sequential(81));
  const auto central_report = concentration(central.metrics());

  TreeCounterParams params;
  params.k = 3;
  Simulator tree(std::make_unique<TreeCounter>(params), cfg);
  run_sequential(tree, schedule_sequential(81));
  const auto tree_report = concentration(tree.metrics());

  EXPECT_GT(central_report.gini, tree_report.gini);
  EXPECT_GT(central_report.max_over_mean, 5 * tree_report.max_over_mean);
  EXPECT_GT(central_report.top1_share, 0.4);  // the holder does ~half the work
}

TEST(Concentration, MetricsOverloadMatchesVectorOverload) {
  Metrics metrics(4);
  metrics.on_send(0, 1);
  metrics.on_receive(1, 1);
  metrics.on_receive(1, 1);
  const auto from_metrics = concentration(metrics);
  const auto from_vector =
      concentration(std::vector<std::int64_t>{1, 2, 0, 0});
  EXPECT_DOUBLE_EQ(from_metrics.gini, from_vector.gini);
  EXPECT_DOUBLE_EQ(from_metrics.max_over_mean, from_vector.max_over_mean);
}

}  // namespace
}  // namespace dcnt
