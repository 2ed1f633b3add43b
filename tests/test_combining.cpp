#include "baselines/combining_tree.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

Simulator make_sim(std::int64_t n, int fanout, SimConfig cfg = {}) {
  CombiningTreeParams params;
  params.n = n;
  params.fanout = fanout;
  return Simulator(std::make_unique<CombiningTreeCounter>(params), cfg);
}

const CombiningTreeCounter& combining_of(const Simulator& sim) {
  return dynamic_cast<const CombiningTreeCounter&>(sim.counter());
}

TEST(CombiningTree, SequentialCorrectness) {
  Simulator sim = make_sim(16, 2);
  const RunResult result = run_sequential(sim, schedule_sequential(16));
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(combining_of(sim).value(), 16);
}

TEST(CombiningTree, NoCombiningWhenSequential) {
  // The paper's model serializes operations, so combining never fires —
  // which is exactly why combining does not beat the lower bound there.
  Simulator sim = make_sim(32, 2);
  run_sequential(sim, schedule_sequential(32));
  EXPECT_EQ(combining_of(sim).combined_requests(), 0);
}

TEST(CombiningTree, DepthIsLogarithmic) {
  EXPECT_EQ(combining_of(make_sim(16, 2)).depth(), 4);
  EXPECT_EQ(combining_of(make_sim(64, 4)).depth(), 3);
  EXPECT_EQ(combining_of(make_sim(17, 2)).depth(), 5);
}

class CombiningParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CombiningParamTest, ConcurrentBatchesGiveDistinctValues) {
  const auto [n, fanout, batch] = GetParam();
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(n * 31 + fanout);
  cfg.delay = DelayModel::uniform(1, 12);
  Simulator sim = make_sim(n, fanout, cfg);
  const RunResult result = run_concurrent(sim, schedule_sequential(n),
                                          static_cast<std::size_t>(batch));
  EXPECT_TRUE(result.values_ok);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CombiningParamTest,
    ::testing::Combine(::testing::Values(8, 32, 64),
                       ::testing::Values(2, 4),
                       ::testing::Values(4, 16)));

TEST(CombiningTree, CombiningFiresUnderConcurrency) {
  SimConfig cfg;
  cfg.seed = 5;
  cfg.delay = DelayModel::uniform(1, 20);
  Simulator sim = make_sim(64, 2, cfg);
  run_concurrent(sim, schedule_sequential(64), 64);
  EXPECT_GT(combining_of(sim).combined_requests(), 0);
}

TEST(CombiningTree, CombiningReducesRootTraffic) {
  // Sequential: the root handles 2 messages per op. One big concurrent
  // batch: combined requests collapse most of that.
  const std::int64_t n = 64;
  SimConfig cfg;
  cfg.seed = 9;
  cfg.delay = DelayModel::uniform(1, 10);

  Simulator seq = make_sim(n, 2, cfg);
  run_sequential(seq, schedule_sequential(n));
  const auto& tc_seq = combining_of(seq);
  const ProcessorId root_pid = tc_seq.node_pid(tc_seq.root_node());
  const std::int64_t root_load_seq = seq.metrics().load(root_pid);

  Simulator conc = make_sim(n, 2, cfg);
  run_concurrent(conc, schedule_sequential(n), n);
  const std::int64_t root_load_conc = conc.metrics().load(root_pid);

  EXPECT_LT(root_load_conc, root_load_seq);
}

TEST(CombiningTree, RepeatOriginsSequential) {
  Simulator sim = make_sim(8, 2);
  Rng rng(3);
  const RunResult result = run_sequential(sim, schedule_uniform(8, 100, rng));
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(combining_of(sim).value(), 100);
}

TEST(CombiningTree, RepeatOriginsConcurrent) {
  SimConfig cfg;
  cfg.seed = 21;
  cfg.delay = DelayModel::uniform(1, 6);
  Simulator sim = make_sim(8, 2, cfg);
  Rng rng(4);
  const auto order = schedule_uniform(8, 60, rng);
  const RunResult result = run_concurrent(sim, order, 20);
  EXPECT_TRUE(result.values_ok);
}

}  // namespace
}  // namespace dcnt
