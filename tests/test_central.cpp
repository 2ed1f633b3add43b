#include "baselines/central.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

TEST(CentralCounter, SequentialCorrectness) {
  Simulator sim(std::make_unique<CentralCounter>(16), {});
  const RunResult result = run_sequential(sim, schedule_sequential(16));
  EXPECT_TRUE(result.values_ok);
}

TEST(CentralCounter, HolderIncrementsLocally) {
  Simulator sim(std::make_unique<CentralCounter>(8, 3), {});
  const OpId op = sim.begin_inc(3);
  EXPECT_TRUE(sim.result(op).has_value());
  EXPECT_EQ(*sim.result(op), 0);
  EXPECT_EQ(sim.metrics().total_messages(), 0);
}

TEST(CentralCounter, TwoMessagesPerRemoteInc) {
  Simulator sim(std::make_unique<CentralCounter>(8), {});
  run_sequential(sim, schedule_sequential(8));
  // 7 remote incs at 2 messages; the holder's own inc is free.
  EXPECT_EQ(sim.metrics().total_messages(), 14);
}

TEST(CentralCounter, HolderIsTheBottleneckWithThetaNLoad) {
  const std::int64_t n = 64;
  Simulator sim(std::make_unique<CentralCounter>(n), {});
  run_sequential(sim, schedule_sequential(n));
  EXPECT_EQ(sim.metrics().bottleneck(), 0);
  EXPECT_EQ(sim.metrics().max_load(), 2 * (n - 1));
  // Everyone else touched exactly two messages.
  for (ProcessorId p = 1; p < n; ++p) {
    EXPECT_EQ(sim.metrics().load(p), 2);
  }
}

TEST(CentralCounter, ConcurrentBatchesStillDistinct) {
  // Width 5 leaves a short last batch of 2: it must still be issued.
  for (const std::size_t width : {std::size_t{8}, std::size_t{5}}) {
    SimConfig cfg;
    cfg.seed = 12;
    cfg.delay = DelayModel::uniform(1, 9);
    Simulator sim(std::make_unique<CentralCounter>(32), cfg);
    const RunResult result =
        run_concurrent(sim, schedule_sequential(32), width);
    EXPECT_TRUE(result.values_ok) << width;
    EXPECT_EQ(result.values.size(), 32u) << width;
  }
}

TEST(CentralCounter, CheckQuiescentValidatesValue) {
  Simulator sim(std::make_unique<CentralCounter>(4), {});
  run_sequential(sim, schedule_sequential(4));
  sim.counter().check_quiescent(4);
}

}  // namespace
}  // namespace dcnt
