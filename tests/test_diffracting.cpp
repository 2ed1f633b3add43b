#include "baselines/diffracting_tree.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

Simulator make_sim(DiffractingTreeParams params, SimConfig cfg = {}) {
  return Simulator(std::make_unique<DiffractingTreeCounter>(params), cfg);
}

const DiffractingTreeCounter& tree_of(const Simulator& sim) {
  return dynamic_cast<const DiffractingTreeCounter&>(sim.counter());
}

TEST(DiffractingTree, SequentialCorrectness) {
  DiffractingTreeParams params;
  params.n = 32;
  params.width = 4;
  Simulator sim = make_sim(params);
  const RunResult result = run_sequential(sim, schedule_sequential(32));
  EXPECT_TRUE(result.values_ok);
}

TEST(DiffractingTree, SequentialTokensAllTakeTheToggle) {
  // One token at a time: nothing to pair with, every token times out at
  // every level and crosses the toggle. depth * m toggle passes.
  DiffractingTreeParams params;
  params.n = 16;
  params.width = 8;  // depth 3
  Simulator sim = make_sim(params);
  run_sequential(sim, schedule_sequential(16));
  EXPECT_EQ(tree_of(sim).diffracted_pairs(), 0);
  EXPECT_EQ(tree_of(sim).toggle_passes(), 3 * 16);
}

class DiffractingParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DiffractingParamTest, ConcurrentDistinctValues) {
  const auto [width, slots, seed] = GetParam();
  DiffractingTreeParams params;
  params.n = 64;
  params.width = width;
  params.prism_slots = slots;
  params.patience = 6;
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.delay = DelayModel::uniform(1, 4);
  Simulator sim = make_sim(params, cfg);
  const RunResult result = run_concurrent(sim, schedule_sequential(64), 32);
  EXPECT_TRUE(result.values_ok);
  sim.counter().check_quiescent(sim.ops_completed());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DiffractingParamTest,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(1, 2, 8),
                                            ::testing::Values(1, 2)));

TEST(DiffractingTree, DiffractionFiresUnderConcurrency) {
  DiffractingTreeParams params;
  params.n = 128;
  params.width = 4;
  params.prism_slots = 2;  // few slots: pairing is likely
  params.patience = 50;    // patient tokens: pairing is very likely
  SimConfig cfg;
  cfg.seed = 8;
  cfg.delay = DelayModel::uniform(1, 3);
  Simulator sim = make_sim(params, cfg);
  run_concurrent(sim, schedule_sequential(128), 128);
  EXPECT_GT(tree_of(sim).diffracted_pairs(), 0);
}

TEST(DiffractingTree, DiffractionRelievesRootToggle) {
  DiffractingTreeParams params;
  params.n = 128;
  params.width = 2;
  params.prism_slots = 4;
  params.patience = 60;
  SimConfig cfg;
  cfg.seed = 3;
  cfg.delay = DelayModel::uniform(1, 3);

  Simulator seq = make_sim(params, cfg);
  run_sequential(seq, schedule_sequential(128));
  const std::int64_t seq_toggle_load =
      seq.metrics().load(tree_of(seq).toggle_pid(0));

  Simulator conc = make_sim(params, cfg);
  run_concurrent(conc, schedule_sequential(128), 128);
  const std::int64_t conc_toggle_load =
      conc.metrics().load(tree_of(conc).toggle_pid(0));

  EXPECT_LT(conc_toggle_load, seq_toggle_load);
}

TEST(DiffractingTree, TimeoutsAreNotNetworkTraffic) {
  DiffractingTreeParams params;
  params.n = 8;
  params.width = 2;
  Simulator sim = make_sim(params);
  run_sequential(sim, schedule_sequential(8));
  // Per op: prism hop, toggle hop, cell hop, value reply — at most 4
  // network messages (fewer when placements collide); timeouts add none.
  EXPECT_LE(sim.metrics().total_messages(), 4 * 8);
}

TEST(DiffractingTree, RepeatOriginsSequential) {
  DiffractingTreeParams params;
  params.n = 8;
  params.width = 4;
  Simulator sim = make_sim(params);
  Rng rng(12);
  const RunResult result = run_sequential(sim, schedule_uniform(8, 50, rng));
  EXPECT_TRUE(result.values_ok);
}

}  // namespace
}  // namespace dcnt
