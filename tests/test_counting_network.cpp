#include "baselines/counting_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

Simulator make_sim(std::int64_t n, int width, SimConfig cfg = {}) {
  CountingNetworkParams params;
  params.n = n;
  params.width = width;
  return Simulator(std::make_unique<CountingNetworkCounter>(params), cfg);
}

const CountingNetworkCounter& network_of(const Simulator& sim) {
  return dynamic_cast<const CountingNetworkCounter&>(sim.counter());
}

TEST(CountingNetwork, BalancerCountMatchesBitonicFormula) {
  // Bitonic[w] has (w/2) * log2(w) * (log2(w)+1) / 2 balancers.
  for (int w : {2, 4, 8, 16, 32, 64}) {
    Simulator sim = make_sim(w, w);
    int log_w = 0;
    while ((1 << log_w) < w) ++log_w;
    const std::size_t expected = static_cast<std::size_t>(w) / 2 *
                                 static_cast<std::size_t>(log_w) *
                                 static_cast<std::size_t>(log_w + 1) / 2;
    EXPECT_EQ(network_of(sim).num_balancers(), expected) << "w=" << w;
    EXPECT_EQ(network_of(sim).depth(), log_w * (log_w + 1) / 2);
  }
}

TEST(CountingNetwork, OutputOrderIsAPermutation) {
  for (int w : {2, 4, 8, 16, 32}) {
    Simulator sim = make_sim(w, w);
    auto order = network_of(sim).output_order();
    std::sort(order.begin(), order.end());
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(CountingNetwork, SequentialCorrectness) {
  Simulator sim = make_sim(32, 8);
  const RunResult result = run_sequential(sim, schedule_sequential(32));
  EXPECT_TRUE(result.values_ok);
}

class CountingNetworkParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CountingNetworkParamTest, StepPropertyUnderConcurrency) {
  const auto [width, seed] = GetParam();
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.delay = DelayModel::uniform(1, 17);
  const std::int64_t n = std::max<std::int64_t>(width * 2, 16);
  Simulator sim = make_sim(n, width, cfg);
  // Three waves of concurrent tokens; check_quiescent (called by the
  // runner via the harness at the end of each batch... here explicitly)
  // enforces the exact step property at every quiescent point.
  Rng rng(static_cast<std::uint64_t>(seed) + 99);
  const auto order = schedule_uniform(n, 3 * n, rng);
  const RunResult result = run_concurrent(sim, order, n / 2);
  EXPECT_TRUE(result.values_ok);
  sim.counter().check_quiescent(sim.ops_completed());
}

INSTANTIATE_TEST_SUITE_P(Sweep, CountingNetworkParamTest,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16),
                                            ::testing::Values(1, 2, 3)));

TEST(CountingNetwork, TokensVisitEveryLayerOnce) {
  // Each token crosses exactly depth balancers and one cell: with
  // tracing, one op generates depth+2 messages (entry hop + depth-1
  // inter-balancer hops + cell hop + reply)... message count per op is
  // depth + 2 when no two consecutive elements share a processor.
  // Self-placements make some hops free, so we assert via balancer
  // visit counts instead: after m sequential ops the total number of
  // balancer visits is m * depth.
  const int w = 8;
  Simulator sim = make_sim(64, w);
  const std::int64_t m = 64;
  run_sequential(sim, schedule_sequential(m));
  std::int64_t visits = 0;
  for (std::size_t b = 0; b < network_of(sim).num_balancers(); ++b) {
    visits += network_of(sim).balancer_visits(b);
  }
  EXPECT_EQ(visits, m * network_of(sim).depth());
}

TEST(CountingNetwork, LoadSpreadsOverBalancers) {
  // No single processor should carry the whole stream: compare with the
  // central counter's 2(n-1) bottleneck.
  const std::int64_t n = 128;
  Simulator sim = make_sim(n, 16);
  run_sequential(sim, schedule_sequential(n));
  EXPECT_LT(sim.metrics().max_load(), 2 * (n - 1));
}

// ---------- Periodic network [AHS91, after DPRS] ----------

TEST(PeriodicNetwork, DepthIsLogSquared) {
  for (int w : {2, 4, 8, 16, 32}) {
    CountingNetworkParams params;
    params.n = 2 * w;
    params.width = w;
    params.kind = NetworkKind::kPeriodic;
    Simulator sim(std::make_unique<CountingNetworkCounter>(params), {});
    int log_w = 0;
    while ((1 << log_w) < w) ++log_w;
    EXPECT_EQ(network_of(sim).depth(), log_w * log_w) << "w=" << w;
    EXPECT_EQ(network_of(sim).num_balancers(),
              static_cast<std::size_t>(w / 2 * log_w * log_w));
  }
}

TEST(PeriodicNetwork, OutputsInNaturalOrder) {
  CountingNetworkParams params;
  params.n = 16;
  params.width = 8;
  params.kind = NetworkKind::kPeriodic;
  Simulator sim(std::make_unique<CountingNetworkCounter>(params), {});
  const auto& order = network_of(sim).output_order();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

class PeriodicParamTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(PeriodicParamTest, CountsUnderConcurrency) {
  const auto [width, seed] = GetParam();
  CountingNetworkParams params;
  params.n = std::max(16, 2 * width);
  params.width = width;
  params.kind = NetworkKind::kPeriodic;
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.delay = DelayModel::uniform(1, 11);
  Simulator sim(std::make_unique<CountingNetworkCounter>(params), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  Rng rng(static_cast<std::uint64_t>(seed) + 3);
  const auto order = schedule_uniform(n, 4 * n, rng);
  const RunResult result =
      run_concurrent(sim, order, static_cast<std::size_t>(n));
  EXPECT_TRUE(result.values_ok);
  sim.counter().check_quiescent(sim.ops_completed());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeriodicParamTest,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16),
                                            ::testing::Values(1, 2, 3)));

// Toy layered-network interpreter for construction regression tests:
// tokens advance one layer per scheduled step; returns true iff the
// step property held at quiescence.
namespace toy {

struct Net {
  int w{0};
  std::vector<std::vector<std::pair<int, int>>> layers;
};

Net butterfly_blocks(int w, int blocks) {
  Net net;
  net.w = w;
  int log_w = 0;
  while ((1 << log_w) < w) ++log_w;
  for (int b = 0; b < blocks; ++b) {
    for (int t = 0; t < log_w; ++t) {
      const int bit = 1 << (log_w - 1 - t);
      std::vector<std::pair<int, int>> layer;
      for (int i = 0; i < w; ++i) {
        if ((i & bit) == 0) layer.emplace_back(i, i | bit);
      }
      net.layers.push_back(std::move(layer));
    }
  }
  return net;
}

bool step_property_holds(const Net& net, int tokens, Rng& rng) {
  std::vector<std::vector<bool>> toggle(net.layers.size());
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    toggle[l].assign(net.layers[l].size(), false);
  }
  std::vector<int> wire(static_cast<std::size_t>(tokens));
  std::vector<int> layer(static_cast<std::size_t>(tokens), 0);
  for (int i = 0; i < tokens; ++i) {
    // Random entry wires: balancer networks must count regardless of
    // where tokens enter — uneven entry is exactly what breaks the
    // butterfly.
    wire[static_cast<std::size_t>(i)] =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(net.w)));
  }
  std::vector<int> live;
  for (int i = 0; i < tokens; ++i) live.push_back(i);
  std::vector<int> out(static_cast<std::size_t>(net.w), 0);
  while (!live.empty()) {
    const auto pick = static_cast<std::size_t>(rng.next_below(live.size()));
    const auto t = static_cast<std::size_t>(live[pick]);
    const auto l = static_cast<std::size_t>(layer[t]);
    for (std::size_t b = 0; b < net.layers[l].size(); ++b) {
      const auto [top, bottom] = net.layers[l][b];
      if (wire[t] == top || wire[t] == bottom) {
        wire[t] = toggle[l][b] ? bottom : top;
        toggle[l][b] = !toggle[l][b];
        break;
      }
    }
    if (++layer[t] == static_cast<int>(net.layers.size())) {
      ++out[static_cast<std::size_t>(wire[t])];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  for (int y = 0; y < net.w; ++y) {
    const int expected = tokens > y ? (tokens - y - 1) / net.w + 1 : 0;
    if (out[static_cast<std::size_t>(y)] != expected) return false;
  }
  return true;
}

}  // namespace toy

TEST(PeriodicNetwork, ButterflyBlocksWouldNotCount) {
  // Construction regression guard: replacing the DPRS reflection block
  // by a plain butterfly balances *sequential* streams (easy to verify)
  // but violates the step property under concurrent tokens. A seeded
  // random search over interleavings finds a violation quickly.
  Rng rng(20240707);
  const toy::Net butterfly = toy::butterfly_blocks(4, 2);
  bool violated = false;
  for (int trial = 0; trial < 500 && !violated; ++trial) {
    const int tokens = static_cast<int>(rng.next_in(2, 12));
    if (!toy::step_property_holds(butterfly, tokens, rng)) violated = true;
  }
  EXPECT_TRUE(violated)
      << "butterfly blocks unexpectedly satisfied the step property";
}

TEST(CountingNetwork, WidthTwoDegeneratesToOneBalancer) {
  Simulator sim = make_sim(8, 2);
  EXPECT_EQ(network_of(sim).num_balancers(), 1u);
  const RunResult result = run_sequential(sim, schedule_sequential(8));
  EXPECT_TRUE(result.values_ok);
}

}  // namespace
}  // namespace dcnt
