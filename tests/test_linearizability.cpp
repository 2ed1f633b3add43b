// Linearizability of concurrent counting, after [HSW96] (cited by the
// paper): structures that serialize at a root (central, combining,
// the paper's tree) are linearizable; counting networks are famously
// only quiescently consistent — a stalled token lets a later-starting
// token fetch a smaller value.
#include "analysis/linearizability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "baselines/central.hpp"
#include "baselines/combining_tree.hpp"
#include "baselines/counting_network.hpp"
#include "core/tree_counter.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace dcnt {
namespace {

CounterOpRecord rec(OpId op, SimTime inv, SimTime resp, Value value) {
  return CounterOpRecord{op, inv, resp, value};
}

TEST(Checker, EmptyAndSingletonAreLinearizable) {
  EXPECT_TRUE(check_linearizable({}).linearizable);
  EXPECT_TRUE(check_linearizable({rec(0, 0, 5, 0)}).linearizable);
}

TEST(Checker, SequentialHistoryLinearizable) {
  EXPECT_TRUE(check_linearizable({
                                     rec(0, 0, 1, 0),
                                     rec(1, 2, 3, 1),
                                     rec(2, 4, 5, 2),
                                 })
                  .linearizable);
}

TEST(Checker, ConcurrentOverlapMayReorderFreely) {
  // Both ops overlap; values may go either way.
  EXPECT_TRUE(check_linearizable({
                                     rec(0, 0, 10, 1),
                                     rec(1, 5, 8, 0),
                                 })
                  .linearizable);
}

TEST(Checker, DetectsRealTimeInversion) {
  // Op 0 finished with value 1 before op 1 started, yet op 1 got 0.
  const auto report = check_linearizable({
      rec(0, 0, 2, 1),
      rec(1, 5, 7, 0),
  });
  EXPECT_FALSE(report.linearizable);
  EXPECT_EQ(report.violations, 1);
  EXPECT_EQ(report.first_a, 0);
  EXPECT_EQ(report.first_b, 1);
}

TEST(Checker, EqualTimesAreNotAnInversion) {
  // resp(A) == inv(B): overlap boundary — allowed to reorder.
  EXPECT_TRUE(check_linearizable({
                                     rec(0, 0, 5, 1),
                                     rec(1, 5, 9, 0),
                                 })
                  .linearizable);
}

TEST(Checker, CountsAllViolations) {
  const auto report = check_linearizable({
      rec(0, 0, 1, 5),
      rec(1, 2, 3, 1),
      rec(2, 4, 6, 2),
      rec(3, 7, 8, 0),
  });
  EXPECT_FALSE(report.linearizable);
  EXPECT_EQ(report.violations, 3);  // ops 1, 2 and 3 all undercut op 0
}

TEST(Checker, TiedInvocationsNameTheSmallerOpAsFirstViolator) {
  // Ops 1 and 2 both start after op 0 responded with the largest value,
  // at the same instant.
  const auto report = check_linearizable({
      rec(2, 5, 7, 0),
      rec(0, 0, 2, 2),
      rec(1, 5, 6, 1),
  });
  EXPECT_FALSE(report.linearizable);
  EXPECT_EQ(report.violations, 2);
  EXPECT_EQ(report.first_a, 0);
  EXPECT_EQ(report.first_b, 1);
}

enum class Mutation { kNone, kViolations, kGaps, kDuplicates };

// A seeded random history of m ops with distinct invocation stamps. The
// values start as a legal linearization (ordered by a point inside each
// op's interval, from `base` up); the mutation then swaps values to
// invert real time, spreads them apart, or copies one over another.
std::vector<CounterOpRecord> random_history(Rng& rng, std::size_t m,
                                            Mutation mutation) {
  std::vector<SimTime> inv(m);
  for (std::size_t i = 0; i < m; ++i) {
    inv[i] = static_cast<SimTime>(10 * i + rng.next_below(10));
  }
  for (std::size_t i = m; i-- > 1;) {
    std::swap(inv[i], inv[rng.next_below(i + 1)]);
  }
  const std::uint64_t span = 1 + rng.next_below(80);
  std::vector<CounterOpRecord> history(m);
  std::vector<SimTime> point(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto len = static_cast<SimTime>(1 + rng.next_below(span));
    history[i] = rec(static_cast<OpId>(i), inv[i], inv[i] + len, 0);
    point[i] = inv[i] + static_cast<SimTime>(rng.next_below(
                            static_cast<std::uint64_t>(len) + 1));
  }
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return point[a] != point[b] ? point[a] < point[b] : a < b;
  });
  const auto base = static_cast<Value>(rng.next_below(5));
  for (std::size_t rank = 0; rank < m; ++rank) {
    history[order[rank]].value = base + static_cast<Value>(rank);
  }
  const std::size_t edits = 1 + rng.next_below(3);
  for (std::size_t e = 0; e < edits && m > 1; ++e) {
    CounterOpRecord& a = history[rng.next_below(m)];
    CounterOpRecord& b = history[rng.next_below(m)];
    switch (mutation) {
      case Mutation::kNone:
        break;
      case Mutation::kViolations:
        std::swap(a.value, b.value);
        break;
      case Mutation::kGaps:
        // Lift every value from a's upward, keeping them distinct.
        for (CounterOpRecord& r : history) {
          if (r.value >= a.value) {
            r.value += 1 + static_cast<Value>(rng.next_below(3));
          }
        }
        if (rng.next_below(2) == 0) std::swap(a.value, b.value);
        break;
      case Mutation::kDuplicates:
        a.value = b.value;
        break;
    }
  }
  return history;
}

TEST(Checker, LinearPathMatchesTheSortPath) {
  // The value-indexed sweep and the sort sweep must agree field for
  // field on every history: contiguous ones (the linear path), gapped
  // and duplicated ones (both take the sort path), with and without
  // real-time inversions.
  Rng rng(20260519);
  int violating = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto mutation = static_cast<Mutation>(trial % 4);
    const std::size_t m = 1 + rng.next_below(trial % 5 == 0 ? 400 : 40);
    const std::vector<CounterOpRecord> history =
        random_history(rng, m, mutation);
    const LinearizabilityReport fast = check_linearizable(history);
    const LinearizabilityReport ref = check_linearizable_by_sort(history);
    ASSERT_EQ(fast.linearizable, ref.linearizable) << "trial " << trial;
    ASSERT_EQ(fast.violations, ref.violations) << "trial " << trial;
    ASSERT_EQ(fast.duplicate_values, ref.duplicate_values) << "trial " << trial;
    ASSERT_EQ(fast.first_a, ref.first_a) << "trial " << trial;
    ASSERT_EQ(fast.first_b, ref.first_b) << "trial " << trial;
    if (mutation == Mutation::kNone) {
      EXPECT_TRUE(fast.linearizable) << "trial " << trial;
    }
    if (!fast.linearizable) ++violating;
  }
  // The mutations really produced non-linearizable histories.
  EXPECT_GT(violating, 500);
}

// Staggered driver: operations are invoked while earlier ones are
// still in flight (a few deliveries apart), so real-time precedence
// pairs straddle live traffic — the regime where linearizability and
// quiescent consistency differ. Batch drivers cannot produce this: a
// quiescent point between batches restores the step property.
std::vector<CounterOpRecord> run_staggered_history(
    std::unique_ptr<CounterProtocol> counter, std::uint64_t seed,
    std::int64_t ops) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.delay = DelayModel::heavy_tail(1, 400);
  Simulator sim(std::move(counter), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  Rng rng(seed * 31 + 7);
  for (std::int64_t i = 0; i < ops; ++i) {
    sim.begin_inc(static_cast<ProcessorId>(i % n));
    // ~6 deliveries between invocations keeps a handful of ops in
    // flight while earlier ones finish — without this, nothing ever
    // responds before the next invocation and there are no real-time
    // precedence pairs to violate.
    const auto steps = rng.next_below(12);
    for (std::uint64_t s = 0; s < steps; ++s) {
      if (!sim.step()) break;
    }
  }
  sim.run_until_quiescent();
  return counter_history(sim);
}

TEST(Linearizability, TreeCounterIsLinearizableUnderConcurrency) {
  // The root incumbent serializes: if A responded before B was invoked,
  // A's root visit happened first, so val(A) < val(B).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TreeCounterParams params;
    params.k = 3;
    auto history =
        run_staggered_history(std::make_unique<TreeCounter>(params), seed, 200);
    EXPECT_TRUE(check_linearizable(std::move(history)).linearizable)
        << "seed " << seed;
  }
}

TEST(Linearizability, CentralCounterIsLinearizable) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto history =
        run_staggered_history(std::make_unique<CentralCounter>(64), seed, 200);
    EXPECT_TRUE(check_linearizable(std::move(history)).linearizable)
        << "seed " << seed;
  }
}

TEST(Linearizability, CombiningTreeIsLinearizable) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    CombiningTreeParams params;
    params.n = 64;
    auto history = run_staggered_history(
        std::make_unique<CombiningTreeCounter>(params), seed, 200);
    EXPECT_TRUE(check_linearizable(std::move(history)).linearizable)
        << "seed " << seed;
  }
}

TEST(Linearizability, CountingNetworkIsNotLinearizable) {
  // [HSW96]'s separation, reproduced: across a handful of seeds with
  // heavy-tailed delays, some token stalls between its last balancer
  // and its output cell while a later token completes, and a third,
  // still later token then receives a smaller value.
  std::int64_t violations = 0;
  for (std::uint64_t seed = 1; seed <= 30 && violations == 0; ++seed) {
    CountingNetworkParams params;
    params.n = 32;
    params.width = 4;
    auto history = run_staggered_history(
        std::make_unique<CountingNetworkCounter>(params), seed, 200);
    violations += check_linearizable(std::move(history)).violations;
  }
  EXPECT_GT(violations, 0)
      << "no real-time inversion found — counting network behaved "
         "linearizably across all seeds, which contradicts [HSW96]";
}

TEST(Linearizability, SequentialRunsAreTriviallyLinearizable) {
  TreeCounterParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.enable_trace = false;
  cfg.delay = DelayModel::uniform(1, 30);
  cfg.seed = 77;
  Simulator sim(std::make_unique<TreeCounter>(params), cfg);
  run_sequential(sim, schedule_sequential(8));
  EXPECT_TRUE(check_linearizable(counter_history(sim)).linearizable);
}

}  // namespace
}  // namespace dcnt
