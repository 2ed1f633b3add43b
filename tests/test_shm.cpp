// Shared-memory counter baselines (src/shm/, DESIGN.md §16): exactness
// and LIVE linearizability of all four counters on real threads at
// F ∈ {1, 64}, the flat-combining combiner-handoff edge case, the
// funnel's budget hand-off, the inc/read checker's own edge cases, and
// the placement layer (synthetic-topology plans + the pinning smoke).
#include "shm/shm_counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "concurrent/history.hpp"
#include "runtime/placement.hpp"
#include "shm/flat_combining.hpp"
#include "shm/funnel.hpp"
#include "shm/shm_harness.hpp"

namespace dcnt::shm {
namespace {

// --- the four counters through the harness ------------------------------

ShmOptions small_run(std::size_t inflight) {
  ShmOptions o;
  o.threads = 4;
  o.ops = 4096;
  o.inflight = inflight;
  o.warmup = 128;
  return o;
}

class ShmCounterHarness : public ::testing::TestWithParam<ShmKind> {};

TEST_P(ShmCounterHarness, LinearizableAtF1) {
  const ThroughputResult r = run_shm_throughput(GetParam(), small_run(1));
  EXPECT_TRUE(r.values_ok);
  ASSERT_TRUE(r.lin_checked);
  EXPECT_TRUE(r.linearizable) << r.counter << ": " << r.lin_violations
                              << " violations";
  EXPECT_EQ(r.lin_violations, 0);
  EXPECT_EQ(r.ops, 4096u);
}

TEST_P(ShmCounterHarness, LinearizableAtF64) {
  const ThroughputResult r = run_shm_throughput(GetParam(), small_run(64));
  EXPECT_TRUE(r.values_ok);
  ASSERT_TRUE(r.lin_checked);
  EXPECT_TRUE(r.linearizable) << r.counter << ": " << r.lin_violations
                              << " violations";
  EXPECT_EQ(r.lin_violations, 0);
}

TEST_P(ShmCounterHarness, OpenLoopStaysExact) {
  ShmOptions o = small_run(1);
  o.ops = 1024;
  o.open_rate = 200000.0;  // fast enough to finish, slow enough to overlap
  const ThroughputResult r = run_shm_throughput(GetParam(), o);
  EXPECT_TRUE(r.values_ok);
  ASSERT_TRUE(r.lin_checked);
  EXPECT_TRUE(r.linearizable) << r.counter;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ShmCounterHarness,
                         ::testing::ValuesIn(all_shm_kinds()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Direct permutation evidence, independent of the harness' internal
// DCNT_CHECK: hammer a counter from raw threads and verify the ticket
// set by hand.
TEST(ShmCounters, TicketsArePermutation) {
  for (const ShmKind kind :
       {ShmKind::kAtomic, ShmKind::kFlat, ShmKind::kFunnel}) {
    auto counter = make_shm_counter(kind);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPer = 2000;
    counter->on_threads(kThreads);
    std::vector<std::vector<std::uint64_t>> got(kThreads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPer; ++i) {
          got[t].push_back(counter->inc_batch(t, 1));
        }
      });
    }
    for (auto& th : pool) th.join();
    std::vector<bool> seen(kThreads * kPer, false);
    for (const auto& v : got) {
      for (const std::uint64_t x : v) {
        ASSERT_LT(x, seen.size()) << to_string(kind);
        ASSERT_FALSE(seen[x]) << to_string(kind) << " duplicate ticket " << x;
        seen[x] = true;
      }
    }
    EXPECT_EQ(counter->read(), kThreads * kPer) << to_string(kind);
  }
}

TEST(ShmCounters, BatchReservesContiguousRange) {
  for (const ShmKind kind :
       {ShmKind::kAtomic, ShmKind::kFlat, ShmKind::kFunnel}) {
    auto counter = make_shm_counter(kind);
    counter->on_threads(1);
    EXPECT_EQ(counter->inc_batch(0, 10), 0u) << to_string(kind);
    EXPECT_EQ(counter->inc_batch(0, 5), 10u) << to_string(kind);
    EXPECT_EQ(counter->read(), 15u) << to_string(kind);
    EXPECT_TRUE(counter->returns_value());
  }
}

TEST(ShmCounters, ShardedIsExactAtQuiescence) {
  auto counter = make_shm_counter(ShmKind::kSharded);
  constexpr std::size_t kThreads = 4;
  counter->on_threads(kThreads);
  EXPECT_FALSE(counter->returns_value());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) counter->inc_batch(t, 1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(counter->read(), kThreads * 5000u);
}

// --- flat combining: the combiner-handoff edge case ---------------------

TEST(FlatCombining, AbandonedRequesterSelfServes) {
  FlatCombiningCounter fc;
  fc.on_threads(2);
  // Become the combiner WITHOUT draining anything: any request
  // published from now on is invisible to this "combiner".
  ASSERT_TRUE(fc.try_lock_combiner_for_test());

  std::atomic<bool> published{false};
  std::atomic<std::uint64_t> got{~0ull};
  std::thread requester([&] {
    published.store(true, std::memory_order_release);
    // Blocks: the lock is held and no one will serve the slot.
    got.store(fc.inc_batch(1, 1), std::memory_order_release);
  });
  while (!published.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Let the requester publish and reach its spin loop, then observe the
  // non-empty publication list the exiting combiner leaves behind.
  while (fc.pending_publications_for_test() == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(fc.read(), 0u);  // nobody served it
  // Release without combining — the abandoned requester must elect
  // itself combiner and self-serve, not hang.
  fc.unlock_combiner_for_test();
  requester.join();
  EXPECT_EQ(got.load(std::memory_order_acquire), 0u);
  EXPECT_EQ(fc.read(), 1u);
}

// --- funnel: forced lock hand-off ---------------------------------------

TEST(Funnel, BudgetOneForcesHandoff) {
  // With budget 1 a combiner serves itself plus at most one successor,
  // then hands the lock on — so a long queue exercises the kOwner wakeup
  // path many times. Exactness after the storm proves every hand-off
  // carried the committed count.
  FunnelCounter funnel(/*combine_budget=*/1);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPer = 3000;
  funnel.on_threads(kThreads);
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPer; ++i) {
        got[t].push_back(funnel.inc_batch(t, 1));
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<bool> seen(kThreads * kPer, false);
  for (const auto& v : got) {
    for (const std::uint64_t x : v) {
      ASSERT_LT(x, seen.size());
      ASSERT_FALSE(seen[x]) << "duplicate ticket " << x;
      seen[x] = true;
    }
  }
  EXPECT_EQ(funnel.read(), kThreads * kPer);
}

// --- the inc/read checker's own edge cases ------------------------------

CounterOpRecord rec(OpId op, SimTime inv, SimTime resp, Value value) {
  return CounterOpRecord{op, inv, resp, value};
}

TEST(IncReadChecker, ValidHistoryPasses) {
  // inc0 done before the read starts, inc1 overlaps it: the read may
  // report 1 or 2.
  const std::vector<CounterOpRecord> incs = {rec(0, 0, 5, 0),
                                             rec(1, 8, 20, 0)};
  for (const Value v : {Value{1}, Value{2}}) {
    const auto report = check_inc_read_linearizable(
        incs, {rec(10, 10, 15, v)});
    EXPECT_TRUE(report.linearizable) << "read=" << v;
  }
}

TEST(IncReadChecker, ReadBelowLowerBoundIsFlagged) {
  // The inc responded (t=5) before the read was invoked (t=10), so the
  // read must count it; 0 is a violation.
  const auto report = check_inc_read_linearizable({rec(0, 0, 5, 0)},
                                                  {rec(10, 10, 15, 0)});
  EXPECT_FALSE(report.linearizable);
  EXPECT_GE(report.violations, 1);
  EXPECT_EQ(report.first_a, 10);
}

TEST(IncReadChecker, ReadAboveUpperBoundIsFlagged) {
  // Only one inc was even invoked before the read responded; seeing 2
  // counts an inc from the future.
  const auto report = check_inc_read_linearizable({rec(0, 0, 5, 0)},
                                                  {rec(10, 10, 15, 2)});
  EXPECT_FALSE(report.linearizable);
  EXPECT_GE(report.violations, 1);
}

TEST(IncReadChecker, NonMonotoneReadsAreFlagged) {
  // Both values sit inside their interval bounds, but the second read
  // starts after the first responded and reports LESS — time ran
  // backwards for an observer.
  const std::vector<CounterOpRecord> incs = {rec(0, 0, 100, 0),
                                             rec(1, 0, 100, 0)};
  const auto report = check_inc_read_linearizable(
      incs, {rec(10, 1, 2, 2), rec(11, 3, 4, 1)});
  EXPECT_FALSE(report.linearizable);
  EXPECT_GE(report.violations, 1);
}

TEST(IncReadChecker, ConcurrentReadsMayDisagree) {
  // The two reads overlap each other, so 2-then-1 is fine — the
  // monotonicity constraint only binds real-time-ordered pairs.
  const std::vector<CounterOpRecord> incs = {rec(0, 0, 100, 0),
                                             rec(1, 0, 100, 0)};
  const auto report = check_inc_read_linearizable(
      incs, {rec(10, 1, 50, 2), rec(11, 2, 49, 1)});
  EXPECT_TRUE(report.linearizable);
}

// --- placement plans on synthetic topologies ----------------------------

CpuTopology two_socket_smt() {
  // 2 packages x 2 cores x 2 SMT threads; sysfs-style numbering where
  // cpu i and cpu i+4 are siblings on the same core.
  CpuTopology topo;
  topo.from_sysfs = true;
  for (int cpu = 0; cpu < 8; ++cpu) {
    topo.cpus.push_back(CpuInfo{cpu, cpu % 4, (cpu % 4) / 2});
  }
  return topo;
}

TEST(PlacementPlan, NonePinsNothing) {
  const PlacementPlan plan = plan_placement(two_socket_smt(),
                                            Placement::kNone, 4);
  EXPECT_EQ(plan.cpu_for(0), -1);
  EXPECT_TRUE(plan.cpus.empty());
}

TEST(PlacementPlan, CompactFillsSiblingsFirst) {
  const PlacementPlan plan = plan_placement(two_socket_smt(),
                                            Placement::kCompact, 4);
  ASSERT_TRUE(plan.supported);
  // Topology order: package 0 core 0 gets both siblings before core 1.
  EXPECT_EQ(plan.cpu_for(0), 0);
  EXPECT_EQ(plan.cpu_for(1), 4);
  EXPECT_EQ(plan.cpu_for(2), 1);
  EXPECT_EQ(plan.cpu_for(3), 5);
}

TEST(PlacementPlan, WorkersWrapAroundCpus) {
  const PlacementPlan plan = plan_placement(two_socket_smt(),
                                            Placement::kCompact, 16);
  ASSERT_TRUE(plan.supported);
  EXPECT_EQ(plan.cpu_for(8), plan.cpu_for(0));
  EXPECT_EQ(plan.cpu_for(15), plan.cpu_for(7));
}

// --- pinning smoke: applies or cleanly reports unsupported --------------

TEST(PinningSmoke, HarnessAppliesOrReportsUnsupported) {
  ShmOptions o = small_run(1);
  o.ops = 512;
  o.placement = Placement::kCompact;
  const ThroughputResult r = run_shm_throughput(ShmKind::kAtomic, o);
  EXPECT_EQ(r.placement, "compact");
  if (r.placement_supported) {
    // Supported host: every harness thread pinned, none half-applied.
    EXPECT_EQ(r.pinned_workers, o.threads);
  } else {
    // Unsupported host: a clean no-op, zero pins, run still exact.
    EXPECT_EQ(r.pinned_workers, 0u);
  }
  EXPECT_TRUE(r.values_ok);
}

TEST(PinningSmoke, SelfPinMatchesPlanSupport) {
  const PlacementPlan plan = plan_placement(Placement::kCompact, 1);
  const bool pinned = pin_thread_to_cpu(plan.cpu_for(0));
  if (plan.supported) {
    EXPECT_TRUE(pinned);
  } else {
    EXPECT_FALSE(pinned);  // graceful no-op, not an abort
  }
  EXPECT_FALSE(pin_thread_to_cpu(-1));  // kNone sentinel never pins
}

}  // namespace
}  // namespace dcnt::shm
