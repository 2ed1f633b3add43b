// The concurrency plane (src/concurrent/): history capture + the
// linearizability checker's edge cases, and the windowed in-flight workload
// on the real threaded runtime.
//
// The runtime tests here are the live-history half of what
// test_linearizability proves on the simulator: the histories checked
// are real wall-clock (invoke, response, value) triples recorded by
// concurrent::HistoryBuffer while many ops were genuinely outstanding.
#include "concurrent/history.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/factory.hpp"
#include "harness/throughput.hpp"

namespace dcnt {
namespace {

CounterOpRecord rec(OpId op, SimTime inv, SimTime resp, Value value) {
  return CounterOpRecord{op, inv, resp, value};
}

// --- checker edge cases -------------------------------------------------

TEST(Checker, SingleOpIsLinearizable) {
  const auto report = check_linearizable({rec(0, 3, 9, 0)});
  EXPECT_TRUE(report.linearizable);
  EXPECT_EQ(report.violations, 0);
  EXPECT_EQ(report.duplicate_values, 0);
}

TEST(Checker, DuplicateValuesAreRejected) {
  // A counter must hand out distinct values; two ops returning 1 is a
  // violation even though no real-time pair inverts.
  const auto report = check_linearizable({
      rec(0, 0, 1, 0),
      rec(1, 2, 3, 1),
      rec(2, 4, 5, 1),
  });
  EXPECT_FALSE(report.linearizable);
  EXPECT_EQ(report.duplicate_values, 1);
  EXPECT_GE(report.violations, 1);
}

TEST(Checker, AllConcurrentHistoryAcceptsAnyPermutation) {
  // Every op overlaps every other: no resp(A) < inv(B) constraints
  // exist, so any assignment of distinct values linearizes.
  const auto report = check_linearizable({
      rec(0, 0, 100, 3),
      rec(1, 1, 99, 0),
      rec(2, 2, 98, 2),
      rec(3, 3, 97, 1),
  });
  EXPECT_TRUE(report.linearizable);
  EXPECT_EQ(report.violations, 0);
}

TEST(Checker, QuiescentButNotLinearizableHistoryIsCaught) {
  // The HSW96 separation in one history: the values 0..3 form an exact
  // permutation — a quiescent observer (run_throughput's values_ok)
  // calls this correct — but op 1 responded with value 2 strictly
  // before ops 2 and 3 were invoked and they received 0 and 1. A
  // counting network can produce exactly this; a serializing counter
  // cannot.
  const auto report = check_linearizable({
      rec(0, 0, 1, 3),
      rec(1, 0, 2, 2),
      rec(2, 10, 12, 0),
      rec(3, 11, 13, 1),
  });
  EXPECT_FALSE(report.linearizable);
  // Violations count undercutting ops (the sweep charges each op B
  // once, not once per inverted pair): ops 2 and 3 both undercut.
  EXPECT_EQ(report.violations, 2);
  EXPECT_EQ(report.duplicate_values, 0);
  EXPECT_EQ(report.first_a, 0);
  EXPECT_EQ(report.first_b, 2);
}

TEST(HistoryBuffer, CapturesAndSnapshotsSkippingWarmup) {
  concurrent::HistoryBuffer buf(4);
  for (OpId op = 0; op < 4; ++op) {
    buf.on_invoke(op, 10 + op);
    buf.on_response(op, 20 + op, Value{op});
  }
  const auto all = buf.snapshot();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[2].op, 2);
  EXPECT_EQ(all[2].invoked, 12);
  EXPECT_EQ(all[2].responded, 22);
  EXPECT_EQ(all[2].value, 2);
  // first_op drops the warmup prefix.
  const auto tail = buf.snapshot(3);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].op, 3);
  EXPECT_TRUE(check_linearizable(all).linearizable);
}

// --- windowed in-flight workload on the threaded runtime ----------------

ThroughputResult run_windowed(CounterKind kind, std::size_t inflight,
                              std::size_t workers = 2,
                              std::size_t ops = 2048) {
  ThroughputOptions options;
  options.workers = workers;
  options.ops = ops;
  options.concurrency = 4;
  options.inflight = inflight;
  options.warmup = 64;
  options.seed = 11;
  return run_throughput(make_counter(kind, 8), options);
}

TEST(InflightRuntime, SerializingCountersLinearizeAtDeepWindows) {
  for (const CounterKind kind :
       {CounterKind::kTree, CounterKind::kCentral, CounterKind::kCombining}) {
    const ThroughputResult res = run_windowed(kind, 64);
    EXPECT_TRUE(res.values_ok) << to_string(kind);
    ASSERT_TRUE(res.lin_checked) << to_string(kind);
    EXPECT_TRUE(res.linearizable) << to_string(kind);
    EXPECT_EQ(res.lin_violations, 0) << to_string(kind);
  }
}

TEST(InflightRuntime, DiffractingTreeStaysQuiescentAtDeepWindows) {
  // The quiescent half of the separation on live threads: values must
  // still be an exact permutation (values_ok aborts otherwise) and the
  // checker must have run. Whether an inversion is *caught* depends on
  // scheduling luck, so only the quiescent contract is asserted.
  const ThroughputResult res = run_windowed(CounterKind::kDiffracting, 64);
  EXPECT_TRUE(res.values_ok);
  ASSERT_TRUE(res.lin_checked);
  EXPECT_FALSE(expected_linearizable(CounterKind::kDiffracting));
}

TEST(InflightRuntime, InflightOneMatchesClassicClosedLoop) {
  // inflight=1 is today's driver: each slot holds one op, so the
  // central counter moves exactly one request and one reply per op
  // initiated away from the root (processor-0 ops stay local) — the
  // same message count the classic closed loop produced.
  ThroughputOptions options;
  options.workers = 1;
  options.ops = 512;
  options.concurrency = 4;
  options.inflight = 1;
  options.seed = 3;
  const ThroughputResult res =
      run_throughput(make_counter(CounterKind::kCentral, 8), options);
  EXPECT_TRUE(res.values_ok);
  // Round-robin initiators over n=8: 512/8 ops originate at the root.
  EXPECT_EQ(res.total_messages, 2 * (512 - 512 / 8));
  ASSERT_TRUE(res.lin_checked);
  EXPECT_TRUE(res.linearizable);
}

TEST(InflightRuntime, BurstShapeSplitsSloByPhase) {
  ThroughputOptions options;
  options.workers = 2;
  options.ops = 2000;
  options.open_rate = 50000.0;
  options.shape = "burst";
  options.period_s = 0.02;
  options.duty = 0.5;
  options.slo_us = 500.0;
  options.seed = 5;
  const ThroughputResult res =
      run_throughput(make_counter(CounterKind::kCentral, 8), options);
  EXPECT_TRUE(res.values_ok);
  ASSERT_TRUE(res.slo_phases);
  // Every measured op is charged to exactly one phase of its scheduled
  // arrival, and a 50% duty cycle at this rate exercises both.
  EXPECT_EQ(res.slo_high_den + res.slo_low_den, res.slo_den);
  EXPECT_GT(res.slo_high_den, 0);
  EXPECT_GT(res.slo_low_den, 0);
  EXPECT_EQ(res.slo_high_ok + res.slo_low_ok, res.slo_ok);
}

}  // namespace
}  // namespace dcnt
