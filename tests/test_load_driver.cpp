// The shared load driver (traffic/driver.hpp) against a scripted,
// single-threaded fake port: every policy the runtime and the cluster
// rely on — the closed-loop window, warmup then quiesce then reset, the
// duration cut, open-loop pacing and scheduled-time stamps — pinned
// without a real substrate in the way. Plus the shared value verifier
// (harness/result.hpp) every harness checks its runs with.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/history.hpp"
#include "harness/result.hpp"
#include "support/stats.hpp"
#include "traffic/driver.hpp"
#include "traffic/shape.hpp"

namespace dcnt::traffic {
namespace {

/// Issues hand out consecutive OpIds; each wait() completes one op in
/// flight (FIFO, or LIFO when asked) with its id as the value, as a span
/// of one, or sleeps to the deadline when nothing is in flight. In
/// burst mode a wait() completes every op in flight as one span, the way
/// the cluster controller hands over a decoded kCompleteBatch frame.
class FakePort final : public LoadPort {
 public:
  enum class Kind { kIssue, kComplete, kQuiesce, kReset };
  struct Event {
    Kind kind;
    std::size_t entry;
    OpId op;
  };

  LoadDriver* driver{nullptr};
  bool lifo{false};
  bool burst{false};
  /// Sleep inside every completion (drives a duration cut).
  std::chrono::microseconds service_time{0};
  /// Sleep inside the issue of entry `stall_entry` (the driver falls
  /// behind).
  std::chrono::milliseconds stall{0};
  std::size_t stall_entry{0};

  std::vector<Event> log;
  std::deque<OpId> in_flight;
  std::size_t max_in_flight{0};
  /// Burst mode: the ops of each span, in completion order.
  std::vector<std::vector<OpId>> spans;
  /// By op id: the span whose completion issued the op; -1 when the
  /// driver thread issued it (window fill, settle, open loop).
  std::vector<int> issued_in_span;

  OpId issue(std::size_t entry) override {
    const OpId op = next_op_++;
    issued_in_span.push_back(span_);
    log.push_back({Kind::kIssue, entry, op});
    in_flight.push_back(op);
    max_in_flight = std::max(max_in_flight, in_flight.size());
    if (entry == stall_entry) std::this_thread::sleep_for(stall);
    return op;
  }

  void wait(std::int64_t until_ns) override {
    if (in_flight.empty()) {
      if (until_ns == kForever) throw std::logic_error("waiting on nothing");
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(until_ns)));
      return;
    }
    std::vector<Completion> done;
    if (burst) {
      spans.emplace_back(in_flight.begin(), in_flight.end());
      span_ = static_cast<int>(spans.size()) - 1;
      for (const OpId op : in_flight) done.push_back({op, op});
      in_flight.clear();
    } else if (lifo) {
      done.push_back({in_flight.back(), in_flight.back()});
      in_flight.pop_back();
    } else {
      done.push_back({in_flight.front(), in_flight.front()});
      in_flight.pop_front();
    }
    std::this_thread::sleep_for(service_time);
    for (const Completion& c : done) {
      log.push_back({Kind::kComplete, 0, c.op});
    }
    driver->on_complete(done);
    span_ = -1;
  }

  void quiesce() override {
    EXPECT_TRUE(in_flight.empty());
    log.push_back({Kind::kQuiesce, 0, kNoOp});
  }
  void reset_metrics() override {
    EXPECT_TRUE(in_flight.empty());
    log.push_back({Kind::kReset, 0, kNoOp});
  }

  std::size_t count(Kind kind) const {
    return static_cast<std::size_t>(
        std::count_if(log.begin(), log.end(),
                      [&](const Event& e) { return e.kind == kind; }));
  }
  std::vector<OpId> completed() const {
    std::vector<OpId> ops;
    for (const Event& e : log) {
      if (e.kind == Kind::kComplete) ops.push_back(e.op);
    }
    return ops;
  }

 private:
  OpId next_op_{0};
  int span_{-1};
};

DriverResult run_driver(FakePort& port, const DriverOptions& options,
                        std::size_t ops, std::size_t unit = 1,
                        bool settle = false) {
  DriverOptions with_settle = options;
  with_settle.quiesce_between_ops = settle;
  LoadDriver driver(port, with_settle, ops, unit);
  port.driver = &driver;
  return driver.run();
}

TEST(LoadDriver, ClosedLoopWindowReachesAndNeverExceedsItsSize) {
  for (const std::size_t inflight : {std::size_t{1}, std::size_t{3}}) {
    FakePort port;
    DriverOptions options;
    options.concurrency = 4;
    options.inflight = inflight;
    const DriverResult run = run_driver(port, options, 200);
    EXPECT_EQ(run.ops, 200u);
    EXPECT_EQ(port.max_in_flight, 4 * inflight);
    EXPECT_EQ(port.count(FakePort::Kind::kIssue), 200u);
    EXPECT_EQ(run.traffic.count, 200);
    // Entries go out once each, in schedule order.
    std::size_t next = 0;
    for (const auto& e : port.log) {
      if (e.kind == FakePort::Kind::kIssue) {
        EXPECT_EQ(e.entry, next++);
      }
    }
  }
}

TEST(LoadDriver, WarmupQuiescesThenResetsOnceBeforeTheFirstMeasuredIssue) {
  constexpr std::size_t kWarmup = 10;
  FakePort port;
  DriverOptions options;
  options.concurrency = 3;
  options.warmup = kWarmup;
  const DriverResult run = run_driver(port, options, 20);
  EXPECT_EQ(run.ops, 20u);

  std::size_t last_warmup_done = 0;
  std::size_t first_measured_issue = port.log.size();
  for (std::size_t i = 0; i < port.log.size(); ++i) {
    const auto& e = port.log[i];
    if (e.kind == FakePort::Kind::kComplete &&
        static_cast<std::size_t>(e.op) < kWarmup) {
      last_warmup_done = i;
    }
    if (e.kind == FakePort::Kind::kIssue && e.entry >= kWarmup &&
        first_measured_issue == port.log.size()) {
      first_measured_issue = i;
    }
  }
  ASSERT_LT(first_measured_issue, port.log.size());
  // Between the two: exactly quiesce, then reset.
  ASSERT_EQ(first_measured_issue, last_warmup_done + 3);
  EXPECT_EQ(port.log[last_warmup_done + 1].kind, FakePort::Kind::kQuiesce);
  EXPECT_EQ(port.log[last_warmup_done + 2].kind, FakePort::Kind::kReset);
  // The only other quiesce is the final one, after the last completion.
  EXPECT_EQ(port.count(FakePort::Kind::kReset), 1u);
  EXPECT_EQ(port.count(FakePort::Kind::kQuiesce), 2u);
  EXPECT_EQ(port.log.back().kind, FakePort::Kind::kQuiesce);
}

TEST(LoadDriver, WarmupOpsNeverReachTheRecorderOrTheHistory) {
  constexpr std::size_t kWarmup = 16;
  constexpr std::size_t kOps = 32;
  FakePort port;
  concurrent::HistoryBuffer history(kWarmup + kOps);
  DriverOptions options;
  options.concurrency = 4;
  options.warmup = kWarmup;
  options.history = &history;
  const DriverResult run = run_driver(port, options, kOps);
  EXPECT_EQ(run.traffic.count, static_cast<std::int64_t>(kOps));
  const auto records = history.snapshot();
  ASSERT_EQ(records.size(), kOps);
  for (const auto& r : records) {
    EXPECT_GE(static_cast<std::size_t>(r.op), kWarmup);
    EXPECT_EQ(r.value, static_cast<Value>(r.op));
    EXPECT_LE(r.invoked, r.responded);
  }
}

TEST(LoadDriver, DurationCutCompletesAnIdContiguousPrefix) {
  constexpr std::size_t kWarmup = 8;
  constexpr std::size_t kOps = 100'000;
  FakePort port;
  port.lifo = true;
  port.service_time = std::chrono::microseconds(20);
  DriverOptions options;
  options.concurrency = 4;
  options.inflight = 2;
  options.warmup = kWarmup;
  options.duration_s = 0.01;
  const DriverResult run = run_driver(port, options, kOps);
  ASSERT_GT(run.ops, 0u);
  ASSERT_LT(run.ops, kOps);
  std::vector<OpId> done = port.completed();
  ASSERT_EQ(done.size(), kWarmup + run.ops);
  std::sort(done.begin(), done.end());
  for (std::size_t i = 0; i < done.size(); ++i) {
    ASSERT_EQ(done[i], static_cast<OpId>(i));
  }
  EXPECT_EQ(run.traffic.count, static_cast<std::int64_t>(run.ops));
}

TEST(LoadDriver, OpenLoopIssuesExactlyTheScheduledArrivals) {
  RateShape shape;
  shape.rate = 20'000.0;
  constexpr double kDuration = 0.05;
  constexpr std::size_t kCap = 100'000;
  FakePort port;
  // The driver falls 20 ms behind at its first measured issue: every
  // arrival due meanwhile is issued late, never skipped, and charged
  // from its scheduled time.
  port.stall = std::chrono::milliseconds(20);
  port.stall_entry = 4;
  DriverOptions options;
  options.shape = shape;
  options.duration_s = kDuration;
  options.warmup = 4;
  const DriverResult run = run_driver(port, options, kCap);
  EXPECT_EQ(run.ops, count_arrivals(shape, kDuration, kCap));
  EXPECT_EQ(run.traffic.count, static_cast<std::int64_t>(run.ops));
  // Stamped at send time, the second op would show microseconds.
  EXPECT_GE(run.traffic.max_us, 19'900.0);
}

TEST(LoadDriver, OpenLoopBurstPhasesFollowTheScheduledArrival) {
  RateShape shape;
  shape.kind = RateShape::Kind::kBurst;
  shape.rate = 20'000.0;
  shape.period_s = 0.01;
  constexpr double kDuration = 0.05;
  constexpr std::size_t kCap = 100'000;
  FakePort port;
  DriverOptions options;
  options.shape = shape;
  options.duration_s = kDuration;
  const DriverResult run = run_driver(port, options, kCap);
  const std::size_t expected = count_arrivals(shape, kDuration, kCap);
  ASSERT_EQ(run.ops, expected);
  ArrivalTimeline timeline(shape);
  std::int64_t high = 0;
  for (std::size_t i = 0; i < expected; ++i) {
    if (shape.high_at(static_cast<double>(timeline.next_ns()) / 1e9)) ++high;
  }
  ASSERT_TRUE(run.traffic.phases);
  EXPECT_EQ(run.traffic.high_count, high);
  EXPECT_EQ(run.traffic.low_count, static_cast<std::int64_t>(expected) - high);
}

TEST(LoadDriver, SettleModeQuiescesAfterEveryOp) {
  FakePort port;
  DriverOptions options;
  options.concurrency = 8;
  options.warmup = 3;
  const DriverResult run = run_driver(port, options, 5, 1, /*settle=*/true);
  EXPECT_EQ(run.ops, 5u);
  EXPECT_EQ(port.max_in_flight, 1u);
  // One settle per op doubles as the pre-reset and the final barrier.
  EXPECT_EQ(port.count(FakePort::Kind::kQuiesce), 8u);
  EXPECT_EQ(port.count(FakePort::Kind::kReset), 1u);
}

TEST(LoadDriver, WideUnitsCountTheWindowInUnits) {
  for (const bool burst : {false, true}) {
    FakePort port;
    port.burst = burst;
    DriverOptions options;
    options.concurrency = 2;
    const DriverResult run = run_driver(port, options, 30, /*unit=*/4);
    EXPECT_EQ(run.ops, 30u);
    EXPECT_EQ(port.max_in_flight, 8u);
    EXPECT_EQ(port.completed().size(), 30u);
  }
}

TEST(LoadDriver, ASpanSharesOneResponseStampAndReissuesStrictlyAfterIt) {
  constexpr std::size_t kWarmup = 12;
  constexpr std::size_t kOps = 300;
  FakePort port;
  port.burst = true;
  concurrent::HistoryBuffer history(kWarmup + kOps);
  DriverOptions options;
  options.concurrency = 4;
  options.inflight = 3;
  options.warmup = kWarmup;
  options.history = &history;
  const DriverResult run = run_driver(port, options, kOps);
  EXPECT_EQ(run.ops, kOps);
  EXPECT_EQ(port.max_in_flight, 12u);
  ASSERT_GT(port.spans.size(), 2u);

  std::vector<CounterOpRecord> by_op(kWarmup + kOps);
  const std::vector<CounterOpRecord> records = history.snapshot();
  ASSERT_EQ(records.size(), kOps);
  for (const CounterOpRecord& r : records) {
    by_op[static_cast<std::size_t>(r.op)] = r;
  }
  // One response stamp per span.
  std::vector<std::int64_t> span_stamp;
  for (const std::vector<OpId>& span : port.spans) {
    const std::int64_t t = by_op[static_cast<std::size_t>(span.front())]
                               .responded;
    for (const OpId op : span) {
      EXPECT_EQ(by_op[static_cast<std::size_t>(op)].responded, t);
    }
    span_stamp.push_back(t);
  }
  // A reissue is invoked strictly after its span's responses and is
  // scheduled at them; a fill op is scheduled when it is sent. The
  // recorder's latencies are exactly responded - scheduled.
  Summary expected;
  for (std::size_t op = kWarmup; op < kWarmup + kOps; ++op) {
    const CounterOpRecord& r = by_op[op];
    std::int64_t scheduled = r.invoked;
    const int span = port.issued_in_span[op];
    if (span >= 0) {
      scheduled = span_stamp[static_cast<std::size_t>(span)];
      EXPECT_GT(r.invoked, scheduled);
    }
    expected.add(std::max<std::int64_t>(r.responded - scheduled, 0));
  }
  EXPECT_EQ(run.traffic.count, static_cast<std::int64_t>(kOps));
  EXPECT_DOUBLE_EQ(run.traffic.mean_us, expected.mean() / 1e3);
  for (const auto& [got, q] : {std::pair{run.traffic.p50_us, 50.0},
                               std::pair{run.traffic.p95_us, 95.0},
                               std::pair{run.traffic.max_us, 100.0}}) {
    EXPECT_EQ(got, static_cast<double>(expected.percentile(q)) / 1e3) << q;
  }
  EXPECT_TRUE(check_linearizable(records).linearizable);
}

TEST(VerifyValues, AcceptsPermutationsAndPicksTheMeasuredHotKey) {
  HarnessResult plain;
  verify_values(plain, {3, 5, 4}, {}, /*first=*/3);
  EXPECT_TRUE(plain.values_ok);
  EXPECT_EQ(plain.hot_key, kNoKey);

  // Ops 0..1 are warmup: key 9's two warmup ops do not make it hot, and
  // keys 2 and 7 tie on measured ops, so the smaller id wins.
  HarnessResult keyed;
  keyed.warmup = 2;
  verify_values(keyed, {0, 1, 0, 0, 1, 2, 1}, {9, 9, 7, 2, 2, 9, 7});
  EXPECT_TRUE(keyed.values_ok);
  EXPECT_EQ(keyed.hot_key, 2);
  EXPECT_EQ(keyed.hot_key_ops, 2);
}

TEST(VerifyValuesDeathTest, RejectsDuplicatesGapsAndCrossKeyValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  HarnessResult out;
  EXPECT_DEATH(verify_values(out, {0, 1, 1}), "permutation");
  EXPECT_DEATH(verify_values(out, {0, 2}), "permutation");
  // Globally a permutation of 0..3, but key 1 holds {2, 3}.
  EXPECT_DEATH(verify_values(out, {0, 1, 2, 3}, {0, 0, 1, 1}), "permutation");
}

}  // namespace
}  // namespace dcnt::traffic
