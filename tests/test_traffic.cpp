// The traffic engine (DESIGN.md §14): HDR histogram geometry and error
// bounds, recorder mode agreement, arrival-timeline determinism, and
// the per-thread recording and merge paths the CI TSan job exercises.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "support/stats.hpp"
#include "traffic/histogram.hpp"
#include "traffic/recorder.hpp"
#include "traffic/shape.hpp"

namespace dcnt::traffic {
namespace {

// ---------------------------------------------------------------------
// LogHistogram bucket geometry.

// Values below kSubCount get a bucket each: exact recording, and the
// bucket [low, high] interval degenerates to the value itself.
TEST(LogHistogram, SmallValuesAreExact) {
  for (std::int64_t v = 0; v < LogHistogram::kSubCount; ++v) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_EQ(idx, static_cast<std::size_t>(v));
    EXPECT_EQ(LogHistogram::bucket_low(idx), v);
    EXPECT_EQ(LogHistogram::bucket_high(idx), v);
    EXPECT_EQ(LogHistogram::bucket_mid(idx), v);
  }
}

// Every value maps to a bucket whose [low, high] interval contains it,
// and bucket boundaries are tight: low is the smallest value in the
// bucket, high the largest. Checked at the classic off-by-one spots —
// octave edges, sub-bucket edges, and their neighbours.
TEST(LogHistogram, BucketBoundariesAreExactAtOctaveEdges) {
  std::vector<std::int64_t> probes;
  for (int p = 7; p <= 42; ++p) {
    const std::int64_t edge = std::int64_t{1} << p;
    for (const std::int64_t v :
         {edge - 1, edge, edge + 1, edge + (edge >> 7),
          edge + (edge >> 7) - 1, (edge << 1) - 1}) {
      probes.push_back(v);
    }
  }
  for (const std::int64_t v : probes) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_LE(LogHistogram::bucket_low(idx), v) << "v=" << v;
    EXPECT_GE(LogHistogram::bucket_high(idx), v) << "v=" << v;
    // Tightness: the value one below low / one above high lives in a
    // different bucket.
    EXPECT_NE(LogHistogram::bucket_index(LogHistogram::bucket_low(idx) - 1),
              idx)
        << "v=" << v;
    EXPECT_NE(LogHistogram::bucket_index(LogHistogram::bucket_high(idx) + 1),
              idx)
        << "v=" << v;
  }
}

// The buckets tile the value range with no gaps and no overlaps:
// consecutive buckets abut exactly ([low, high] then [high+1, ...]),
// and each bucket's endpoints map back to its own index.
TEST(LogHistogram, BucketIndexIsMonotoneAndGapFree) {
  const std::size_t top =
      LogHistogram::bucket_index(LogHistogram::kDefaultMaxValue);
  EXPECT_EQ(LogHistogram::bucket_low(0), 0);
  for (std::size_t idx = 0; idx <= top; ++idx) {
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_low(idx)), idx);
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_high(idx)), idx);
    if (idx > 0) {
      EXPECT_EQ(LogHistogram::bucket_low(idx),
                LogHistogram::bucket_high(idx - 1) + 1)
          << "gap before idx=" << idx;
    }
  }
}

// The relative width bound the header promises: every bucket above the
// exact range satisfies (high - low) / low <= 1/kSubCount < 1%.
TEST(LogHistogram, RelativeBucketWidthUnderOnePercent) {
  const std::size_t top =
      LogHistogram::bucket_index(LogHistogram::kDefaultMaxValue);
  for (std::size_t idx = LogHistogram::kSubCount; idx <= top; ++idx) {
    const double low = static_cast<double>(LogHistogram::bucket_low(idx));
    const double high = static_cast<double>(LogHistogram::bucket_high(idx));
    EXPECT_LE((high - low) / low, 1.0 / LogHistogram::kSubCount)
        << "idx=" << idx;
  }
}

// ---------------------------------------------------------------------
// LogHistogram recording, percentiles, merge, saturation.

// Histogram percentiles track exact nearest-rank percentiles within the
// bucket error bound on a log-uniform sample — the distribution shape
// that spreads mass across every octave.
TEST(LogHistogram, PercentilesWithinRelativeErrorOfExact) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> log_u(0.0, 30.0);  // 2^0..2^30 ns
  LogHistogram hist;
  Summary exact;
  for (int i = 0; i < 200'000; ++i) {
    const auto v = static_cast<std::int64_t>(std::exp2(log_u(rng)));
    hist.record(v);
    exact.add(v);
  }
  EXPECT_EQ(hist.count(), 200'000);
  for (const double q : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double e = static_cast<double>(exact.percentile(q));
    const double h = static_cast<double>(hist.percentile(q));
    // Midpoint reporting keeps the error within half a bucket width:
    // 1/(2*kSubCount) of the value, padded slightly for rank rounding
    // at the extreme tail.
    EXPECT_NEAR(h, e, e / LogHistogram::kSubCount + 1.0) << "q=" << q;
  }
  EXPECT_EQ(hist.max(), exact.max());
  EXPECT_NEAR(hist.mean(), exact.mean(), 1e-6);
}

// Merge is bucket-wise addition: associative and commutative, so any
// fold order over per-worker histograms yields identical counts and
// percentiles.
TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::int64_t> dist(1, 1 << 22);
  LogHistogram a, b, c;
  for (int i = 0; i < 5'000; ++i) a.record(dist(rng));
  for (int i = 0; i < 3'000; ++i) b.record(dist(rng));
  for (int i = 0; i < 7'000; ++i) c.record(dist(rng));

  // (a + b) + c
  LogHistogram abc(a);
  abc.merge(b);
  abc.merge(c);
  // c + (b + a)
  LogHistogram cba(c);
  LogHistogram ba(b);
  ba.merge(a);
  cba.merge(ba);

  EXPECT_EQ(abc.count(), 15'000);
  EXPECT_EQ(cba.count(), abc.count());
  EXPECT_EQ(cba.min(), abc.min());
  EXPECT_EQ(cba.max(), abc.max());
  EXPECT_DOUBLE_EQ(cba.mean(), abc.mean());
  for (const double q : {1.0, 25.0, 50.0, 75.0, 99.0, 99.9}) {
    EXPECT_EQ(cba.percentile(q), abc.percentile(q)) << "q=" << q;
  }
  for (std::size_t i = 0; i < abc.num_buckets(); ++i) {
    EXPECT_EQ(cba.bucket_count_at(i), abc.bucket_count_at(i)) << "i=" << i;
  }
}

// Values past max_value() saturate into the top bucket and count as
// overflow instead of growing (or missing) the array; the exact
// extremes still see the raw value, so saturation is observable.
TEST(LogHistogram, OverflowSaturatesIntoTopBucket) {
  const std::int64_t max_value = std::int64_t{1} << 20;
  LogHistogram hist(max_value);
  hist.record(100);
  hist.record(max_value);          // at the cap: not overflow
  hist.record(max_value * 16);     // past it: saturates
  hist.record(INT64_MAX);          // way past it: still one bucket
  EXPECT_EQ(hist.count(), 4);
  EXPECT_EQ(hist.overflow(), 2);
  EXPECT_EQ(hist.max(), INT64_MAX);  // extremes stay exact
  EXPECT_EQ(hist.min(), 100);
  // Everything saturated reports as the top bucket's midpoint — the
  // "at least this" answer — never above max_value's bucket.
  const std::size_t top = LogHistogram::bucket_index(max_value);
  EXPECT_EQ(hist.percentile(100), LogHistogram::bucket_mid(top));
  // A histogram with a different cap refuses to merge (different
  // geometry); same-cap merge carries overflow across.
  LogHistogram same(max_value);
  same.record(max_value * 2);
  same.merge(hist);
  EXPECT_EQ(same.overflow(), 3);
  EXPECT_EQ(same.count(), 5);
}

// A bucket's midpoint can lie past the one value it holds; percentiles
// are clamped to the exact extremes, so p99 never reads above max.
TEST(LogHistogram, PercentilesStayWithinTheRecordedExtremes) {
  const std::int64_t v = 1'000'003;  // in a bucket 8,192 wide
  const std::size_t idx = LogHistogram::bucket_index(v);
  ASSERT_GT(LogHistogram::bucket_high(idx) - LogHistogram::bucket_low(idx),
            1000);
  ASSERT_NE(LogHistogram::bucket_mid(idx), v);
  LogHistogram hist;
  hist.record(v);
  EXPECT_EQ(hist.max(), v);
  EXPECT_EQ(hist.percentile(50), v);
  EXPECT_EQ(hist.percentile(99), v);
  EXPECT_EQ(hist.percentile(100), v);
}

// Negative recordings clamp to zero (a completion racing a clock step
// must not underflow the first bucket).
TEST(LogHistogram, NegativeValuesClampToZero) {
  LogHistogram hist;
  hist.record(-5);
  EXPECT_EQ(hist.count(), 1);
  EXPECT_EQ(hist.min(), 0);
  EXPECT_EQ(hist.percentile(50), 0);
}

// A histogram has one writer: threads recording concurrently each keep
// their own and merge after the join. Totals and extremes come out
// exact; the TSan job reruns this binary to hold the per-thread
// histograms to that rule.
TEST(LogHistogram, ConcurrentPerThreadRecordThenMerge) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<LogHistogram> locals(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&locals, t] {
      std::mt19937_64 rng(100 + t);
      std::uniform_int_distribution<std::int64_t> dist(1, 1 << 24);
      LogHistogram& mine = locals[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPerThread; ++i) mine.record(dist(rng));
    });
  }
  for (auto& w : workers) w.join();
  LogHistogram merged;
  for (const LogHistogram& l : locals) merged.merge(l);
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  EXPECT_GE(merged.min(), 1);
  EXPECT_LE(merged.max(), 1 << 24);
}

// Per-thread histograms merged after the fact agree exactly with one
// histogram fed the same samples by one thread — the fold stats() does
// over the recorder's shards.
TEST(LogHistogram, PerThreadMergeMatchesOneHistogram) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25'000;
  std::vector<std::vector<std::int64_t>> samples(kThreads);
  std::vector<LogHistogram> locals(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&samples, &locals, t] {
      std::mt19937_64 rng(200 + t);
      std::uniform_int_distribution<std::int64_t> dist(1, 1 << 20);
      const auto i = static_cast<std::size_t>(t);
      for (int k = 0; k < kPerThread; ++k) {
        samples[i].push_back(dist(rng));
        locals[i].record(samples[i].back());
      }
    });
  }
  for (auto& w : workers) w.join();
  LogHistogram one;
  for (const auto& thread_samples : samples) {
    for (const std::int64_t v : thread_samples) one.record(v);
  }
  LogHistogram merged;
  for (const LogHistogram& l : locals) merged.merge(l);
  EXPECT_EQ(merged.count(), one.count());
  EXPECT_EQ(merged.min(), one.min());
  EXPECT_EQ(merged.max(), one.max());
  EXPECT_DOUBLE_EQ(merged.mean(), one.mean());
  for (std::size_t i = 0; i < merged.num_buckets(); ++i) {
    EXPECT_EQ(merged.bucket_count_at(i), one.bucket_count_at(i));
  }
}

// ---------------------------------------------------------------------
// TailRecorder: exact vs HDR mode agreement, scheduled-time semantics.

// The same sample stream through both modes: counts, SLO accounting and
// max agree exactly; percentiles agree within the HDR bucket error.
TEST(TailRecorder, ExactAndHdrModesAgreeWithinBucketError) {
  constexpr std::size_t kOps = 4'096;
  const std::int64_t slo_ns = 1'000'000;  // 1 ms
  TailRecorder exact(kOps, slo_ns, /*exact_cap=*/kOps);      // exact mode
  TailRecorder hdr(kOps, slo_ns, /*exact_cap=*/kOps - 1);    // HDR mode
  ASSERT_TRUE(exact.exact_mode());
  ASSERT_FALSE(hdr.exact_mode());

  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> log_u(10.0, 24.0);  // 1µs..16ms
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto v = static_cast<std::int64_t>(std::exp2(log_u(rng)));
    exact.record(v);
    hdr.record(v);
  }

  const TrafficStats e = exact.stats();
  const TrafficStats h = hdr.stats();
  EXPECT_TRUE(e.exact);
  EXPECT_FALSE(h.exact);
  EXPECT_EQ(e.count, static_cast<std::int64_t>(kOps));
  EXPECT_EQ(h.count, e.count);
  // SLO compares the raw latency before bucketing: exact in both modes.
  EXPECT_EQ(h.slo_ok, e.slo_ok);
  EXPECT_DOUBLE_EQ(h.slo_attainment, e.slo_attainment);
  EXPECT_EQ(h.hdr_overflow, 0);
  EXPECT_DOUBLE_EQ(h.max_us, e.max_us);  // max is tracked exactly
  EXPECT_NEAR(h.mean_us, e.mean_us, 1e-6);
  const double tol = 1.0 / LogHistogram::kSubCount;  // bucket width bound
  EXPECT_NEAR(h.p50_us, e.p50_us, e.p50_us * tol + 1e-3);
  EXPECT_NEAR(h.p99_us, e.p99_us, e.p99_us * tol + 1e-3);
  EXPECT_NEAR(h.p999_us, e.p999_us, e.p999_us * tol + 1e-3);
  EXPECT_NEAR(h.p9999_us, e.p9999_us, e.p9999_us * tol + 1e-3);
}

// Latency is measured from the SCHEDULED time handed to on_issue, not
// from any wall clock the recorder reads itself — the property that
// makes the open loop coordinated-omission-free. Deterministic check
// with synthetic timestamps.
TEST(TailRecorder, LatencyMeasuredFromScheduledTime) {
  TailRecorder rec(/*max_ops=*/4, /*slo_ns=*/1'000);
  ASSERT_TRUE(rec.exact_mode());
  // Op 0: scheduled at t=1000, completes at t=1500 -> 500 ns, in SLO.
  rec.on_issue(0, 1'000);
  rec.on_complete(0, 1'500);
  // Op 1: scheduled at t=2000 but the generator ran late and the system
  // finished it at t=5000 -> 3000 ns charged, SLO miss. A
  // send-time-based recorder would have hidden this.
  rec.on_issue(1, 2'000);
  rec.on_complete(1, 5'000);
  // Op 2: clock skew / immediate completion — clamps to 0, never
  // negative.
  rec.on_issue(2, 7'000);
  rec.on_complete(2, 6'999);
  const TrafficStats s = rec.stats();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.slo_ok, 2);
  EXPECT_DOUBLE_EQ(s.max_us, 3.0);
  EXPECT_DOUBLE_EQ(s.slo_attainment, 2.0 / 3.0);
}

// Completions tallied from several threads surface in record_threads,
// and the totals stay exact — the multi-worker HDR tally path under
// TSan.
TEST(TailRecorder, ConcurrentCompletionsAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 10'000;
  TailRecorder rec(kThreads * kPerThread, /*slo_ns=*/0,
                   /*exact_cap=*/1'024);  // forces HDR mode
  ASSERT_FALSE(rec.exact_mode());
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, t] {
      std::mt19937_64 rng(300 + t);
      std::uniform_int_distribution<std::int64_t> dist(100, 1 << 20);
      for (std::size_t i = 0; i < kPerThread; ++i) rec.record(dist(rng));
    });
  }
  for (auto& w : workers) w.join();
  const TrafficStats s = rec.stats();
  EXPECT_EQ(s.count, kThreads * static_cast<std::int64_t>(kPerThread));
  EXPECT_EQ(s.record_threads, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(s.slo_ok, s.count);  // no SLO configured: vacuously met
  EXPECT_DOUBLE_EQ(s.slo_attainment, 1.0);
}

// Two live recording threads are two threads, however their thread
// serials relate: a second thread whose serial is 64 past the first's
// (63 threads recorded elsewhere in between) must not fold onto the
// first thread's tally.
TEST(TailRecorder, RecordThreadsCountsEveryLiveThread) {
  TailRecorder rec(/*max_ops=*/16, /*slo_ns=*/0, /*exact_cap=*/0);
  std::atomic<bool> a_recorded{false};
  std::atomic<bool> release_a{false};
  std::thread a([&] {
    rec.record(1'000);
    a_recorded.store(true, std::memory_order_release);
    while (!release_a.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!a_recorded.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  TailRecorder other(/*max_ops=*/16, /*slo_ns=*/0, /*exact_cap=*/0);
  for (int i = 0; i < 63; ++i) {
    std::thread([&other] { other.record(1); }).join();
  }
  std::thread([&rec] { rec.record(2'000); }).join();
  const TrafficStats s = rec.stats();
  release_a.store(true, std::memory_order_release);
  a.join();
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.record_threads, 2u);
  EXPECT_EQ(other.stats().record_threads, 63u);
}

// ---------------------------------------------------------------------
// TailRecorder: K recording threads report what one thread would.

void expect_same_stats(const TrafficStats& got, const TrafficStats& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.mean_us, want.mean_us);
  EXPECT_DOUBLE_EQ(got.p50_us, want.p50_us);
  EXPECT_DOUBLE_EQ(got.p95_us, want.p95_us);
  EXPECT_DOUBLE_EQ(got.p99_us, want.p99_us);
  EXPECT_DOUBLE_EQ(got.p999_us, want.p999_us);
  EXPECT_DOUBLE_EQ(got.p9999_us, want.p9999_us);
  EXPECT_DOUBLE_EQ(got.max_us, want.max_us);
  EXPECT_EQ(got.slo_ns, want.slo_ns);
  EXPECT_EQ(got.slo_ok, want.slo_ok);
  EXPECT_DOUBLE_EQ(got.slo_attainment, want.slo_attainment);
  EXPECT_EQ(got.hdr_overflow, want.hdr_overflow);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(got.phases, want.phases);
  EXPECT_EQ(got.high_count, want.high_count);
  EXPECT_EQ(got.high_slo_ok, want.high_slo_ok);
  EXPECT_DOUBLE_EQ(got.high_attainment, want.high_attainment);
  EXPECT_EQ(got.low_count, want.low_count);
  EXPECT_EQ(got.low_slo_ok, want.low_slo_ok);
  EXPECT_DOUBLE_EQ(got.low_attainment, want.low_attainment);
}

/// One op stream: op i is scheduled at sched[i], completes at done[i],
/// and belongs to the high phase when high[i].
struct OpStream {
  std::vector<std::int64_t> sched, done;
  std::vector<bool> high;
};

OpStream make_stream(std::size_t ops, std::uint64_t seed) {
  OpStream s;
  std::mt19937_64 rng(seed);
  // 2^6 ns .. 2^44 ns: past the HDR default range (2^42) at the top.
  std::uniform_real_distribution<double> log_u(6.0, 44.0);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::int64_t sched = 1'000 + static_cast<std::int64_t>(i) * 10;
    s.sched.push_back(sched);
    const auto latency = static_cast<std::int64_t>(std::exp2(log_u(rng)));
    s.done.push_back(sched + latency);
    s.high.push_back(rng() % 3 == 0);
  }
  return s;
}

/// Issues the whole stream on the calling thread, then completes op i
/// on thread i % threads (threads == 1: the calling thread itself).
TrafficStats run_stream(const OpStream& stream, std::size_t exact_cap,
                        int threads) {
  const std::size_t ops = stream.sched.size();
  TailRecorder rec(ops, /*slo_ns=*/1'000'000, exact_cap);
  rec.enable_phases();
  for (std::size_t i = 0; i < ops; ++i) {
    rec.on_issue(static_cast<OpId>(i), stream.sched[i], stream.high[i]);
  }
  const auto complete_slice = [&](int t) {
    for (std::size_t i = static_cast<std::size_t>(t); i < ops;
         i += static_cast<std::size_t>(threads)) {
      rec.on_complete(static_cast<OpId>(i), stream.done[i]);
    }
  };
  if (threads == 1) {
    complete_slice(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) workers.emplace_back(complete_slice, t);
    for (auto& w : workers) w.join();
  }
  return rec.stats();
}

// Disjoint slices of one stream recorded by K threads report every
// field exactly as one thread recording the whole stream: the shards'
// merge loses nothing, in either storage mode, with an SLO, the phase
// split and HDR overflow all in play.
TEST(TailRecorder, ShardedRecordingMatchesOneThread) {
  constexpr std::size_t kOps = 6'000;
  const OpStream stream = make_stream(kOps, 77);
  for (const std::size_t exact_cap : {kOps, std::size_t{0}}) {
    const TrafficStats want = run_stream(stream, exact_cap, 1);
    ASSERT_EQ(want.count, static_cast<std::int64_t>(kOps));
    ASSERT_EQ(want.record_threads, 1u);
    ASSERT_TRUE(want.phases);
    ASSERT_GT(want.high_count, 0);
    ASSERT_GT(want.slo_ok, 0);
    ASSERT_LT(want.slo_ok, want.count);
    if (!want.exact) {
      ASSERT_GT(want.hdr_overflow, 0);
    }
    for (const int threads : {2, 3, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "exact_cap=" << exact_cap << " threads=" << threads);
      const TrafficStats got = run_stream(stream, exact_cap, threads);
      expect_same_stats(got, want);
      EXPECT_EQ(got.record_threads, static_cast<std::size_t>(threads));
    }
  }
}

// One thread alternating between two recorders misses its one-entry
// shard cache on every switch; it must find its own shard again each
// time, not register a new one, and each recorder reports its own
// stream exactly.
TEST(TailRecorder, ThreadAlternatingBetweenRecordersKeepsOneShardEach) {
  constexpr std::size_t kOps = 2'000;
  const OpStream sa = make_stream(kOps, 5);
  const OpStream sb = make_stream(kOps, 6);
  for (const std::size_t exact_cap : {kOps, std::size_t{0}}) {
    const TrafficStats want_a = run_stream(sa, exact_cap, 1);
    const TrafficStats want_b = run_stream(sb, exact_cap, 1);
    TailRecorder a(kOps, 1'000'000, exact_cap);
    TailRecorder b(kOps, 1'000'000, exact_cap);
    a.enable_phases();
    b.enable_phases();
    std::thread([&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        const auto op = static_cast<OpId>(i);
        a.on_issue(op, sa.sched[i], sa.high[i]);
        b.on_issue(op, sb.sched[i], sb.high[i]);
        a.on_complete(op, sa.done[i]);
        b.on_complete(op, sb.done[i]);
      }
    }).join();
    SCOPED_TRACE(testing::Message() << "exact_cap=" << exact_cap);
    const TrafficStats got_a = a.stats();
    const TrafficStats got_b = b.stats();
    expect_same_stats(got_a, want_a);
    expect_same_stats(got_b, want_b);
    EXPECT_EQ(got_a.record_threads, 1u);
    EXPECT_EQ(got_b.record_threads, 1u);
  }
}

// A recorder re-created in the same storage is a new recorder to every
// thread's shard cache: its recordings land in shards it registered,
// never through a pointer cached for the recorder that lived there
// before (even when the allocator hands the new shard the old address,
// the thread must claim it, or a second thread would claim it too).
TEST(TailRecorder, RecorderRecreatedInSameStorageStartsFresh) {
  std::optional<TailRecorder> rec;
  rec.emplace(/*max_ops=*/64, /*slo_ns=*/0, /*exact_cap=*/0);
  const TailRecorder* first = &*rec;
  for (int i = 0; i < 10; ++i) rec->record(1'000);
  EXPECT_EQ(rec->stats().count, 10);
  rec.emplace(/*max_ops=*/64, /*slo_ns=*/0, /*exact_cap=*/0);
  ASSERT_EQ(&*rec, first);
  for (int i = 0; i < 3; ++i) rec->record(2'000);
  std::thread([&rec] { rec->record(3'000); }).join();
  const TrafficStats s = rec->stats();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.record_threads, 2u);
  EXPECT_DOUBLE_EQ(s.max_us, 3.0);
}

// ---------------------------------------------------------------------
// RateShape / ArrivalTimeline determinism.

// The constant timeline is a closed form: arrival i at exactly
// i * 1e9/rate, twice over, no drift.
TEST(ArrivalTimeline, ConstantIsClosedFormAndDeterministic) {
  const RateShape shape = make_shape("constant", 1e6, 1.0, 0.5, 0.5);
  ArrivalTimeline a(shape), b(shape);
  for (std::int64_t i = 0; i < 10'000; ++i) {
    const std::int64_t got = a.next_ns();
    EXPECT_EQ(got, i * 1'000);  // 1e9 / 1e6 = 1000 ns apart
    EXPECT_EQ(b.next_ns(), got);
  }
}

// Modulated timelines start at 0 and are strictly increasing — a
// timeline that stalls or goes backwards would wedge the generator.
TEST(ArrivalTimeline, ModulatedShapesStrictlyIncrease) {
  for (const char* kind : {"burst", "diurnal"}) {
    RateShape shape = make_shape(kind, 100'000, 0.01, 1.0, 0.25);
    ArrivalTimeline timeline(shape);
    std::int64_t prev = timeline.next_ns();
    EXPECT_EQ(prev, 0) << kind;
    for (int i = 0; i < 20'000; ++i) {
      const std::int64_t t = timeline.next_ns();
      EXPECT_GT(t, prev) << kind << " at i=" << i;
      prev = t;
    }
  }
}

// Burst and diurnal modulation preserve the requested mean rate: over
// whole periods, the arrival count stays within a few percent of
// rate * duration (the rate floor at amplitude=1 adds a hair).
TEST(ArrivalTimeline, ModulatedShapesPreserveMeanRate) {
  const double rate = 200'000;
  const double duration_s = 0.1;  // 10 periods of 0.01 s
  const auto expect = static_cast<double>(rate * duration_s);
  for (const char* kind : {"burst", "diurnal"}) {
    const RateShape shape = make_shape(kind, rate, 0.01, 0.8, 0.5);
    const std::size_t n = count_arrivals(shape, duration_s, 1 << 22);
    EXPECT_NEAR(static_cast<double>(n), expect, expect * 0.05) << kind;
  }
}

// count_arrivals is the sizing function for duration-bounded runs: it
// must agree exactly with walking the timeline, and respect the cap.
TEST(ArrivalTimeline, CountArrivalsMatchesTimelineWalk) {
  const RateShape shape = make_shape("burst", 50'000, 0.02, 0.9, 0.3);
  const double duration_s = 0.05;
  const std::size_t n = count_arrivals(shape, duration_s, 1 << 20);
  ArrivalTimeline timeline(shape);
  std::size_t walked = 0;
  while (timeline.next_ns() < static_cast<std::int64_t>(duration_s * 1e9)) {
    ++walked;
  }
  EXPECT_EQ(n, walked);
  EXPECT_EQ(count_arrivals(shape, duration_s, 100), 100u);  // cap binds
}

// The burst high phase really is high: with duty 0.25 and amplitude 1,
// the first quarter-period runs at 4x the mean, so the arrival count in
// [0, duty*T) exceeds duty * (rate*T) by ~4x.
TEST(ArrivalTimeline, BurstConcentratesArrivalsInHighPhase) {
  const double rate = 100'000, period = 0.01, duty = 0.25;
  const RateShape shape = make_shape("burst", rate, period, 1.0, duty);
  const std::size_t in_high =
      count_arrivals(shape, period * duty, 1 << 20);  // first high phase
  const double uniform_share = rate * period * duty;  // what constant gives
  EXPECT_GT(static_cast<double>(in_high), 3.0 * uniform_share);
}

}  // namespace
}  // namespace dcnt::traffic
