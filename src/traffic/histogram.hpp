// HDR-style log-bucketed latency histogram (the traffic engine's
// recorder storage; DESIGN.md §14).
//
// The exact Summary recorder keeps every sample (two O(ops) vectors by
// percentile time) — fine for the simulator's per-processor load
// reports, hopeless for 10^6–10^7-op open-loop runs where p99.9/p99.99
// are the whole point. LogHistogram is the standard fix: values bucket
// by the leading bit (one octave per power of two) with kSubCount
// linear sub-buckets per octave, so relative bucket width is at most
// 1/kSubCount = 1/128 < 1% everywhere, values below kSubCount are
// recorded exactly, and the whole structure is a fixed ~7 KB-per-octave
// array regardless of how many samples land in it.
//
// Concurrency: single-writer, like Metrics (DESIGN.md §16). record()
// is plain arithmetic on one bucket, the count, the sum and the exact
// min/max; a histogram is written by one thread at a time, and readers
// are ordered after that thread by the run's own join or quiescence.
// Threads that record concurrently each keep their own histogram
// (TailRecorder keeps one per recording thread) and merge them after
// the run: merge is bucket-wise addition, associative and commutative,
// so any fold order yields the same counts and percentiles.
//
// Saturation: values above max_value() land in the top bucket and bump
// overflow() instead of growing the array — a stalled run reports "p99
// at least the top bucket" rather than reallocating under pressure.
// min()/max() track the true extremes exactly (they are single words),
// so saturation is visible: max() > max_value() iff overflow() > 0.
#pragma once

#include <cstdint>
#include <vector>

namespace dcnt::traffic {

class LogHistogram {
 public:
  /// Sub-buckets per octave: 2^7 = 128, so bucket width / bucket value
  /// <= 1/128 < 1% and percentile midpoints are within ~0.4%.
  static constexpr int kSubBits = 7;
  static constexpr std::int64_t kSubCount = std::int64_t{1} << kSubBits;
  /// Default trackable range for nanosecond latencies: 2^42 ns ~ 73
  /// minutes, 4608 buckets, ~36 KB of counters.
  static constexpr std::int64_t kDefaultMaxValue = std::int64_t{1} << 42;

  explicit LogHistogram(std::int64_t max_value = kDefaultMaxValue);

  /// Single writer. Negative values clamp to 0; values above
  /// max_value() saturate into the top bucket and count as overflow.
  /// min/max/mean stay exact (they track the raw value).
  void record(std::int64_t value) { record(value, 1); }
  void record(std::int64_t value, std::int64_t count);

  /// Bucket-wise addition; requires an identical bucket layout (same
  /// max_value). Associative and commutative, so per-worker/per-node
  /// histograms can be combined in any order.
  void merge(const LogHistogram& other);

  std::int64_t count() const { return count_; }
  /// Recordings that exceeded max_value() and saturated the top bucket.
  std::int64_t overflow() const { return overflow_; }
  /// Exact extremes over everything recorded (0 / -1 when empty).
  std::int64_t min() const;
  std::int64_t max() const;
  /// Exact mean (the raw sum is tracked alongside the buckets).
  double mean() const;

  /// Nearest-rank percentile over the buckets, q in [0, 100]: the
  /// midpoint of the bucket holding the rank-ceil(q/100 * count) sample
  /// (exact for values < kSubCount, within half a bucket otherwise),
  /// clamped to [min(), max()]. 0 when empty.
  std::int64_t percentile(double q) const;

  std::int64_t max_value() const { return max_value_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::int64_t bucket_count_at(std::size_t index) const {
    return buckets_[index];
  }

  // Static bucket geometry (value -> index -> [low, high] and the
  // midpoint reported by percentile); exposed for the boundary tests.
  static std::size_t bucket_index(std::int64_t value);
  static std::int64_t bucket_low(std::size_t index);
  static std::int64_t bucket_high(std::size_t index);
  static std::int64_t bucket_mid(std::size_t index);

 private:
  std::int64_t max_value_;
  std::size_t top_index_;  ///< bucket_index(max_value_); saturation target
  std::vector<std::int64_t> buckets_;
  std::int64_t count_{0};
  /// Unsigned so that saturated recordings (up to INT64_MAX each) wrap
  /// instead of overflowing; mean() is meaningless past 2^63 anyway.
  std::uint64_t sum_{0};
  std::int64_t overflow_{0};
  std::int64_t min_{INT64_MAX};
  std::int64_t max_{-1};
};

}  // namespace dcnt::traffic
