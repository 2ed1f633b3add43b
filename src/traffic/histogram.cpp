#include "traffic/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace dcnt::traffic {

namespace {

int bit_width_i64(std::int64_t v) {
  // v > 0 guaranteed by the callers.
  return 64 - __builtin_clzll(static_cast<unsigned long long>(v));
}

}  // namespace

std::size_t LogHistogram::bucket_index(std::int64_t value) {
  if (value < kSubCount) return static_cast<std::size_t>(value);
  // value in [2^(p-1), 2^p): keep the leading kSubBits+1 bits, so each
  // octave splits into kSubCount buckets of width 2^(p-1-kSubBits).
  const int p = bit_width_i64(value);
  const int shift = p - (kSubBits + 1);
  const std::int64_t top = value >> shift;  // in [kSubCount, 2*kSubCount)
  return static_cast<std::size_t>(kSubCount * (p - kSubBits) +
                                  (top - kSubCount));
}

std::int64_t LogHistogram::bucket_low(std::size_t index) {
  if (index < static_cast<std::size_t>(kSubCount)) {
    return static_cast<std::int64_t>(index);
  }
  const std::int64_t g = static_cast<std::int64_t>(index) >> kSubBits;  // >= 1
  const std::int64_t r = static_cast<std::int64_t>(index) & (kSubCount - 1);
  return (kSubCount + r) << (g - 1);
}

std::int64_t LogHistogram::bucket_high(std::size_t index) {
  if (index < static_cast<std::size_t>(kSubCount)) {
    return static_cast<std::int64_t>(index);
  }
  const std::int64_t g = static_cast<std::int64_t>(index) >> kSubBits;
  return bucket_low(index) + ((std::int64_t{1} << (g - 1)) - 1);
}

std::int64_t LogHistogram::bucket_mid(std::size_t index) {
  if (index < static_cast<std::size_t>(kSubCount)) {
    return static_cast<std::int64_t>(index);
  }
  const std::int64_t g = static_cast<std::int64_t>(index) >> kSubBits;
  const std::int64_t half = (std::int64_t{1} << (g - 1)) / 2;
  return bucket_low(index) + half;
}

LogHistogram::LogHistogram(std::int64_t max_value)
    : max_value_(max_value),
      top_index_(bucket_index(max_value)),
      buckets_(top_index_ + 1) {
  DCNT_CHECK_MSG(max_value >= kSubCount, "LogHistogram range is too small");
}

void LogHistogram::record(std::int64_t value, std::int64_t count) {
  DCNT_CHECK(count > 0);
  const std::int64_t v = std::max<std::int64_t>(value, 0);
  std::size_t idx;
  if (v > max_value_) {
    idx = top_index_;
    overflow_ += count;
  } else {
    idx = bucket_index(v);
  }
  buckets_[idx] += count;
  count_ += count;
  sum_ += static_cast<std::uint64_t>(v) * static_cast<std::uint64_t>(count);
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void LogHistogram::merge(const LogHistogram& other) {
  DCNT_CHECK_MSG(max_value_ == other.max_value_,
                 "merging LogHistograms with different ranges");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  overflow_ += other.overflow_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::int64_t LogHistogram::min() const {
  return count_ == 0 ? 0 : min_;
}

std::int64_t LogHistogram::max() const {
  return count_ == 0 ? -1 : max_;
}

double LogHistogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(static_cast<std::int64_t>(sum_)) /
         static_cast<double>(count_);
}

std::int64_t LogHistogram::percentile(double q) const {
  const std::int64_t total = count();
  if (total == 0) return 0;
  const double clamped = std::min(std::max(q, 0.0), 100.0);
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(clamped / 100.0 *
                                             static_cast<double>(total))));
  std::size_t i = 0;
  for (std::int64_t cum = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum >= rank) break;
  }
  // A bucket's midpoint may lie past the values it holds: clamp it to
  // the exact extremes, so no percentile reads above max or below min.
  return std::max(std::min(bucket_mid(std::min(i, top_index_)), max()),
                  min());
}

}  // namespace dcnt::traffic
