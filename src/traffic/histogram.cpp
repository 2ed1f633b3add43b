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

void atomic_store_min(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_store_max(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
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

LogHistogram::LogHistogram(const LogHistogram& other)
    : max_value_(other.max_value_),
      top_index_(other.top_index_),
      buckets_(other.buckets_.size()) {
  *this = other;
}

LogHistogram& LogHistogram::operator=(const LogHistogram& other) {
  if (this == &other) return *this;
  DCNT_CHECK(max_value_ == other.max_value_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  overflow_.store(other.overflow_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  min_.store(other.min_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  max_.store(other.max_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  return *this;
}

void LogHistogram::record(std::int64_t value, std::int64_t count) {
  DCNT_CHECK(count > 0);
  const std::int64_t v = std::max<std::int64_t>(value, 0);
  std::size_t idx;
  if (v > max_value_) {
    idx = top_index_;
    overflow_.fetch_add(count, std::memory_order_relaxed);
  } else {
    idx = bucket_index(v);
  }
  buckets_[idx].fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(v * count, std::memory_order_relaxed);
  atomic_store_min(min_, v);
  atomic_store_max(max_, v);
}

void LogHistogram::merge(const LogHistogram& other) {
  DCNT_CHECK_MSG(max_value_ == other.max_value_,
                 "merging LogHistograms with different ranges");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::int64_t c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  overflow_.fetch_add(other.overflow_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  atomic_store_min(min_, other.min_.load(std::memory_order_relaxed));
  atomic_store_max(max_, other.max_.load(std::memory_order_relaxed));
}

std::int64_t LogHistogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::int64_t LogHistogram::max() const {
  return count() == 0 ? -1 : max_.load(std::memory_order_relaxed);
}

double LogHistogram::mean() const {
  const std::int64_t c = count();
  if (c == 0) return 0.0;
  return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
         static_cast<double>(c);
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
    cum += buckets_[i].load(std::memory_order_relaxed);
    if (cum >= rank) break;
  }
  // A bucket's midpoint may lie past the values it holds: clamp it to
  // the exact extremes, so no percentile reads above max or below min.
  return std::max(std::min(bucket_mid(std::min(i, top_index_)), max()),
                  min());
}

}  // namespace dcnt::traffic
