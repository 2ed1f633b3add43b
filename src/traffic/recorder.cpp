#include "traffic/recorder.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/check.hpp"

namespace dcnt::traffic {

namespace {

/// Process-wide serials, starting at 1 so 0 can mean "none". Neither is
/// ever reused: std::thread::id is recycled by the OS, and a recorder's
/// address by the allocator.
std::atomic<std::uint64_t> g_next_recorder{1};

std::uint64_t this_thread_serial() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t serial =
      next.fetch_add(1, std::memory_order_relaxed);
  return serial;
}

}  // namespace

TailRecorder::Shard::Shard(bool hdr) {
  if (hdr) hist.emplace();
}

TailRecorder::TailRecorder(std::size_t max_ops, std::int64_t slo_ns,
                           std::size_t exact_cap)
    : issue_ns_(max_ops),
      exact_(max_ops <= exact_cap),
      slo_ns_(slo_ns),
      serial_(g_next_recorder.fetch_add(1, std::memory_order_relaxed)) {
  if (exact_) latency_ns_.assign(max_ops, -1);
  shards_.push_back(std::make_unique<Shard>(!exact_));
}

std::int64_t TailRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TailRecorder::enable_phases() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      DCNT_CHECK_MSG(shard->recorded == 0,
                     "enable_phases must precede recording");
    }
  }
  phase_.assign(issue_ns_.size(), 0);
}

TailRecorder::Shard& TailRecorder::local_shard() {
  struct Cache {
    std::uint64_t recorder{0};
    Shard* shard{nullptr};
  };
  thread_local Cache cache;
  if (cache.recorder != serial_) cache = {serial_, &claim()};
  return *cache.shard;
}

TailRecorder::Shard& TailRecorder::claim() {
  const std::uint64_t me = this_thread_serial();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    if (shard->owner == me) return *shard;  // cache held another recorder
  }
  if (shards_.front()->owner == 0) {
    shards_.front()->owner = me;
    return *shards_.front();
  }
  shards_.push_back(std::make_unique<Shard>(!exact_));
  shards_.back()->owner = me;
  return *shards_.back();
}

void TailRecorder::on_issue(OpId op, std::int64_t scheduled_ns) {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) < issue_ns_.size());
  DCNT_CHECK(scheduled_ns != 0);  // 0 is the "not yet stored" sentinel
  issue_ns_[static_cast<std::size_t>(op)].store(scheduled_ns,
                                                std::memory_order_release);
}

void TailRecorder::on_issue(OpId op, std::int64_t scheduled_ns,
                            bool high_phase) {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) < issue_ns_.size());
  DCNT_CHECK(!phase_.empty());
  // The phase byte must be visible to whoever observes the issue stamp:
  // plain store here, then the release-store below publishes it.
  phase_[static_cast<std::size_t>(op)] = high_phase ? 1 : 0;
  on_issue(op, scheduled_ns);
}

void TailRecorder::on_complete(OpId op, std::int64_t t_ns) {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) < issue_ns_.size());
  // The issuer stamps the scheduled time and stores right after begin_*
  // returns; if the op completed in between, spin out the tiny window.
  std::int64_t scheduled;
  while ((scheduled = issue_ns_[static_cast<std::size_t>(op)].load(
              std::memory_order_acquire)) == 0) {
    std::this_thread::yield();
  }
  const std::int64_t latency = std::max<std::int64_t>(t_ns - scheduled, 0);
  Shard& shard = local_shard();
  if (exact_) {
    latency_ns_[static_cast<std::size_t>(op)] = latency;
  } else {
    shard.hist->record(latency);
  }
  if (!phase_.empty()) {
    const std::size_t ph = phase_[static_cast<std::size_t>(op)] ? 1 : 0;
    ++shard.phase_count[ph];
    if (slo_ns_ <= 0 || latency <= slo_ns_) ++shard.phase_ok[ph];
  }
  tally(shard, latency);
}

void TailRecorder::record(std::int64_t latency_ns) {
  Shard& shard = local_shard();
  if (exact_) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    DCNT_CHECK_MSG(i < latency_ns_.size(), "exact recorder overflow");
    latency_ns_[i] = std::max<std::int64_t>(latency_ns, 0);
  } else {
    shard.hist->record(std::max<std::int64_t>(latency_ns, 0));
  }
  tally(shard, latency_ns);
}

void TailRecorder::tally(Shard& shard, std::int64_t latency_ns) {
  ++shard.recorded;
  if (slo_ns_ <= 0 || latency_ns <= slo_ns_) ++shard.slo_ok;
}

TrafficStats TailRecorder::stats() const {
  TrafficStats out;
  out.slo_ns = slo_ns_;
  out.exact = exact_;
  out.phases = phases_enabled();
  // HDR mode: the one recording shard's histogram is read in place; a
  // second one starts a merged copy.
  const LogHistogram* hist = nullptr;
  std::optional<LogHistogram> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      if (shard->recorded == 0) continue;
      ++out.record_threads;
      out.count += shard->recorded;
      out.slo_ok += shard->slo_ok;
      out.low_count += shard->phase_count[0];
      out.low_slo_ok += shard->phase_ok[0];
      out.high_count += shard->phase_count[1];
      out.high_slo_ok += shard->phase_ok[1];
      if (exact_) continue;
      if (hist == nullptr) {
        hist = &*shard->hist;
      } else {
        if (!merged) hist = &merged.emplace(*hist);
        merged->merge(*shard->hist);
      }
    }
  }
  if (out.low_count > 0) {
    out.low_attainment = static_cast<double>(out.low_slo_ok) /
                         static_cast<double>(out.low_count);
  }
  if (out.high_count > 0) {
    out.high_attainment = static_cast<double>(out.high_slo_ok) /
                          static_cast<double>(out.high_count);
  }
  if (out.count == 0) return out;
  out.slo_attainment =
      static_cast<double>(out.slo_ok) / static_cast<double>(out.count);
  if (exact_) {
    // Every writer clamps to >= 0, so -1 is unambiguously "never
    // completed" and skipping it cannot drop a real sample.
    Summary s;
    for (const std::int64_t l : latency_ns_) {
      if (l >= 0) s.add(l);
    }
    out.mean_us = s.mean() / 1e3;
    out.p50_us = static_cast<double>(s.percentile(50)) / 1e3;
    out.p95_us = static_cast<double>(s.percentile(95)) / 1e3;
    out.p99_us = static_cast<double>(s.percentile(99)) / 1e3;
    out.p999_us = static_cast<double>(s.percentile(99.9)) / 1e3;
    out.p9999_us = static_cast<double>(s.percentile(99.99)) / 1e3;
    out.max_us = static_cast<double>(s.max()) / 1e3;
  } else {
    out.mean_us = hist->mean() / 1e3;
    out.p50_us = static_cast<double>(hist->percentile(50)) / 1e3;
    out.p95_us = static_cast<double>(hist->percentile(95)) / 1e3;
    out.p99_us = static_cast<double>(hist->percentile(99)) / 1e3;
    out.p999_us = static_cast<double>(hist->percentile(99.9)) / 1e3;
    out.p9999_us = static_cast<double>(hist->percentile(99.99)) / 1e3;
    out.max_us = static_cast<double>(hist->max()) / 1e3;
    out.hdr_overflow = hist->overflow();
  }
  return out;
}

}  // namespace dcnt::traffic
