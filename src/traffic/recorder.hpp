// TailRecorder: the latency recorder of the traffic engine
// (DESIGN.md §14), owned by the load driver (traffic/driver.hpp) and
// the shm harness.
//
// Two storage modes, chosen once at construction from the run size:
//   - exact (small runs): one latency slot per op; stats() computes
//     nearest-rank percentiles over the raw samples, byte-for-byte what
//     the old LatencyRecorder reported. The reference the HDR mode is
//     tested against.
//   - hdr (large runs): a LogHistogram — O(buckets) storage however
//     many ops run, ~1% relative error on every percentile, mergeable
//     across workers and nodes. 10^6–10^7-op open-loop runs use this.
//
// Timestamps: on_issue stores the op's *scheduled* time (open loop: the
// arrival timeline's epoch + offset; closed loop: the moment the client
// wanted the op — its predecessor's response stamp for a reissue, the
// send time for a window fill). on_complete measures against that stamp,
// so an open-loop run charges a backlogged system for every nanosecond
// between when the op should have arrived and when it finished —
// coordinated omission, by construction, cannot hide.
//
// SLO attainment: the threshold comparison happens on the raw latency
// before any bucketing, so slo_ok / count is exact in both modes. The
// denominator is every completed op (scheduled arrivals that never
// completed would be caught by the harness' permutation check aborting,
// not silently dropped from the fraction).
//
// Per-thread shards: each recording thread tallies into its own Shard
// (the HDR histogram, the completion and SLO counts, the phase split),
// written by that thread alone with plain arithmetic, so a completion
// makes no read-modify-write on memory another thread writes. A thread
// finds its shard through a one-entry thread_local cache keyed by the
// recorder's process-wide serial; on a miss it registers under a mutex
// (the first thread claims the shard built at construction, later ones
// append). stats() merges the shards and reports how many threads
// recorded. It reads them without synchronisation of its own: call it
// after the run's join or quiescence has ordered every recording
// before it, as with Metrics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "sim/types.hpp"
#include "support/stats.hpp"
#include "traffic/histogram.hpp"

namespace dcnt::traffic {

/// Everything a bench row reports about a run's latency tail. All
/// latencies in microseconds (the tables' unit).
struct TrafficStats {
  std::int64_t count{0};
  double mean_us{0.0};
  double p50_us{0.0};
  double p95_us{0.0};
  double p99_us{0.0};
  double p999_us{0.0};
  double p9999_us{0.0};
  double max_us{0.0};
  /// SLO threshold in ns (0 = no SLO configured: slo_ok == count and
  /// attainment == 1 vacuously).
  std::int64_t slo_ns{0};
  std::int64_t slo_ok{0};
  /// slo_ok / count; 0 when count == 0.
  double slo_attainment{0.0};
  /// HDR mode: recordings that saturated the top bucket (0 in exact
  /// mode; max_us stays exact either way).
  std::int64_t hdr_overflow{0};
  /// Distinct threads that recorded completions.
  std::size_t record_threads{0};
  /// True when the run used exact per-op storage.
  bool exact{true};
  /// Phase-split SLO accounting — populated only when the recorder ran
  /// with enable_phases() (open-loop burst runs). Each completed op is
  /// charged to the phase of its *scheduled* arrival (RateShape::
  /// high_at), so a backlog spilling out of the high window still
  /// counts against the burst that caused it.
  bool phases{false};
  std::int64_t high_count{0};
  std::int64_t high_slo_ok{0};
  double high_attainment{0.0};
  std::int64_t low_count{0};
  std::int64_t low_slo_ok{0};
  double low_attainment{0.0};
};

class TailRecorder {
 public:
  /// Runs at or below this many op slots record exactly; larger runs
  /// switch to the HDR histogram. 2^16 slots of exact storage is ~1 MB
  /// transient at percentile time — past that, tails come from buckets.
  static constexpr std::size_t kDefaultExactCap = std::size_t{1} << 16;

  explicit TailRecorder(std::size_t max_ops, std::int64_t slo_ns = 0,
                        std::size_t exact_cap = kDefaultExactCap);

  /// steady_clock, nanoseconds since an arbitrary epoch.
  static std::int64_t now_ns();

  bool exact_mode() const { return exact_; }
  std::int64_t slo_ns() const { return slo_ns_; }

  /// Opt into per-phase SLO accounting: allocates one phase byte per op
  /// slot (nothing is spent otherwise) and makes stats() report the
  /// high/low split. Call before the first on_issue, then use the
  /// 3-argument on_issue overload.
  void enable_phases();
  bool phases_enabled() const { return !phase_.empty(); }

  /// Called by the issuer with the op's scheduled time, immediately
  /// after begin_* returned `op`. The slot is atomic because the
  /// completion can race this store (the op may finish on a worker
  /// before the issuer gets back from begin_*).
  void on_issue(OpId op, std::int64_t scheduled_ns);

  /// Phase-aware variant: also tags the op with the load phase of its
  /// scheduled arrival (true = high). The phase byte is written before
  /// the release-store of the schedule stamp, so on_complete's acquire
  /// spin on the stamp orders the read.
  void on_issue(OpId op, std::int64_t scheduled_ns, bool high_phase);

  /// Called from the completion callback; spins out the tiny
  /// issue-store race if needed, then records t_ns - scheduled.
  void on_complete(OpId op, std::int64_t t_ns);

  /// Direct recording of a known latency, for the tests. Instances use
  /// either the on_issue/on_complete op API or record(), never both: in
  /// exact mode record() appends at a cursor that would collide with op
  /// slots.
  void record(std::int64_t latency_ns);

  /// Percentiles, SLO attainment and per-thread accounting over
  /// everything recorded, merged across the shards. Call after the run
  /// (or between phases), once every recording thread has been joined
  /// or the run has quiesced.
  TrafficStats stats() const;

 private:
  /// One recording thread's tallies, written by that thread alone.
  /// alignas: shards of different threads never share a line.
  struct alignas(64) Shard {
    explicit Shard(bool hdr);
    std::uint64_t owner{0};  ///< thread serial, 0 = unclaimed; under mu_
    std::optional<LogHistogram> hist;  ///< HDR mode only
    std::int64_t recorded{0};
    std::int64_t slo_ok{0};
    /// Phase accounting, indexed [low=0, high=1].
    std::array<std::int64_t, 2> phase_count{};
    std::array<std::int64_t, 2> phase_ok{};
  };

  /// The calling thread's shard: the thread_local cache, else claim().
  Shard& local_shard();
  Shard& claim();
  void tally(Shard& shard, std::int64_t latency_ns);

  std::vector<std::atomic<std::int64_t>> issue_ns_;  ///< 0 = not issued
  /// enable_phases() only: scheduled-arrival phase per op (1 = high).
  /// Written before the issue stamp's release-store, read after its
  /// acquire-load, so plain bytes suffice.
  std::vector<std::uint8_t> phase_;
  /// Exact mode: latency slot per op, -1 = not completed. Empty in HDR
  /// mode.
  std::vector<std::int64_t> latency_ns_;
  std::atomic<std::size_t> cursor_{0};  ///< exact-mode record() appends
  const bool exact_;
  std::int64_t slo_ns_;
  /// Process-wide and never reused, so a recorder re-created at a
  /// freed address never matches a stale thread_local cache entry.
  const std::uint64_t serial_;
  /// Guards the shard registry (the vector and each owner), not the
  /// tallies inside the shards. shards_[0] is built with the recorder,
  /// so a one-thread run allocates nothing once recording starts.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dcnt::traffic
