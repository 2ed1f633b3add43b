// The schema every wall-clock harness shares: the load options a bench
// sets (LoadOptions) and the row it gets back (HarnessResult).
//
// run_throughput (threaded runtime) and run_cluster (socket cluster)
// take the same LoadOptions, keyspace included, so one value describes
// a workload on either substrate; run_shm_throughput (shared memory)
// keeps its own smaller option set. All three report a
// HarnessResult-derived struct, filled by the same helpers: fill_traffic
// copies the TailRecorder's stats, verify_values checks the counter's
// observable contract (a global or per-key permutation) and picks the
// hot key, and fill_linearizability runs the checker over a captured
// history. The paper's currency — total messages, max_p m_p and its
// bottleneck processor — sits in the same fields whichever substrate
// ran the incs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/history.hpp"
#include "sim/types.hpp"
#include "traffic/driver.hpp"

namespace dcnt {

/// Load options shared by ThroughputOptions and ClusterOptions, in the
/// bench-flag vocabulary (the window, warmup, duration, exact_cap and
/// settling come from traffic::LoadPolicy).
struct LoadOptions : traffic::LoadPolicy {
  /// Measured operations; 0 = 8 * num_processors. With duration_s set
  /// this is a cap rather than a target.
  std::size_t ops{0};
  /// "roundrobin", "uniform", or "zipf" (harness/schedule.hpp), with
  /// skew zipf_s (processor 0 hottest).
  std::string initiators{"roundrobin"};
  double zipf_s{0.9};
  std::uint64_t seed{1};
  /// > 0: open-loop issuance at this mean rate (ops/sec), shaped
  /// "constant", "burst" or "diurnal" (traffic/shape.hpp).
  double open_rate{0.0};
  std::string shape{"constant"};
  double period_s{1.0};
  double amplitude{0.5};
  double duty{0.5};
  /// > 0: SLO threshold in microseconds; results report attainment.
  double slo_us{0.0};
  /// Capture the measured history and run check_linearizable on it.
  /// Keyed runs skip it (per-key value spaces make a global counter
  /// history meaningless).
  bool lin_check{true};

  /// > 0: multi-key mode. The protocol runs inside a
  /// service/MultiCounter fabric (routing seed = seed) and each op
  /// addresses one of this many keys; the per-key contract (each key's
  /// values a permutation of 0..ops_k-1) replaces the global one.
  std::size_t keys{0};
  /// Key distribution: "roundrobin", "uniform" or "zipf" (key 0
  /// hottest) with skew key_skew, salted independently of the
  /// initiator stream.
  std::string key_dist{"zipf"};
  double key_skew{0.99};
  /// LRU cap on live per-key instances (per node in a cluster); 0 =
  /// unbounded. Requires a service-evictable counter.
  std::size_t key_capacity{0};

  /// The driver's view: resolved shape, SLO in ns, no history.
  traffic::DriverOptions driver_options() const;
};

struct HarnessResult {
  std::string counter;
  std::size_t n{0};
  /// Measured ops issued and completed (< the requested count when
  /// duration_s cut the schedule short).
  std::size_t ops{0};
  std::size_t warmup{0};
  /// The returned values (warmup ops included) satisfy the counter's
  /// contract — see verify_values (also DCNT_CHECKed).
  bool values_ok{false};

  double wall_seconds{0.0};
  double ops_per_sec{0.0};
  double mean_us{0.0};
  double p50_us{0.0};
  double p95_us{0.0};
  double p99_us{0.0};
  double p999_us{0.0};
  double p9999_us{0.0};
  double max_us{0.0};
  /// SLO attainment: slo_ok of slo_den measured ops at or under slo_us.
  double slo_us{0.0};
  std::int64_t slo_den{0};
  std::int64_t slo_ok{0};
  double slo_attainment{0.0};
  /// True when latency came from the O(buckets) HDR histogram rather
  /// than exact per-op storage; hdr_overflow counts saturated samples.
  bool hdr_recorder{false};
  std::int64_t hdr_overflow{0};
  /// Distinct threads that completed measured ops.
  std::size_t record_threads{0};
  /// Linearizability over the measured history (lin_check). A
  /// serializing counter must report 0 violations at any inflight
  /// depth; a quiescently-consistent one (diffracting tree, counting
  /// network) may not.
  bool lin_checked{false};
  bool linearizable{false};
  std::int64_t lin_violations{0};
  /// Phase-split SLO attainment (open-loop burst runs only).
  bool slo_phases{false};
  std::int64_t slo_high_den{0};
  std::int64_t slo_high_ok{0};
  double slo_high_attainment{0.0};
  std::int64_t slo_low_den{0};
  std::int64_t slo_low_ok{0};
  double slo_low_attainment{0.0};

  /// Protocol-level message accounting over the measured phase — the
  /// same m_p the simulator reports.
  std::int64_t total_messages{0};
  std::int64_t max_load{0};
  ProcessorId bottleneck{kNoProcessor};

  // Multi-key runs (zero otherwise):
  std::size_t keys{0};
  /// Key with the most measured ops (ties to the smallest id) and its
  /// max_p m_p — the paper's bottleneck measured per key.
  KeyId hot_key{kNoKey};
  std::int64_t hot_key_ops{0};
  std::int64_t hot_key_max_load{0};
  std::int64_t hot_key_messages{0};
  /// Keys that moved at least one measured message.
  std::size_t keys_touched{0};
  /// LRU tier counters (summed across nodes); live_instances is
  /// in-process only.
  std::int64_t lru_hits{0};
  std::int64_t lru_misses{0};
  std::int64_t lru_evicts{0};
  std::int64_t lru_rehydrates{0};
  std::size_t live_instances{0};
};

/// Latency, SLO and recorder fields from TailRecorder stats.
void fill_traffic(HarnessResult& out, const traffic::TrafficStats& t);

/// fill_traffic plus the driver's op count and wall clock.
void fill_run(HarnessResult& out, const traffic::DriverResult& run);

/// Verifies values[op] for every op the run issued (warmup first) and
/// sets out.values_ok, aborting on a violation so a completed run is a
/// correctness check: a permutation of first..first+size-1, or per key
/// (key_of_op[op]) of first..first+ops_k-1. Keyed runs also get
/// out.hot_key / hot_key_ops over the measured ops (op >= out.warmup).
void verify_values(HarnessResult& out, const std::vector<Value>& values,
                   const std::vector<KeyId>& key_of_op = {},
                   Value first = 0);

/// Records a linearizability verdict over the run's measured history.
void fill_linearizability(HarnessResult& out,
                          const LinearizabilityReport& report);

}  // namespace dcnt
