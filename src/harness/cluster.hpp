// Multi-process cluster harness: the controller side of the socket
// runtime (src/net/).
//
// run_cluster spawns `nodes` dcnt_node processes on localhost, waits
// for the Hello/Peers/Ready mesh handshake, then plays the same
// closed-/open-loop workload shapes as runtime/workload.hpp against the
// cluster: Start frames out, Complete frames back, latency stamped at
// the controller with the same steady_clock machinery. Afterwards it
// runs the distributed-quiescence barrier (repeated StatsRequest/Stats
// rounds; quiescent when two consecutive rounds show identical per-node
// progress, no unacked envelopes or armed timers anywhere, and — on the
// reliable TCP plane — wire sends equal to wire receives), merges the
// per-processor loads (exact: each processor is owned by one node), and
// verifies the counter's observable contract: the returned values are a
// permutation of 0..ops-1.
//
// The node binary is found via ClusterOptions::node_binary, then the
// DCNT_NODE_BIN environment variable, then next to /proc/self/exe
// (covers running from build/tests, build/bench and build/examples).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/retry.hpp"
#include "sim/types.hpp"
#include "support/stats.hpp"

namespace dcnt::net {

struct ClusterOptions {
  /// Counter kind accepted by harness/factory.hpp; a multi-node cluster
  /// requires it to be shard_safe().
  std::string counter{"tree"};
  std::int64_t min_processors{16};
  std::uint32_t nodes{4};
  /// 0 = 8 * actual processor count (the throughput harness default).
  std::size_t ops{0};
  /// Unmeasured ops issued closed-loop before the measured run. After
  /// they complete and the cluster passes a full quiescence barrier,
  /// the controller broadcasts kMetricsReset (nodes zero their
  /// message-load metrics and re-baseline their wire counters) and only
  /// then starts the measured ops — connection setup, allocator
  /// cold-start and first-touch page faults land outside the numbers.
  std::size_t warmup{0};
  /// "roundrobin" | "uniform" | "zipf" (harness/schedule.hpp).
  std::string initiators{"roundrobin"};
  double zipf_s{0.99};
  std::uint64_t seed{1};
  /// Closed-loop in-flight window; used when open_rate == 0.
  std::size_t concurrency{8};
  /// Pipeline depth: each closed-loop slot keeps this many operations
  /// outstanding, so the effective in-flight window is
  /// concurrency * pipeline (capped at ops). 1 reproduces the classic
  /// one-op-per-slot closed loop. Depth > 1 departs from the paper's
  /// one-op-at-a-time client model — values are still verified as a
  /// permutation and the quiescence barrier still runs at phase
  /// boundaries, but per-op latency now includes queueing behind the
  /// same slot's earlier ops. quiesce_between_ops forces depth 1.
  std::size_t pipeline{1};
  /// Run the quiescence barrier after every completion before issuing
  /// the next op (forces an effective concurrency of 1). This is the
  /// sequential schedule in the simulator's sense: an op's *entire*
  /// message activity — including trailing maintenance traffic the
  /// protocol emits after completing (e.g. tree retirement) — settles
  /// before the next op starts. For protocols whose per-op traffic is a
  /// single causal chain (central, static-tree) this makes runs
  /// deterministic in (seed, schedule) down to per-processor loads;
  /// protocols that fork concurrent branches within an op (the dynamic
  /// tree's handover handshake racing the inc's reply) stay
  /// deterministic in *values* but may shift a constant number of
  /// forwarding messages between runs, exactly as in the asynchronous
  /// simulator under non-fixed delay models. Completion alone is not
  /// enough even for chains: the next Start would race leftover
  /// maintenance messages across nodes.
  bool quiesce_between_ops{false};
  /// Concurrency-plane alias for `pipeline`: when > 0 it supersedes it
  /// (window = concurrency * inflight), so the TCP benches sweep the
  /// same --inflight knob as the in-process ones. 0 defers to
  /// `pipeline`.
  std::size_t inflight{0};
  /// If > 0: open-loop issuance at this mean rate (ops/second) on a
  /// deterministic arrival timeline; latency is measured from each op's
  /// scheduled arrival (coordinated-omission-free, DESIGN.md §14).
  double open_rate{0.0};
  /// Open-loop rate shape: "constant", "burst" or "diurnal"
  /// (traffic/shape.hpp); period/amplitude/duty parameterize it.
  std::string shape{"constant"};
  double period_s{1.0};
  double amplitude{0.5};
  double duty{0.5};
  /// > 0: measured-phase wall-clock budget in seconds. Open loop stops
  /// issuing arrivals scheduled past the budget; closed loop stops
  /// reissuing once the deadline passes. Either way every issued op
  /// completes and the quiescence barrier still runs. `ops` becomes a
  /// cap rather than a target.
  double duration_s{0.0};
  /// > 0: latency SLO threshold in microseconds; the result reports the
  /// fraction of measured ops at or under it.
  double slo_us{0.0};
  /// Runs with more ops than this record latency into the O(buckets)
  /// HDR histogram instead of exact per-op slots.
  std::size_t exact_cap{1 << 16};
  /// Data plane: false = TCP mesh, true = lossy UDP behind the reliable
  /// transport.
  bool udp{false};
  /// Seeded sender-side datagram loss (UDP mode).
  double drop_probability{0.0};
  /// Wall microseconds per logical tick in the nodes (timer delays).
  std::int64_t tick_us{200};
  RetryParams retry{};
  /// Whole-run wall-clock budget; exceeding it aborts the harness (and
  /// the orphaned nodes exit on losing their controller connection).
  double timeout_seconds{120.0};
  /// Override the dcnt_node binary path (tests, cross-directory runs).
  std::string node_binary;
  /// Frozen: a node is one thread driving one shard inline, so these
  /// accept only the values that describe that layout (loops 1,
  /// shards_per_node 0; run_cluster rejects anything else). They stay
  /// as fields only because perfbench/trial.cpp assigns them.
  std::uint32_t loops{1};
  std::uint32_t shards_per_node{0};
  /// > 0: multi-key mode — every node wraps its counter in a
  /// service/MultiCounter fabric and each op addresses one of this many
  /// keys (StartFrame args = {key}); the per-key contract (each key's
  /// values form a permutation of 0..ops_k-1) replaces the global one.
  std::size_t keys{0};
  /// Key distribution: "roundrobin" | "uniform" | "zipf" (key 0
  /// hottest), salted independently of the initiator stream.
  std::string key_dist{"zipf"};
  double key_skew{0.99};
  /// LRU cap on live per-key instances per node (0 = unbounded;
  /// requires a service-evictable counter).
  std::size_t key_capacity{0};
  /// Multi-key batched RPC: issue this many consecutive schedule
  /// entries as one kStartBatch frame per touched node, with the
  /// closed-loop window counted in batches (concurrency * pipeline of
  /// them). Nodes coalesce the replies into kCompleteBatch frames per
  /// drain round regardless. 1 = unbatched keyed Starts; forced to 1
  /// under quiesce_between_ops and open-loop issuance.
  std::size_t batch{1};
  /// Capture every measured op's (invoke, response, value) at the
  /// controller and run check_linearizable over the real TCP/UDP
  /// history after the run (ClusterResult::linearizable). Skipped in
  /// multi-key mode, where per-key value spaces make a global counter
  /// history meaningless.
  bool lin_check{true};
};

struct ClusterResult {
  std::string counter;
  std::size_t n{0};
  std::uint32_t nodes{0};
  /// Measured ops issued and completed (< the requested count when
  /// duration_s cut the schedule short).
  std::size_t ops{0};
  std::size_t warmup{0};
  /// Values (warmup + measured together) form a permutation of
  /// 0..warmup+ops-1 (also DCNT_CHECKed).
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
  /// SLO attainment (slo_us > 0 in the options): slo_ok completions at
  /// or under the threshold out of slo_den measured ops.
  double slo_us{0.0};
  std::int64_t slo_den{0};
  std::int64_t slo_ok{0};
  double slo_attainment{0.0};
  /// True when latency came from the O(buckets) HDR histogram;
  /// hdr_overflow counts samples that saturated its top bucket.
  bool hdr_recorder{false};
  std::int64_t hdr_overflow{0};
  /// Linearizability over the measured history (options.lin_check; see
  /// concurrent/history.hpp). lin_checked says the check ran.
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

  /// Protocol-level message accounting, merged across nodes — the same
  /// m_p the simulator and threaded runtime report.
  std::int64_t total_messages{0};
  std::int64_t max_load{0};
  ProcessorId bottleneck{kNoProcessor};
  std::vector<std::int64_t> load;  ///< m_p per processor

  /// Wire-level accounting, summed across nodes.
  std::int64_t wire_msgs_sent{0};
  std::int64_t wire_msgs_received{0};
  std::int64_t wire_bytes_sent{0};
  std::int64_t wire_bytes_received{0};
  std::int64_t injected_drops{0};
  std::int64_t retransmissions{0};
  std::int64_t duplicates_suppressed{0};
  std::int64_t messages_abandoned{0};
  /// Kernel write syscalls the data planes issued (TCP send() calls
  /// that moved bytes; one sendto per datagram in UDP mode).
  /// wire_bytes_sent / wire_write_syscalls = bytes per write, the
  /// direct observable for send coalescing.
  std::int64_t wire_write_syscalls{0};

  /// StatsRequest rounds the quiescence barrier took.
  int quiesce_rounds{0};
  /// Per-op returned values, warmup ops first (size warmup + ops).
  std::vector<Value> values;

  // Multi-key mode (ClusterOptions::keys > 0; zero otherwise):
  std::size_t keys{0};
  /// Which key each op addressed (size warmup + ops) — pairs with
  /// `values` for per-key verification.
  std::vector<KeyId> key_of_op;
  /// Key with the most *measured* ops (ties to the smallest id), and
  /// its per-key message accounting merged from the nodes' kKeyedStats
  /// reports: max_p m_p restricted to that key's traffic — the paper's
  /// bottleneck measured per key inside the fabric.
  KeyId hot_key{kNoKey};
  std::int64_t hot_key_ops{0};
  std::int64_t hot_key_max_load{0};
  std::int64_t hot_key_messages{0};
  /// Keys that moved at least one measured message, cluster-wide.
  std::size_t keys_touched{0};
  /// LRU tier counters summed across the nodes' directories.
  std::int64_t lru_hits{0};
  std::int64_t lru_misses{0};
  std::int64_t lru_evicts{0};
  std::int64_t lru_rehydrates{0};
};

ClusterResult run_cluster(const ClusterOptions& options);

/// The dcnt_node binary run_cluster spawns: `override_path` when set,
/// else $DCNT_NODE_BIN, else found next to /proc/self/exe (see the
/// header comment). Aborts when none exists.
std::string find_node_binary(const std::string& override_path = "");

}  // namespace dcnt::net
