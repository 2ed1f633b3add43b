// Multi-process cluster harness: the controller side of the socket
// runtime (src/net/).
//
// run_cluster spawns `nodes` dcnt_node processes on localhost, runs the
// Hello/Peers/Ready mesh handshake, then drives the cluster with the
// shared load driver (traffic/driver.hpp) — the same closed/open loop,
// settling, warmup and duration policy as the threaded runtime and the
// simulator. The controller is the driver's port: issue only stages an
// op's start; every reactor
// round (wait, and each round of the barriers) first sends what the
// driver issued since the previous round as one kStartBatch frame per
// touched node, then delivers kCompleteBatch frames. reset_metrics
// broadcasts kMetricsReset and waits for every ack, and
// quiesce is the distributed barrier: StatsRequest/Stats rounds until
// two consecutive rounds show identical per-node progress, no unacked
// envelopes or armed timers anywhere, and — on the reliable TCP plane —
// wire sends equal to wire receives. Afterwards it merges the nodes'
// loads into one Metrics (exact: each processor is owned by one node)
// and verifies the values with the shared verifier (harness/result.hpp).
//
// The node binary is found via ClusterOptions::node_binary, then the
// DCNT_NODE_BIN environment variable, then next to /proc/self/exe
// (covers running from build/tests, build/bench and build/examples).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/retry.hpp"
#include "harness/result.hpp"
#include "sim/types.hpp"

namespace dcnt::net {

/// The shared load options come from LoadOptions, keyspace included
/// (keys > 0: every node wraps its counter in a service/MultiCounter
/// fabric); the defaults differ from the in-process harness's in
/// concurrency (8) and zipf_s (0.99).
struct ClusterOptions : LoadOptions {
  ClusterOptions() { zipf_s = 0.99; }

  /// Counter kind accepted by harness/factory.hpp; a multi-node cluster
  /// requires it to be shard_safe().
  std::string counter{"tree"};
  std::int64_t min_processors{16};
  std::uint32_t nodes{4};
  /// Data plane: false = TCP mesh, true = lossy UDP behind the reliable
  /// transport.
  bool udp{false};
  /// Seeded sender-side datagram loss (UDP mode).
  double drop_probability{0.0};
  /// Wall microseconds per logical tick in the nodes (timer delays).
  std::int64_t tick_us{200};
  RetryParams retry{};
  /// Whole-run wall-clock budget; exceeding it aborts the harness.
  double timeout_seconds{120.0};
  /// Override the dcnt_node binary path (tests, cross-directory runs).
  std::string node_binary;
  /// Frozen: a node is one thread driving one shard inline, so these
  /// accept only the values that describe that layout (loops 1,
  /// shards_per_node 0; run_cluster rejects anything else). They stay
  /// as fields only because perfbench/trial.cpp assigns them.
  std::uint32_t loops{1};
  std::uint32_t shards_per_node{0};
  /// Multi-key issuance unit: the driver issues this many consecutive
  /// schedule entries at once, and the closed-loop window counts units
  /// (a completion reissues once a unit's worth of slots has freed).
  /// Framing does not depend on it: each reactor round's starts share
  /// one kStartBatch frame per touched node whatever the unit. It still
  /// pays at an equal window of 128 ops (central n=16, 4 nodes, 16,384
  /// ops, keys=256 zipf, 4-core Xeon VM, Release): batch=16 ran at a
  /// median 382k inc/s against 311k for batch=1 with inflight 16, and
  /// won 9 of 10 seeds, at identical message counts and about half the
  /// start frames (a unit's reissues leave in one round). At keys=1 it
  /// is a wash. Forced to 1 without keys, under quiesce_between_ops and
  /// under open-loop issuance.
  std::size_t batch{1};
};

struct ClusterResult : HarnessResult {
  std::uint32_t nodes{0};
  std::vector<std::int64_t> load;  ///< m_p per processor, merged

  /// Wire-level accounting, summed across nodes.
  std::int64_t wire_msgs_sent{0};
  std::int64_t wire_msgs_received{0};
  std::int64_t wire_bytes_sent{0};
  std::int64_t wire_bytes_received{0};
  std::int64_t injected_drops{0};
  std::int64_t retransmissions{0};
  std::int64_t duplicates_suppressed{0};
  std::int64_t messages_abandoned{0};
  /// Kernel write syscalls the data planes issued; wire_bytes_sent /
  /// wire_write_syscalls is the send-coalescing observable.
  std::int64_t wire_write_syscalls{0};
  /// Malformed data-plane frames the nodes dropped (UDP mode; a TCP
  /// node aborts instead). Nonzero means the wire carried garbage.
  std::int64_t frames_rejected{0};

  /// kStartBatch frames the controller sent in the measured phase: at
  /// most one per touched node per reactor round, plus one per further
  /// kBatchEntryCap starts.
  std::int64_t start_frames{0};
  /// StatsRequest rounds the quiescence barriers took.
  int quiesce_rounds{0};
  /// Per-op returned values, warmup ops first (size warmup + ops).
  std::vector<Value> values;
  /// Multi-key mode: which key each op addressed (size warmup + ops) —
  /// pairs with `values` for per-key verification.
  std::vector<KeyId> key_of_op;
};

ClusterResult run_cluster(const ClusterOptions& options);

/// The dcnt_node binary run_cluster spawns: `override_path` when set,
/// else $DCNT_NODE_BIN, else found next to /proc/self/exe (see the
/// header comment). Aborts when none exists.
std::string find_node_binary(const std::string& override_path = "");

}  // namespace dcnt::net
