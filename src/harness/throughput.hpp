// Wall-clock throughput harness: the threaded-runtime sibling of
// runner.hpp.
//
// run_throughput drives a counter protocol on real threads through
// run_workload (the runtime's adapter over the shared load driver,
// traffic/driver.hpp) and verifies the concurrent-mode contract —
// returned values form a permutation of 0..m-1 (verify_values, the
// check run_load applies in the simulator; sequential 0,1,2,...
// ordering is meaningless once operations genuinely overlap). Aborts
// on violation, so a bench completing is itself a correctness check.
// With options.keys > 0 the same run goes over the multi-key fabric
// with the per-key contract, exactly as run_cluster does for the same
// LoadOptions. It reports the shared HarnessResult schema
// (harness/result.hpp) plus the runtime's own fields.
//
// run_runtime_sequential is the paper's model on the runtime: the same
// run_workload with quiesce_between_ops set, so one operation at a
// time, quiescing in between. Used by the
// runtime/simulator equivalence tests: for sequential schedules the
// message complexity of the tree and central counters is
// schedule-independent, so total_messages (and per-processor loads)
// must match the simulator exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/result.hpp"
#include "runtime/placement.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "sim/types.hpp"

namespace dcnt {

struct ThroughputOptions : LoadOptions {
  ThroughputOptions() { concurrency = 16; }

  /// Worker threads; 0 = the process-wide --threads/DCNT_THREADS knob.
  /// Shards stay adaptive (RuntimeConfig::active_shards = 0).
  std::size_t workers{0};
  /// Core placement for the runtime workers (runtime/placement.hpp);
  /// kNone leaves scheduling to the kernel. Results report what
  /// actually applied (pinned_workers / placement_supported) — an
  /// unsupported host runs unpinned and says so rather than failing.
  Placement placement{Placement::kNone};
};

struct ThroughputResult : HarnessResult {
  std::size_t workers{0};
  double mean_load{0.0};
  /// Placement outcome: the policy asked for, how many workers actually
  /// pinned, and whether pinning was possible at all on this host (the
  /// "--pin applies or cleanly reports unsupported" contract).
  std::string placement{"none"};
  std::size_t pinned_workers{0};
  bool placement_supported{true};
};

/// Runs the workload, verifies the value permutation (aborts on
/// violation) and check_quiescent, and reports wall-clock rates plus
/// the merged message-load metrics. With options.keys > 0 it wraps
/// `protocol` in a service/MultiCounter (routing seed = options.seed),
/// draws each op's key from key_dist, verifies every key's values are
/// a permutation of 0..ops_k-1, and also reports the hot key's per-key
/// bottleneck load and the LRU counters.
ThroughputResult run_throughput(std::unique_ptr<CounterProtocol> protocol,
                                const ThroughputOptions& options = {});

struct RuntimeSequentialResult {
  std::vector<Value> values;
  Metrics metrics;
};

/// Sequential driver on the threaded runtime: run_workload over `order`
/// with quiesce_between_ops (one inc at a time, check_quiescent after
/// each), then assert each value is its initiation index (the paper's
/// sequential contract). `workers` as in RuntimeConfig (0 = auto). Always
/// pins active_shards = workers — this is the equivalence harness, and
/// it must exercise genuine cross-shard delivery on any host.
/// `flush_batch` as in RuntimeConfig: the equivalence tests sweep it to
/// prove outbox coalescing is delivery-transparent.
RuntimeSequentialResult run_runtime_sequential(
    std::unique_ptr<CounterProtocol> protocol, std::size_t workers,
    const std::vector<ProcessorId>& order, std::uint64_t seed = 1,
    std::size_t flush_batch = 64);

}  // namespace dcnt
