// Wall-clock workload generation against a ThreadedRuntime: the
// runtime's port onto the shared load driver (traffic/driver.hpp), which
// owns the closed and open loops, the duration budget, warmup, tail
// recording and history capture. This adapter maps schedule entries to
// initiators (and keys), issues them with begin_inc / begin_op, and
// parks the calling thread between the driver's phases. Any initiator
// sequence works (harness/schedule.hpp generates round-robin, uniform
// and Zipf ones).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/threaded_runtime.hpp"
#include "sim/types.hpp"
#include "traffic/driver.hpp"

namespace dcnt {

/// The driver's options; warmup cycles through the initiator sequence.
struct WorkloadOptions : traffic::DriverOptions {
  /// Multi-key fabric workload: when non-empty (size must equal the
  /// initiator count), op i runs begin_op(initiators[i], {keys[i]}) —
  /// the keyed entry point of service/MultiCounter.
  std::vector<KeyId> keys;
};

struct WorkloadResult : traffic::DriverResult {
  /// Keyed runs only: key_of_op[op] is the key OpId `op` counted on
  /// (size warmup + initiator count — concurrent issuance means OpId
  /// order need not match the schedule index, so the mapping is
  /// recorded at issue time). Empty for plain runs.
  std::vector<KeyId> key_of_op;
};

/// Issues up to one operation per entry of `initiators` into `rt`
/// (which must be fresh: no operations started yet), waits for all
/// issued completions, then runs the runtime to quiescence so the
/// caller can read merged_metrics() and protocol state. Wall time
/// covers first measured issue to last measured completion. With
/// options.warmup > 0, that many unrecorded operations run (and
/// quiesce) first; measured operations then occupy OpIds
/// warmup..warmup+result.ops-1.
WorkloadResult run_workload(ThreadedRuntime& rt,
                            const std::vector<ProcessorId>& initiators,
                            const WorkloadOptions& options = {});

}  // namespace dcnt
