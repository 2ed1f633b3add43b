// Throughput harness for the shared-memory counters: the shm sibling
// of harness/run_throughput, producing the SAME ThroughputResult so
// bench_throughput's SHM table ranks silicon and message-passing rows
// on one axis. It shares the result schema, the TrafficStats fill and
// the value verifier with the other harnesses (harness/result.hpp)
// but keeps its own thread-per-client loop instead of the load driver:
// a client's inc_batch is one synchronous call, so there is no
// issue/complete split for a driver port to carry.
//
// Closed loop: T real threads each keep one batch of F increments in
// flight — a thread claims op ids [i, i+F) from a shared cursor, stamps
// all F invokes, submits ONE inc_batch(t, F), and stamps all F
// responses with tickets base..base+F-1. The batch linearizes at the
// inc_batch's own linearization point, which sits inside every one of
// the F (invoke, response) windows, so the recorded history is honest
// and check_linearizable vets it exactly as it does the message-passing
// protocols at the same --inflight F. F amortizes coherence transfers
// the way message combining amortizes RTTs — that symmetry is the
// point of the sweep.
//
// Open loop: arrivals follow the deterministic constant-rate timeline
// of traffic/shape.hpp (no burst or diurnal shapes, no SLO); threads
// claim the next scheduled arrival, sleep until its offset, then run a
// single inc. Latency is measured from the
// scheduled arrival (coordinated-omission-free), invoke stamps from the
// actual call time (the history must reflect real overlap, not the
// schedule).
//
// Verification per run (all DCNT_CHECKed, so a bench row completing is
// a correctness run):
//   - ticket counters: returned values are exactly {warmup, ...,
//     warmup+ops-1} (verify_values), and check_linearizable runs over
//     the live history;
//   - the sharded counter: a sampler thread interleaves up to 128
//     read()s with the increments and
//     check_inc_read_linearizable vets the combined history (reads
//     inside the inc-interval bounds, monotone);
//   - all counters: read() == warmup + ops at quiescence (exact final
//     value).
#pragma once

#include <cstdint>
#include <string>

#include "harness/throughput.hpp"
#include "runtime/placement.hpp"
#include "shm/shm_counter.hpp"

namespace dcnt::shm {

struct ShmOptions {
  /// Real threads driving the counter (the shm analogue of workers).
  std::size_t threads{4};
  /// Measured increments (split across threads by the shared cursor).
  std::size_t ops{1 << 14};
  /// Per-thread batch size — the shm meaning of --inflight F.
  std::size_t inflight{1};
  /// Unrecorded increments before the measured phase (threads
  /// barrier-sync between phases).
  std::size_t warmup{0};
  /// > 0: open-loop issuance at this constant rate; closed loop
  /// otherwise.
  double open_rate{0.0};
  /// Core placement for the harness threads (same policies as the
  /// runtime workers).
  Placement placement{Placement::kNone};
  std::uint64_t seed{1};
};

/// Drives make_shm_counter(kind) and returns a bench-table-ready
/// result. Aborts (DCNT_CHECK) on any exactness violation; the
/// linearizability verdict is reported, not asserted — callers that
/// require lin=y assert on the result, mirroring run_throughput.
ThroughputResult run_shm_throughput(ShmKind kind, const ShmOptions& options);

}  // namespace dcnt::shm
