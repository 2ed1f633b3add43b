// Concurrent counting histories: the record type, the lock-free
// capture buffer, and the linearizability check (DESIGN.md §15).
//
// This is the canonical home of the checker, moved here from
// src/analysis/ so the harnesses below the analysis layer (the load
// driver's callers and the shm harness) can run it over the histories
// they just produced. analysis/linearizability.hpp
// re-exports everything and keeps the simulator extraction helper.
//
// The theory, after Herlihy, Shavit & Waarts [HSW96] (cited by the
// paper): counting networks are correct *quiescently* but hand out
// values that can invert real-time order, while serializing structures
// (a central counter, a combining tree, the paper's tree) are
// linearizable. For a counter handing out distinct values 0..m-1, a
// history is linearizable iff no operation A that *responded* before
// operation B was *invoked* received a larger value:
//
//     resp(A) < inv(B)  =>  val(A) < val(B).
//
// (Sufficiency: order ops by value; the condition makes that total
// order consistent with real time, and by construction each op returns
// its predecessor count — a legal sequential counter execution.)
//
// HistoryBuffer is the capture side: one pre-sized slot per op, each a
// triple of atomics, so issuing and completing threads record invoke /
// response wall timestamps and the returned value without locks or
// allocation on the hot path. Timestamp conservatism: the invoke stamp
// is taken just *before* begin_* and the response stamp inside the
// completion callback (so slightly *after* the true response), which
// can only widen intervals and weaken resp(A) < inv(B) constraints —
// the check may miss a borderline violation, never fabricate one.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace dcnt {

struct CounterOpRecord {
  OpId op{kNoOp};
  SimTime invoked{0};
  SimTime responded{0};
  Value value{0};
};

struct LinearizabilityReport {
  bool linearizable{true};
  std::int64_t violations{0};
  /// First violating pair: a responded before b invoked, yet
  /// val(a) > val(b).
  OpId first_a{kNoOp};
  OpId first_b{kNoOp};
  /// Duplicate returned values found (a counter must hand out distinct
  /// values, so any duplicate is itself a violation; the pairs are
  /// counted into `violations` too).
  std::int64_t duplicate_values{0};
};

/// Checks a history of counter operations. When the values are one
/// contiguous range of non-negative values, each once (every correct
/// counter run), the real-time condition above is swept in O(m) over a
/// value-indexed array of record indices (4 bytes per op), without
/// copying or sorting the history. Anything else takes
/// check_linearizable_by_sort, with an identical report.
LinearizabilityReport check_linearizable(
    const std::vector<CounterOpRecord>& history);

/// The O(m log m) sweep over sorted copies of the history. Duplicate
/// values are rejected (reported in duplicate_values and violations);
/// with distinct values, invocations are swept in time order against
/// the largest value already responded. Where invocation stamps tie,
/// which violator it names first_b is unspecified.
LinearizabilityReport check_linearizable_by_sort(
    const std::vector<CounterOpRecord>& history);

/// Linearizability for an inc/read counter — the contract of counters
/// whose increments return no ticket (the shm sharded counter: a
/// fetch_add into a per-core cell plus an exact read-side reduction).
/// This is the paper's distinction made executable: fetch-and-inc
/// forces a total order on every increment (check_linearizable above),
/// while inc/read only constrains what READS may observe. A history of
/// incs (values ignored) and reads (value = observed count) is
/// linearizable iff every read r satisfies the interval bound
///
///     #{incs responded before inv(r)}  <=  val(r)
///                                      <=  #{incs invoked before resp(r)}
///
/// (an inc that finished before r started must be counted; an inc that
/// started after r finished must not be) and reads are monotone in
/// real time: resp(r1) < inv(r2) => val(r1) <= val(r2). Sufficiency:
/// place each read at a point where exactly val(r) incs precede it —
/// the bounds guarantee such a point exists inside r's interval, and
/// monotonicity lets all reads take such points in a consistent order.
/// Violations land in the same report shape (first_a/first_b name the
/// offending read and, for bound violations, the read itself).
LinearizabilityReport check_inc_read_linearizable(
    const std::vector<CounterOpRecord>& incs,
    const std::vector<CounterOpRecord>& reads);

namespace concurrent {

/// Lock-free per-op capture of a concurrent run's counting history.
///
/// The issuing thread stamps on_invoke right after begin_* returns the
/// OpId (the stamp itself is taken just before the call); a completion
/// callback — possibly on another thread, possibly racing the invoke
/// store — records the response time and value. Slots are independent
/// atomics, so any number of initiator slots and completion workers
/// write concurrently. snapshot() is for after quiescence: every op
/// that completed has both stamps by then.
class HistoryBuffer {
 public:
  explicit HistoryBuffer(std::size_t max_ops) : slots_(max_ops) {}

  std::size_t capacity() const { return slots_.size(); }

  /// `t_ns` must be nonzero (0 is the "never invoked" sentinel; a
  /// steady_clock reading is never 0 in practice).
  void on_invoke(OpId op, std::int64_t t_ns) {
    Slot& s = slot(op);
    s.invoked.store(t_ns, std::memory_order_release);
  }

  void on_response(OpId op, std::int64_t t_ns, Value value) {
    Slot& s = slot(op);
    s.value.store(value, std::memory_order_relaxed);
    s.responded.store(t_ns, std::memory_order_release);
  }

  /// Records of every completed op with id >= first_op. Call after the
  /// run has quiesced (the caller's join/quiesce provides the ordering
  /// that makes the relaxed value stores visible).
  std::vector<CounterOpRecord> snapshot(std::size_t first_op = 0) const;

 private:
  struct Slot {
    std::atomic<std::int64_t> invoked{0};
    std::atomic<std::int64_t> responded{0};
    std::atomic<Value> value{0};
  };

  Slot& slot(OpId op) {
    return slots_.at(static_cast<std::size_t>(op));
  }

  std::vector<Slot> slots_;
};

}  // namespace concurrent
}  // namespace dcnt
