// LoadDriver: the one schedule loop in the repo (DESIGN.md §14). The
// simulator (harness/runner.cpp), the threaded runtime
// (runtime/workload.hpp) and the socket-cluster controller
// (harness/cluster.cpp) are thin LoadPorts over it; the driver owns
// everything about when ops are issued and how they are measured:
//   - closed loop: a window of concurrency * inflight issuance units,
//     refilled by one reissue per completion, made inside on_complete
//     on the completing thread;
//   - settling (LoadPolicy::quiesce_between_ops): the paper's
//     sequential schedule, one unit at a time with the port quiesced
//     after each, issued from the driver thread;
//   - completion spans: a port reports completions in spans (the
//     cluster controller: one decoded kCompleteBatch frame; the
//     simulator: every completion of one delivery; the runtime: one
//     op). A span costs at most two clock reads however long it is: one
//     stamps every response, one the invoke of every reissue;
//   - open loop: the driver thread walks the ArrivalTimeline, issuing
//     late rather than skipping when it falls behind. The recorder gets
//     each op's scheduled time (coordinated-omission-free), the history
//     its actual send time; burst shapes tag each op's load phase;
//   - the duration budget (every issued op still completes, and entries
//     go out in order, so a cut run covers a schedule prefix);
//   - warmup: closed-loop, unrecorded, then one quiesce and one metrics
//     reset before the first measured issue;
//   - the finish condition, the TailRecorder, the HistoryBuffer stamps
//     and the run's span: first measured issue to last measured
//     completion.
// Every stamp, deadline and arrival reads the port's clock
// (LoadPort::now_ns): steady_clock on the runtime and the cluster,
// simulated time in the simulator, where one tick reads as 1 us.
// The port maps schedule entries 0..warmup+ops-1 (warmup first) to
// initiators and keys through schedule_slot and returns the OpId its
// substrate assigned.
// on_complete may run on any thread, concurrently: the driver's
// counters are atomics. Wide issue units (batched keyed Starts, the
// simulator's batches) need a single-threaded port: the simulator or
// the cluster controller.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "concurrent/history.hpp"
#include "sim/types.hpp"
#include "traffic/recorder.hpp"
#include "traffic/shape.hpp"

namespace dcnt::traffic {

/// The load knobs every harness shares, declared once: LoadOptions
/// (harness/result.hpp) and DriverOptions derive from this.
struct LoadPolicy {
  /// Closed-loop clients; ignored in open loop.
  std::size_t concurrency{8};
  /// Issuance units each closed-loop client keeps outstanding (window =
  /// concurrency * inflight); 1 is the classic closed loop, 0 counts
  /// as 1.
  std::size_t inflight{1};
  /// Unrecorded closed-loop entries run to quiescence before the
  /// measured phase, with the port's metrics reset afterwards, so
  /// cold-start costs (thread wakeups, buffer growth, page faults,
  /// connection setup) never pollute the numbers.
  std::size_t warmup{0};
  /// If > 0: measured-phase budget in seconds of the port's clock; the
  /// op count becomes a cap rather than a target.
  double duration_s{0.0};
  /// Runs with more op slots than this record latency into the HDR
  /// histogram instead of exact per-op storage.
  std::size_t exact_cap{TailRecorder::kDefaultExactCap};
  /// Quiesce the port after every issuance unit before issuing the next
  /// (a window of one unit): the paper's sequential schedule, where an
  /// op's entire message activity settles before the next starts.
  bool quiesce_between_ops{false};
};

struct DriverOptions : LoadPolicy {
  /// shape.rate > 0 selects open loop for the measured phase.
  RateShape shape{};
  /// If > 0: latency SLO threshold; the stats report attainment.
  std::int64_t slo_ns{0};
  /// When set, every measured op's (invoke, response, value) lands here
  /// (capacity >= warmup + ops) for check_linearizable. Both stamps are
  /// conservative widenings of the true interval:
  ///   - response: one clock read at the start of on_complete stamps
  ///     every response of the span (each at or after its true
  ///     response);
  ///   - invoke: one more read, after the span's responses and before
  ///     its first reissue reaches the port, stamps every reissue of
  ///     the span (at or before its true send). It is forced to at
  ///     least the response stamp + 1, so a client's consecutive ops
  ///     keep resp(A) < inv(B). Fills and open-loop issues read the
  ///     clock just before the port's issue.
  /// The recorder's scheduled time of a reissue is its predecessor's
  /// response stamp: a closed-loop client wants its next op the moment
  /// the previous one completed.
  concurrent::HistoryBuffer* history{nullptr};
};

struct DriverResult {
  /// Measured ops issued and completed (fewer than requested when the
  /// duration budget cut the schedule).
  std::size_t ops{0};
  double wall_seconds{0.0};
  double ops_per_sec{0.0};
  TrafficStats traffic;
};

/// The slot of an `ops`-entry initiator/key schedule that entry `entry`
/// addresses: warmup cycles through the schedule, measured entries walk
/// it once. Every port maps entries this way, so one LoadOptions drives
/// the same measured schedule on every substrate.
inline std::size_t schedule_slot(std::size_t entry, std::size_t warmup,
                                 std::size_t ops) {
  return entry < warmup ? entry % ops : entry - warmup;
}

/// The substrate side of a run.
class LoadPort {
 public:
  static constexpr std::int64_t kForever =
      std::numeric_limits<std::int64_t>::max();

  /// The clock of every stamp, deadline and arrival of a run, in ns
  /// since an epoch it never reads as 0 (the stamps' "none"):
  /// steady_clock unless the port keeps its own time.
  virtual std::int64_t now_ns() const { return TailRecorder::now_ns(); }
  /// Starts schedule entry `entry`; returns its OpId (warmup ops take
  /// the first ids, as on every fresh substrate).
  virtual OpId issue(std::size_t entry) = 0;
  /// Blocks until now_ns() reaches `until_ns` (kForever = none) or
  /// until on_complete returned true; a single-threaded port delivers
  /// completions from here. Returning early is always allowed.
  virtual void wait(std::int64_t until_ns) = 0;
  /// Returns once nothing is in flight anywhere.
  virtual void quiesce() = 0;
  /// Zeros the message-load metrics (called quiescent).
  virtual void reset_metrics() = 0;

 protected:
  ~LoadPort() = default;  // never deleted through the interface
};

class LoadDriver {
 public:
  /// `ops` measured entries follow options.warmup warmup entries.
  LoadDriver(LoadPort& port, const DriverOptions& options, std::size_t ops,
             std::size_t unit = 1);

  /// Warmup, measured phase, drain, final quiesce.
  DriverResult run();

  /// Accounts a span of completions (all of one phase) and makes their
  /// closed-loop reissues. Returns true when the driver thread must
  /// wake (a phase finished, or a settle-mode op completed).
  bool on_complete(std::span<const Completion> done);

 private:
  /// Seeds or walks one phase, drains it and quiesces.
  void run_phase(std::size_t end, bool measured, bool closed);
  /// Issues the next closed-loop unit, or declines (latching no_more_)
  /// once the phase's entries or its deadline ran out. `scheduled_ns`
  /// is the unit's recorder stamp and deadline check, `sent_ns` its
  /// history invoke stamp.
  bool issue_unit(std::int64_t scheduled_ns, std::int64_t sent_ns);
  /// issue_unit stamped with one fresh clock read.
  bool issue_unit_now();
  /// Records a measured issue; burst runs tag the scheduled phase.
  void stamp(OpId op, std::int64_t scheduled_ns, std::int64_t sent_ns);
  /// Waits until every issued op completed and nothing more will be.
  void drain();
  void run_open_loop();

  LoadPort& port_;
  const DriverOptions options_;
  const std::size_t total_;  ///< warmup + measured entries
  const std::size_t unit_;
  const std::size_t window_;  ///< closed-loop units in flight
  TailRecorder recorder_;

  // The current phase; written by the driver thread before the phase's
  // first issue, which orders them before every completion that reads
  // them.
  std::size_t end_{0};
  bool measured_{false};
  bool closed_{true};
  std::int64_t deadline_ns_{LoadPort::kForever};
  /// Settle mode: true while nothing was issued since the last quiesce.
  bool settled_{false};
  /// Unit > 1: completions since the last reissue.
  std::size_t credits_{0};

  /// Entries claimed so far (a claimed entry is issued before its
  /// claimer counts anything done).
  std::size_t issued() const { return std::min(cursor_.load(), end_); }

  // Default (seq_cst) order throughout: the finish condition leans on
  // the single total order across no_more_, cursor_ and done_. An entry
  // is claimed before the port sees it and a span's reissues precede
  // its one done_ bump, so done_ == issued() with no_more_ set means
  // nothing is in flight and nothing more will be.
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> no_more_{false};
  std::atomic<std::int64_t> last_completion_ns_{0};
  std::int64_t first_issue_ns_{0};
};

}  // namespace dcnt::traffic
