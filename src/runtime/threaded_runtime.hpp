// Sharded multi-threaded execution of unmodified Protocol objects.
//
// The simulator measures the paper's quantity (per-processor message
// load) but cannot measure the production consequence — a bottleneck
// processor caps wall-clock inc/s. This runtime executes the *same*
// Protocol implementations on real threads: the n processors are
// sharded round-robin across the *active* shards — min(W, cores) by
// default, because extra shards beyond the core count add context
// switches without adding parallelism (RuntimeConfig::active_shards
// pins the count for tests) — each worker owns an MPSC mailbox
// (mailbox.hpp) and delivers events only to its own processors, and a
// cross-shard Context::send enqueues into the destination's mailbox. Handlers for processors of different shards
// run concurrently on one protocol object; Protocol::shard_safe()
// documents why that is sound (state slicing + message-causality +
// mailbox mutexes = happens-before for every conflicting access).
//
// Delivery is batched end to end (the combining-tree idea applied to
// the substrate itself): cross-shard events accumulate in per-worker
// outboxes — one vector per destination shard — and are flushed with a
// single Mailbox::push_all per destination once per drain cycle (or
// every flush_batch events, whichever comes first), so the mailbox
// lock and any wake are paid per batch, not per message. The in-flight
// counter is batched the same way: sends and finished events tally in
// plain per-worker integers and hit the shared atomic once per cycle,
// adds strictly before subtracts so the count never dips below truth.
// A shard runs its work in generations: the ready queue is swapped
// into a second vector and handled front to back while handlers append
// the next generation to the emptied queue, and the mailbox is drained
// again at every generation boundary. That is exactly the order of one
// FIFO appended at its tail, but both vectors stay as wide as the
// widest generation (bounded by the in-flight window), not as long as
// the run, and mail pushed by other threads mid-pass waits at most one
// generation. All hot-path buffers (drain target, both generation
// queues, outboxes) are reused, and a Message keeps up to
// MessageArgs::kInline payload words inline (sim/message.hpp), so once
// the buffers have grown to the window a pass allocates nothing for
// the messages it moves. Nor does it copy them more than it must: a
// send hands its Message over by rvalue and the event is built once,
// in the queue it waits in (ready, an outbox, the deferred queue or the
// timer heap), and a drained mailbox batch joins an empty ready queue
// by a swap. What remains is the protocol's own state: the
// W=1 closed-loop tree (k=3, n=81) allocates 0.81 times per inc in
// steady state, down from 15.1 when every payload was a heap vector
// (tests/test_allocations.cpp).
//
// What carries over from the simulator, exactly:
//   - message accounting: a non-local message with src != dst counts
//     one send at src and one receive at dst; self-sends and local
//     timers are free. Per-worker Metrics are merged at quiescence, so
//     total_messages/max_load agree with the simulator whenever the
//     protocol's message count is schedule-independent (asserted by
//     tests/test_runtime_equivalence.cpp for sequential schedules).
//     Batching changes none of this: it coalesces how events travel,
//     never what is delivered (also pinned by those tests across
//     flush_batch settings).
//   - semantics hooks: start_inc/start_op runs at the origin's worker;
//     complete() fires at whichever worker runs the completing handler.
// What deliberately does not:
//   - time. Protocols read no clock. A send_local timer counts its
//     delay on the worker's logical clock (one tick per event it
//     processes) and fires when that clock reaches its deadline, or
//     immediately once the worker runs dry (mirroring the simulator's
//     idle time-jump). Wall-clock latency is measured by the workload
//     driver (workload.hpp). A delay-0 send_local runs at its shard's
//     dry point: once a mailbox drain finds nothing and no generation
//     is left, so it waits at most the shard's current busy period (and
//     runs before any timer). The simulator runs it after the events
//     already due at the current tick, which is its own dry point.
//   - topology routing, fault injection and FIFO-channel floors: the
//     runtime is the fault-free fully-connected model on real cores.
//   - global determinism. One worker processes its own mailbox in FIFO
//     order, so W=1 with a single-threaded driver is deterministic;
//     W>1 interleaves shards nondeterministically — results are then
//     verified as a permutation, the concurrent-mode contract.
//
// Two modes, chosen by one field. Without RuntimeConfig::hosting the
// runtime is the in-process engine above: W workers, logical-clock
// timers. With it, the runtime is one node of the socket cluster
// (src/net/node.cpp): no thread of its own, one shard the caller feeds
// with inject() and drives with drive(), the processors p with
// p % nodes == node_id, wall-clock timers, and messages for other nodes
// handed to the remote sink.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/mailbox.hpp"
#include "runtime/placement.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "sim/types.hpp"

namespace dcnt {

/// One node's share of a socket cluster (RuntimeConfig::hosting).
struct NodeHosting {
  /// Node processes sharing the processor space.
  std::size_t nodes{1};
  /// This node: it owns processors p with p % nodes == node_id.
  std::size_t node_id{0};
  /// Wall microseconds per logical delay tick.
  std::int64_t tick_us{200};
};

struct RuntimeConfig {
  /// Worker threads. 0 = auto: the process-wide --threads/DCNT_THREADS
  /// knob via resolve_thread_count(). May exceed the processor count;
  /// surplus workers own empty shards and sleep.
  std::size_t workers{0};
  /// Seeds the per-worker rng() streams (fork(worker) of one base Rng).
  std::uint64_t seed{1};
  /// Capacity of the operation table (results and completion flags are
  /// pre-sized so completion never allocates or locks). Drivers that
  /// know their op count pass it exactly.
  std::size_t max_ops{1 << 16};
  /// Outbox flush bound: cross-shard events are handed off when the
  /// worker runs dry or after this many processed events, whichever is
  /// first. 1 degenerates to per-event delivery (useful to prove the
  /// coalescing is delivery-transparent — see
  /// test_runtime_equivalence.cpp); larger values amortize the mailbox
  /// lock harder at a bounded cost in cross-shard latency.
  std::size_t flush_batch{64};
  /// Shards that actually own processors. 0 = adaptive: min(workers,
  /// hardware cores) — a host cannot execute more shards than cores in
  /// parallel, so spreading processors across extra shards buys no
  /// concurrency and pays a context switch per cross-shard hop (on a
  /// single-core box an 8-worker run degenerates to scheduler thrash).
  /// Workers beyond the active count own empty shards and park.
  /// Explicit values are clamped to [1, workers]; tests that must
  /// exercise true cross-shard delivery regardless of host size pin
  /// this to `workers`.
  std::size_t active_shards{0};

  /// Set: this runtime hosts one node of a socket cluster
  /// (src/net/node.cpp); unset: the whole protocol runs in this process.
  /// A hosted runtime spawns no thread. The caller's thread is its one
  /// shard and calls drive() whenever events may be pending, so a
  /// message's receive->handle->send round trip never crosses a thread,
  /// and the caller's inject() feeds the shard's ready queue directly,
  /// without a mailbox hop. Remote sink, completion callbacks and the
  /// in-flight ledger behave as with a worker. Requires workers == 1.
  ///
  /// It owns only processors with p % nodes == node_id; a handler's
  /// send() to another processor goes to the remote sink instead of a
  /// local mailbox. Its timers run on the wall clock rather than the
  /// shard's logical clock. In-process, a dry worker can safely jump its
  /// clock to the next deadline, because all work lives in its mailbox.
  /// A node cannot: a locally-dry shard may still be owed wire
  /// messages, so firing a retransmit timer early would forge loss. So
  /// a send_local delay becomes delay*tick_us of real time, armed
  /// timers do NOT hold the in-flight count (reported separately so the
  /// controller can tell "working" from "armed"), the owner clamps its
  /// kernel wait to the next deadline (inline_timer_wait_us), and the
  /// distributed idle-jump is an expire_timers() call once the
  /// controller has certified global idleness.
  std::optional<NodeHosting> hosting;
  /// Core placement for the worker threads (runtime/placement.hpp):
  /// kNone leaves scheduling to the kernel; kCompact pins each worker at
  /// thread start to the next CPU in topology order (SMT siblings
  /// first), so consecutive shards share cache levels. Gracefully a no-op where affinity is unsupported — see
  /// pinned_workers()/placement_supported() for what actually applied.
  Placement placement{Placement::kNone};
};

class ThreadedRuntime {
 public:
  /// Called at the completing worker, after the op's value is recorded
  /// and before the runtime considers the event finished — so a
  /// closed-loop driver may start the next operation from inside it.
  using CompletionFn = std::function<void(OpId op, Value value)>;
  /// Receives a batch of messages addressed to processors this node
  /// does not own (cluster mode). Called on the driving thread at flush
  /// points, strictly before the in-flight subtraction — so once
  /// drive() returns with in_flight()==0 the sink has been handed every
  /// message the handlers produced. The vector is cleared (capacity
  /// kept) after the call; the node puts each message on the wire.
  using RemoteSinkFn =
      std::function<void(std::size_t worker, std::vector<Message>& out)>;

  /// Spawns the workers immediately; they sleep until events arrive.
  /// Requires protocol->shard_safe() when resolving to more than one
  /// worker. Calls protocol->on_shard_start(W) before any handler.
  explicit ThreadedRuntime(std::unique_ptr<CounterProtocol> protocol,
                           RuntimeConfig config = {});
  ~ThreadedRuntime();

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  std::size_t workers() const { return shards_.size(); }
  /// Shards that own processors (<= workers); see
  /// RuntimeConfig::active_shards.
  std::size_t active_shards() const { return active_shards_; }
  std::size_t num_processors() const { return num_processors_; }
  const CounterProtocol& protocol() const { return *protocol_; }

  /// Not thread-safe against in-flight operations: install before the
  /// first begin_*, or between phases with the runtime quiescent.
  void set_completion(CompletionFn fn) { completion_ = std::move(fn); }
  /// Cluster mode only; same installation rule as set_completion.
  void set_remote_sink(RemoteSinkFn fn) { remote_sink_ = std::move(fn); }

  /// Does this runtime host processor p? Always true unless hosting.
  bool owns(ProcessorId p) const {
    return static_cast<std::size_t>(p) % nodes_ == node_id_;
  }

  /// Hosting only, owner thread only: hands a batch of externally
  /// produced events (wire arrivals, controller-assigned op starts) to
  /// the shard. The batch counts in in_flight() at once and joins the
  /// ready queue directly, behind whatever is still ready there, so the
  /// next drive() runs it in injection order, ahead of the events its
  /// handlers create. No mailbox lock is taken and, when the ready
  /// queue is empty, no event is moved: the two vectors swap. Leaves
  /// `evs` empty (it may come back with another vector's capacity).
  void inject(std::vector<RuntimeEvent>& evs);

  /// Cluster mode: the controller assigns global OpIds, so ops hosted
  /// here arrive with their id already chosen. Raises the internal
  /// next-op watermark so complete()'s bounds check accepts them.
  void register_external_op(OpId op);

  /// Monotone progress counter: every handled event (message delivery,
  /// op start, local message or timer firing) across all shards. Exact
  /// once the reader has observed in_flight() == 0 (the acq_rel chain
  /// through the in-flight counter orders every worker's bump before
  /// that observation); merely advisory while work is moving.
  std::int64_t events_processed() const;
  /// The most events any shard has run in one generation since
  /// construction: the high-water mark of its ready queue, owner-written
  /// once per generation. A closed loop keeps it within a small multiple
  /// of its in-flight window however many ops it runs. Requires
  /// quiescence.
  std::size_t ready_high_water() const;
  /// Armed wall-clock timers (hosting only, owner thread only).
  /// These do NOT hold the in-flight count.
  std::int64_t timers_armed() const;
  std::int64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Workers whose affinity call succeeded (== workers() when a
  /// supported placement applied cleanly; 0 under kNone or where
  /// pinning is unsupported). Exact once the workers have started;
  /// tests read it after the first quiescence.
  std::size_t pinned_workers() const {
    return pinned_workers_.load(std::memory_order_acquire);
  }
  /// Whether the configured placement could pin at all on this host
  /// (true for kNone vacuously — nothing was requested).
  bool placement_supported() const { return placement_supported_; }

  /// Starts an operation at `origin`'s worker. Callable from any thread,
  /// including from inside a completion callback — the start always runs
  /// on the owning worker, never inline on the caller (worker threads
  /// route it through their own outbox, so completion-driven issuance
  /// batches like any other cross-shard traffic).
  OpId begin_inc(ProcessorId origin) { return begin_op(origin, {}); }
  OpId begin_op(ProcessorId origin, MessageArgs args);

  /// Blocks until no event is queued, timed, or being handled. Only
  /// meaningful once the caller has stopped issuing operations from
  /// outside (completion-driven issuance is fine: the in-flight count
  /// cannot touch zero while a completion callback is still running).
  void wait_quiescent();

  std::size_t ops_started() const {
    return next_op_.load(std::memory_order_acquire);
  }
  /// Ops completed across all shards, each shard's count written by its
  /// owner alone. Exact once the reader has observed quiescence, like
  /// events_processed(); advisory while work is moving.
  std::size_t ops_completed() const;
  /// The op's value, or nullopt while it is still running.
  std::optional<Value> result(OpId op) const;

  /// Per-worker load counters merged into one simulator-compatible
  /// Metrics. Requires quiescence.
  Metrics merged_metrics() const;

  /// Zeroes every shard's load counters. Requires quiescence (which is
  /// a full memory barrier in both directions: the workers' prior
  /// writes are visible here, and this write reaches each worker
  /// through the mailbox hand-off of its next event). Used by warmup
  /// drivers so cold-start traffic never pollutes measured metrics.
  void reset_metrics();

  /// Stops and joins the workers; abandons whatever is still queued.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Hosting only: runs the shard until dry on the calling thread —
  /// drains the mailbox, processes ready events and due timers, flushes
  /// cross-shard/remote/in-flight accounting. The owner thread must
  /// call this whenever in_flight() > 0 (and at wall-timer deadlines;
  /// see inline_timer_wait_us). Returns whether any event was
  /// processed.
  bool drive();
  /// Hosting only, owner thread only: the distributed time jump. Makes
  /// every timer armed now due now, in its deadline order, so the next
  /// drive() fires them; timers armed after this call keep their wall
  /// deadlines (a fired retransmission re-arms its next attempt, and
  /// firing that too would melt the backoff schedule).
  void expire_timers();
  /// Hosting only, owner thread only: microseconds until the
  /// earliest armed wall timer would fire, 0 if already due, -1 if no
  /// timer is armed. The driving loop clamps its kernel wait to this.
  std::int64_t inline_timer_wait_us() const;

  /// Which shard owns processor p: round-robin over the active shards
  /// (a hosted runtime has exactly one).
  std::size_t shard_of(ProcessorId p) const {
    return static_cast<std::size_t>(p) % active_shards_;
  }

 private:
  /// One worker's world. Everything here except the mailbox is touched
  /// only by the owning thread.
  struct Shard;
  /// The Context handed to handlers: one per worker, carrying the
  /// worker's shard (clock, rng, metrics, timer heap) and current op.
  class WorkerCtx;
  friend class WorkerCtx;
  std::int64_t wall_now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }
  void worker_main(std::size_t worker);
  /// One non-blocking pass over a shard: generation by generation,
  /// drain the mailbox and run the ready events; when both are empty,
  /// run the delay-0 messages (the dry point); when all three are
  /// empty, fire a due timer; exit dry and flush. The shared body of
  /// the threaded worker loop and the inline drive() entry point.
  /// Returns whether any event was processed.
  bool run_shard_pass(Shard& shard, WorkerCtx& ctx);
  void process_event(Shard& shard, WorkerCtx& ctx, RuntimeEvent& ev);
  /// Runs the delay-0 messages sent before this call: the shard's dry
  /// point.
  void run_deferred(Shard& shard, WorkerCtx& ctx);
  /// Pops and runs the earliest armed timer.
  void fire_timer(Shard& shard, WorkerCtx& ctx);
  /// Applies a shard's deferred in-flight accounting: pending sends are
  /// added *before* outboxes flush (so counted events are never
  /// invisible) and finished events are subtracted last (so the count
  /// can only touch zero when everything really is done). The acq_rel
  /// RMW chain through this one atomic is what makes quiescence a full
  /// memory barrier (merged_metrics and protocol state reads after
  /// wait_quiescent() see every handler's writes).
  void flush_shard(Shard& shard);

  std::unique_ptr<CounterProtocol> protocol_;
  RuntimeConfig config_;
  std::size_t num_processors_;
  std::size_t active_shards_{1};
  /// config_.hosting resolved at construction (1, 0, false, 0 when
  /// unset), so the hot paths read plain members.
  std::size_t nodes_{1};
  std::size_t node_id_{0};
  bool hosted_{false};
  std::int64_t tick_us_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  /// Persistent handler context for drive() (threaded workers keep
  /// theirs on their own stacks).
  std::unique_ptr<WorkerCtx> inline_ctx_;
  CompletionFn completion_;
  RemoteSinkFn remote_sink_;
  /// Wall-timer epoch: timer deadlines are microseconds since this.
  std::chrono::steady_clock::time_point t0_;
  /// Worker -> CPU assignment (config_.placement); workers pin
  /// themselves on startup and count successes into pinned_workers_.
  PlacementPlan placement_plan_;
  bool placement_supported_{true};
  std::atomic<std::size_t> pinned_workers_{0};

  /// Events queued + timers pending + handlers running. Updated in
  /// batches per drain cycle (see flush_shard); single-event updates
  /// only happen for pushes from non-worker threads.
  ///
  /// alignas: in_flight_ is RMWed by every worker once per flush while
  /// stop_ is polled by every worker once per loop pass — sharing a
  /// line would make the ledger's write traffic invalidate every
  /// worker's stop poll. next_op_ (issuing threads) gets its own line
  /// too.
  alignas(64) std::atomic<std::int64_t> in_flight_{0};
  alignas(64) std::atomic<bool> stop_{false};

  alignas(64) std::atomic<std::size_t> next_op_{0};
  /// Slot per op, pre-sized to max_ops: distinct ops never contend.
  std::vector<Value> results_;
  std::vector<std::atomic<std::uint8_t>> done_;

  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
};

}  // namespace dcnt
