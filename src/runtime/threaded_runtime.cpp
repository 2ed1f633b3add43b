#include "runtime/threaded_runtime.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dcnt {

namespace {

/// Timer heap entry: min-heap by absolute deadline on the owner's
/// logical clock, FIFO among equal deadlines (matches the simulator's
/// (deliver_time, seq) ordering).
struct TimerEntry {
  SimTime due{0};
  std::uint64_t seq{0};
  Message msg;
};

struct TimerLater {
  bool operator()(const TimerEntry& a, const TimerEntry& b) const {
    if (a.due != b.due) return a.due > b.due;
    return a.seq > b.seq;
  }
};

/// Which runtime worker (if any) is running on this thread. Lets
/// begin_op distinguish a driver thread (immediate mailbox push) from a
/// completion callback on a worker (batch through the worker's outbox).
thread_local ThreadedRuntime* tl_worker_runtime = nullptr;
thread_local std::size_t tl_worker_index = 0;

}  // namespace

struct ThreadedRuntime::Shard {
  Shard(std::size_t idx, std::size_t n, std::size_t num_shards, Rng shard_rng)
      : index(idx), outbox(num_shards), rng(shard_rng), metrics(n) {}

  const std::size_t index;
  Mailbox mailbox;

  /// Monotone count of events this shard has handled. Relaxed bumps by
  /// the owner; exact for readers ordered after it through the
  /// in-flight acq_rel chain (see ThreadedRuntime::events_processed).
  ///
  /// alignas: bumped by the owner once per event, so it must not share
  /// a line with the tail of `mailbox` (whose pending_/owner_waiting_
  /// producers hammer from other threads).
  alignas(64) std::atomic<std::int64_t> events_processed{0};

  // Owner-thread-only state below. alignas: `batch` starts a fresh
  // line so the owner's hottest private state (drain target, ready
  // queues) never shares a line with the observer-read gauge above.
  alignas(64) std::vector<RuntimeEvent> batch;  ///< drain target, reused
  /// The generation queues (see run_shard_pass). `running` is the
  /// generation being handled, front to back; handlers, completion-
  /// driven starts and the mailbox append the next one to `ready`.
  /// Both are reused, so they are sized by the widest generation, not
  /// by the length of the run.
  std::vector<RuntimeEvent> ready;
  std::vector<RuntimeEvent> running;
  /// Largest generation run so far (ThreadedRuntime::ready_high_water).
  std::size_t ready_high_water{0};
  /// Cross-shard events staged per destination, flushed by flush_shard
  /// with one push_all per dirty destination. The vectors are reused
  /// (push_all clears without releasing capacity), so steady-state
  /// cross-shard traffic allocates nothing here.
  std::vector<std::vector<RuntimeEvent>> outbox;
  std::vector<std::size_t> outbox_dirty;  ///< dsts with staged events
  /// Messages addressed to processors another node owns (cluster mode),
  /// staged until flush_shard hands them to the remote sink. These hold
  /// no in-flight count: local accounting ends at the sink boundary and
  /// the wire send/receive conservation check takes over.
  std::vector<Message> remote_out;
  /// Deferred in_flight_ deltas: events created (sends, timers, starts
  /// issued from this worker) and events finished since the last flush.
  /// flush_shard applies adds before subtracts.
  std::int64_t pending_sends{0};
  std::int64_t finished{0};
  std::size_t events_since_flush{0};
  std::vector<TimerEntry> timers;  ///< min-heap (TimerLater)
  std::uint64_t timer_seq{0};
  /// Armed wall-clock timers (hosting, where the shard is driven by
  /// its owner thread and this is read only there).
  std::int64_t timers_armed{0};
  /// Logical clock: advances by one per processed event, and jumps to
  /// the earliest timer deadline when the worker runs dry (the
  /// simulator's idle time-jump, per worker).
  SimTime clock{0};
  Rng rng;
  Metrics metrics;

  void stage(std::size_t dst, RuntimeEvent ev) {
    auto& out = outbox[dst];
    if (out.empty()) outbox_dirty.push_back(dst);
    out.push_back(std::move(ev));
  }
};

/// Per-worker Context. Mirrors the Simulator's handler guard rails:
/// send/send_local/complete only inside a handler, bounds checks, op
/// inheritance from the event being handled.
class ThreadedRuntime::WorkerCtx final : public Context {
 public:
  WorkerCtx(ThreadedRuntime* rt, Shard* shard) : rt_(rt), shard_(shard) {}

  void send(Message msg) override {
    DCNT_CHECK_MSG(in_handler_, "send() outside a handler");
    DCNT_CHECK(msg.src >= 0 &&
               static_cast<std::size_t>(msg.src) < rt_->num_processors());
    DCNT_CHECK(msg.dst >= 0 &&
               static_cast<std::size_t>(msg.dst) < rt_->num_processors());
    DCNT_CHECK(!msg.local);
    if (msg.op == kNoOp) msg.op = current_op_;
    if (msg.src != msg.dst) {
      shard_->metrics.on_send(msg.src, msg.op, msg.size_words(), msg.key);
    }
    if (!rt_->owns(msg.dst)) {
      // Another node's processor: stage for the remote sink. The send
      // was counted above (a remote dst is never the local src); the
      // receive is counted by the destination node on delivery, so the
      // cluster-wide ledger matches the simulator's.
      shard_->remote_out.push_back(std::move(msg));
      return;
    }
    RuntimeEvent ev;
    ev.kind = RuntimeEvent::Kind::kMessage;
    const std::size_t dst_shard = rt_->shard_of(msg.dst);
    ev.msg = std::move(msg);
    ++shard_->pending_sends;
    if (&*rt_->shards_[dst_shard] == shard_) {
      // Same shard: skip the mailbox, the owner is this thread.
      shard_->ready.push_back(std::move(ev));
    } else {
      shard_->stage(dst_shard, std::move(ev));
    }
  }

  void send_local(ProcessorId p, std::int32_t tag, MessageArgs args,
                  SimTime delay) override {
    DCNT_CHECK_MSG(in_handler_, "send_local() outside a handler");
    DCNT_CHECK(p >= 0 && static_cast<std::size_t>(p) < rt_->num_processors());
    DCNT_CHECK(delay >= 1);
    Message msg;
    msg.src = p;
    msg.dst = p;
    msg.tag = tag;
    msg.op = current_op_;
    msg.args = std::move(args);
    msg.local = true;
    // The Context contract: p is the handler's own processor, so the
    // timer is armed on this shard against this shard's clock.
    DCNT_CHECK_MSG(rt_->owns(p) && &*rt_->shards_[rt_->shard_of(p)] == shard_,
                   "send_local at a processor another shard owns");
    const bool wall = rt_->hosted_;
    TimerEntry t;
    t.due = wall ? rt_->wall_now_us() + delay * rt_->tick_us_
                 : shard_->clock + delay;
    t.seq = shard_->timer_seq++;
    t.msg = std::move(msg);
    shard_->timers.push_back(std::move(t));
    std::push_heap(shard_->timers.begin(), shard_->timers.end(),
                   TimerLater{});
    if (wall) {
      // Armed wall timers do NOT hold the in-flight count: the
      // controller must be able to see "idle except for armed timers"
      // to trigger the distributed time jump, and a timer pinning
      // in_flight above zero would deadlock that very observation. The
      // armed count is published separately.
      ++shard_->timers_armed;
    } else {
      ++shard_->pending_sends;
    }
  }

  void complete(OpId op, Value value) override {
    DCNT_CHECK_MSG(in_handler_, "complete() outside a handler");
    DCNT_CHECK(op >= 0 &&
               static_cast<std::size_t>(op) <
                   rt_->next_op_.load(std::memory_order_acquire));
    auto& done = rt_->done_[static_cast<std::size_t>(op)];
    DCNT_CHECK_MSG(done.load(std::memory_order_relaxed) == 0,
                   "operation completed twice");
    rt_->results_[static_cast<std::size_t>(op)] = value;
    done.store(1, std::memory_order_release);
    rt_->completed_.fetch_add(1, std::memory_order_acq_rel);
    if (rt_->completion_) rt_->completion_(op, value);
  }

  SimTime now() const override { return shard_->clock; }
  Rng& rng() override { return shard_->rng; }

  void run(const RuntimeEvent& ev) {
    in_handler_ = true;
    current_op_ = ev.msg.op;
    if (ev.kind == RuntimeEvent::Kind::kStart) {
      if (ev.msg.args.empty()) {
        rt_->protocol_->start_inc(*this, ev.msg.dst, ev.msg.op);
      } else {
        rt_->protocol_->start_op(*this, ev.msg.dst, ev.msg.op, ev.msg.args);
      }
    } else {
      rt_->protocol_->on_message(*this, ev.msg);
    }
    in_handler_ = false;
    current_op_ = kNoOp;
  }

 private:
  ThreadedRuntime* rt_;
  Shard* shard_;
  OpId current_op_{kNoOp};
  bool in_handler_{false};
};

ThreadedRuntime::ThreadedRuntime(std::unique_ptr<CounterProtocol> protocol,
                                 RuntimeConfig config)
    : protocol_(std::move(protocol)),
      config_(config),
      num_processors_(0),
      results_(config.max_ops, 0),
      done_(config.max_ops) {
  DCNT_CHECK(protocol_ != nullptr);
  num_processors_ = protocol_->num_processors();
  DCNT_CHECK(num_processors_ > 0);
  DCNT_CHECK(config_.flush_batch >= 1);
  if (config_.hosting) {
    const NodeHosting& h = *config_.hosting;
    DCNT_CHECK_MSG(config_.workers == 1, "hosting requires workers == 1");
    DCNT_CHECK_MSG(h.node_id < h.nodes, "hosting requires node_id < nodes");
    DCNT_CHECK(h.tick_us >= 1);
    nodes_ = h.nodes;
    node_id_ = h.node_id;
    hosted_ = true;
    tick_us_ = h.tick_us;
  }
  t0_ = std::chrono::steady_clock::now();
  const std::size_t w = resolve_thread_count(config_.workers);
  DCNT_CHECK_MSG(w == 1 || protocol_->shard_safe(),
                 "protocol declines sharded execution (shard_safe)");
  if (config_.active_shards != 0) {
    active_shards_ = std::min(config_.active_shards, w);
  } else {
    const std::size_t cores = std::thread::hardware_concurrency();
    active_shards_ = std::min(w, cores == 0 ? w : cores);
  }
  if (active_shards_ == 0) active_shards_ = 1;
  protocol_->on_shard_start(w);
  Rng base(config_.seed);
  shards_.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(i, num_processors_, w, base.fork(i + 1)));
  }
  placement_plan_ = plan_placement(config_.placement, w);
  placement_supported_ =
      config_.placement == Placement::kNone || placement_plan_.supported;
  if (hosted_) {
    inline_ctx_ = std::make_unique<WorkerCtx>(this, shards_[0].get());
    // The embedding thread IS the shard; pin it here if asked, since
    // there is no worker_main to do it.
    if (pin_thread_to_cpu(placement_plan_.cpu_for(0))) {
      pinned_workers_.fetch_add(1, std::memory_order_acq_rel);
    }
    return;  // no threads: the embedding thread calls drive()
  }
  threads_.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadedRuntime::~ThreadedRuntime() { stop(); }

OpId ThreadedRuntime::begin_op(ProcessorId origin, MessageArgs args) {
  DCNT_CHECK(origin >= 0 &&
             static_cast<std::size_t>(origin) < num_processors_);
  DCNT_CHECK(!stop_.load(std::memory_order_acquire));
  const std::size_t op = next_op_.fetch_add(1, std::memory_order_acq_rel);
  DCNT_CHECK_MSG(op < config_.max_ops,
                 "operation table full (raise RuntimeConfig::max_ops)");
  RuntimeEvent ev;
  ev.kind = RuntimeEvent::Kind::kStart;
  ev.msg.src = origin;
  ev.msg.dst = origin;
  ev.msg.op = static_cast<OpId>(op);
  ev.msg.args = std::move(args);
  const std::size_t dst_shard = shard_of(origin);
  if (tl_worker_runtime == this) {
    // On a worker thread (completion-driven issuance): defer the
    // in-flight add and batch the start like any cross-shard event. The
    // deferral is safe because this worker's current event has not been
    // subtracted yet, so in_flight_ stays positive until flush_shard
    // applies adds-then-subtracts.
    Shard& me = *shards_[tl_worker_index];
    ++me.pending_sends;
    if (dst_shard == tl_worker_index) {
      me.ready.push_back(std::move(ev));
    } else {
      me.stage(dst_shard, std::move(ev));
    }
  } else {
    // The increment precedes the push (sequenced-before), so in_flight_
    // can never read zero while this event is invisible.
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    shards_[dst_shard]->mailbox.push(std::move(ev));
  }
  return static_cast<OpId>(op);
}

void ThreadedRuntime::wait_quiescent() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

std::optional<Value> ThreadedRuntime::result(OpId op) const {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) <
                            next_op_.load(std::memory_order_acquire));
  if (done_[static_cast<std::size_t>(op)].load(std::memory_order_acquire) ==
      0) {
    return std::nullopt;
  }
  return results_[static_cast<std::size_t>(op)];
}

Metrics ThreadedRuntime::merged_metrics() const {
  DCNT_CHECK_MSG(in_flight_.load(std::memory_order_acquire) == 0,
                 "merged_metrics requires quiescence");
  Metrics out(num_processors_);
  for (const auto& shard : shards_) out.merge_from(shard->metrics);
  return out;
}

void ThreadedRuntime::reset_metrics() {
  DCNT_CHECK_MSG(in_flight_.load(std::memory_order_acquire) == 0,
                 "reset_metrics requires quiescence");
  for (auto& shard : shards_) shard->metrics.reset();
}

void ThreadedRuntime::stop() {
  if (!stop_.exchange(true, std::memory_order_acq_rel)) {
    for (auto& shard : shards_) shard->mailbox.wake();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }
}

void ThreadedRuntime::flush_shard(Shard& shard) {
  if (shard.pending_sends != 0) {
    in_flight_.fetch_add(shard.pending_sends, std::memory_order_acq_rel);
    shard.pending_sends = 0;
  }
  for (std::size_t dst : shard.outbox_dirty) {
    shards_[dst]->mailbox.push_all(shard.outbox[dst]);
  }
  // Remote messages leave strictly before the finished-subtraction
  // below: once in_flight reads zero, the sink already holds
  // everything the handlers produced.
  if (!shard.remote_out.empty()) {
    remote_sink_(shard.index, shard.remote_out);
    shard.remote_out.clear();
  }
  shard.outbox_dirty.clear();
  shard.events_since_flush = 0;
  if (shard.finished != 0) {
    const std::int64_t n = shard.finished;
    shard.finished = 0;
    if (in_flight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      // Notify under the mutex so a waiter cannot check the predicate
      // and sleep between our decrement and our notify.
      std::lock_guard<std::mutex> lock(quiesce_mu_);
      quiesce_cv_.notify_all();
    }
  }
}

void ThreadedRuntime::process_event(Shard& shard, WorkerCtx& ctx,
                                    RuntimeEvent& ev) {
  if (ev.kind == RuntimeEvent::Kind::kMessage && !ev.msg.local &&
      ev.msg.src != ev.msg.dst) {
    shard.metrics.on_receive(ev.msg.dst, ev.msg.size_words(), ev.msg.key);
  }
  ctx.run(ev);
  ++shard.clock;
  ++shard.finished;
  ++shard.events_since_flush;
  shard.events_processed.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedRuntime::fire_timer(Shard& shard, WorkerCtx& ctx) {
  // An armed wall timer holds no in-flight count, so firing it creates
  // the event it becomes. (Logical mode: armed timers already hold
  // in-flight via pending_sends; the add would double-count.)
  if (hosted_) {
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    --shard.timers_armed;
  }
  std::pop_heap(shard.timers.begin(), shard.timers.end(), TimerLater{});
  RuntimeEvent ev;
  ev.kind = RuntimeEvent::Kind::kMessage;
  ev.msg = std::move(shard.timers.back().msg);
  shard.timers.pop_back();
  process_event(shard, ctx, ev);
}

bool ThreadedRuntime::run_shard_pass(Shard& shard, WorkerCtx& ctx) {
  const bool wall = hosted_;
  bool ran = false;
  for (;;) {
    // 1. Generation boundary: admit the mailbox behind the previous
    //    generation's output, in arrival order. Other threads' pushes
    //    therefore wait at most one generation, not until the pass runs
    //    dry.
    if (shard.mailbox.drain(shard.batch)) {
      for (auto& ev : shard.batch) shard.ready.push_back(std::move(ev));
    }
    // 2. Run one generation front to back while handlers append the
    //    next one to the emptied `ready`. A FIFO whose appends go to
    //    its tail is processed in exactly this order, so delivery order
    //    and per-op attribution match a single queue; only the memory
    //    is bounded by the in-flight window instead of the run length.
    //    Cross-shard output is flushed every flush_batch events so
    //    peers are fed even while this worker stays busy.
    if (!shard.ready.empty()) {
      shard.ready_high_water =
          std::max(shard.ready_high_water, shard.ready.size());
      std::swap(shard.running, shard.ready);
      for (RuntimeEvent& ev : shard.running) {
        if (ev.kind == RuntimeEvent::Kind::kFireTimers) {
          // The distributed time jump: the controller certified global
          // idleness, so every armed deadline is unreachable any other
          // way. Budget = the count at the marker, not "until empty":
          // a fired retransmit handler re-arms its next attempt, and
          // firing that too would melt the backoff schedule. The
          // marker itself is bookkeeping, not progress — finished++
          // (balancing its injection hold) without events_processed.
          std::size_t budget = shard.timers.size();
          while (budget-- > 0) {
            fire_timer(shard, ctx);
            if (shard.events_since_flush >= config_.flush_batch) {
              flush_shard(shard);
            }
          }
          ++shard.finished;
        } else {
          process_event(shard, ctx, ev);
        }
        if (shard.events_since_flush >= config_.flush_batch) {
          flush_shard(shard);
        }
      }
      shard.running.clear();
      ran = true;
      continue;
    }
    // 3. Both queues are empty: a timer whose deadline the advancing
    //    clock has passed seeds the next generation.
    if (!shard.timers.empty() &&
        shard.timers.front().due <= (wall ? wall_now_us() : shard.clock)) {
      fire_timer(shard, ctx);
      ran = true;
      if (shard.events_since_flush >= config_.flush_batch) {
        flush_shard(shard);
      }
      continue;
    }
    break;
  }
  // Dry point: hand off staged cross-shard events and settle the
  // in-flight ledger before idling (a dirty outbox here would starve
  // peers and could deadlock the quiescence wait).
  flush_shard(shard);
  return ran;
}

void ThreadedRuntime::worker_main(std::size_t worker) {
  tl_worker_runtime = this;
  tl_worker_index = worker;
  // Placement applies before the first event: a handler's very first
  // cache misses should already land on the planned core.
  if (pin_thread_to_cpu(placement_plan_.cpu_for(worker))) {
    pinned_workers_.fetch_add(1, std::memory_order_acq_rel);
  }
  Shard& shard = *shards_[worker];
  WorkerCtx ctx(this, &shard);
  while (!stop_.load(std::memory_order_acquire)) {
    // Recheck the mailbox after any productive pass before idling.
    if (run_shard_pass(shard, ctx)) continue;
    if (!shard.timers.empty()) {
      // 3. Logical timers: jump the clock (the simulator does the same
      //    across its global queue) so windows/timeouts fire rather
      //    than deadlock a drained system.
      shard.clock = shard.timers.front().due;
      continue;
    }
    // 4. Nothing to do: sleep until mail or stop.
    shard.mailbox.wait(stop_);
  }
  tl_worker_runtime = nullptr;
}

bool ThreadedRuntime::drive() {
  DCNT_CHECK_MSG(hosted_, "drive() is only for hosted runtimes");
  // The caller's thread IS the worker for the duration of the pass, so
  // handler re-entry (begin_op from a completion callback) takes the
  // deferred-batch path exactly as it would on a spawned worker. Due
  // wall timers fire inside the pass; the driving loop clamps its
  // kernel wait to inline_timer_wait_us.
  tl_worker_runtime = this;
  tl_worker_index = 0;
  const bool any = run_shard_pass(*shards_[0], *inline_ctx_);
  tl_worker_runtime = nullptr;
  return any;
}

std::int64_t ThreadedRuntime::inline_timer_wait_us() const {
  DCNT_CHECK_MSG(hosted_,
                 "inline_timer_wait_us() is only for hosted runtimes");
  const Shard& shard = *shards_[0];
  if (shard.timers.empty()) return -1;
  const std::int64_t wait = shard.timers.front().due - wall_now_us();
  return wait > 0 ? wait : 0;
}

void ThreadedRuntime::inject(std::size_t shard, std::vector<RuntimeEvent>& evs) {
  if (evs.empty()) return;
  DCNT_CHECK(shard < active_shards_);
  // Add-before-push: in_flight_ can never read zero while the batch is
  // invisible to the worker.
  in_flight_.fetch_add(static_cast<std::int64_t>(evs.size()),
                       std::memory_order_acq_rel);
  shards_[shard]->mailbox.push_all(evs);
}

void ThreadedRuntime::register_external_op(OpId op) {
  DCNT_CHECK(op >= 0);
  const std::size_t want = static_cast<std::size_t>(op) + 1;
  DCNT_CHECK_MSG(want <= config_.max_ops,
                 "operation table full (raise RuntimeConfig::max_ops)");
  std::size_t cur = next_op_.load(std::memory_order_acquire);
  while (cur < want && !next_op_.compare_exchange_weak(
                           cur, want, std::memory_order_acq_rel,
                           std::memory_order_acquire)) {
  }
}

std::int64_t ThreadedRuntime::events_processed() const {
  std::int64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->events_processed.load(std::memory_order_relaxed);
  }
  return sum;
}

std::size_t ThreadedRuntime::ready_high_water() const {
  DCNT_CHECK_MSG(in_flight_.load(std::memory_order_acquire) == 0,
                 "ready_high_water requires quiescence");
  std::size_t most = 0;
  for (const auto& shard : shards_) {
    most = std::max(most, shard->ready_high_water);
  }
  return most;
}

std::int64_t ThreadedRuntime::timers_armed() const {
  std::int64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->timers_armed;
  return sum;
}

}  // namespace dcnt
