#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace dcnt {

Simulator::Simulator(std::unique_ptr<CounterProtocol> protocol,
                     SimConfig config)
    : protocol_(std::move(protocol)),
      config_(config),
      rng_(config.seed),
      faults_(config.faults, config.seed),
      metrics_(protocol_->num_processors()),
      trace_(config.enable_trace) {
  DCNT_CHECK(protocol_ != nullptr);
  DCNT_CHECK(protocol_->num_processors() > 0);
  if (config_.topology != nullptr) {
    DCNT_CHECK_MSG(static_cast<std::size_t>(config_.topology->num_nodes()) >=
                       protocol_->num_processors(),
                   "topology smaller than the processor set");
  }
  // Pre-size the hot storage: dry-run clones live for exactly one op,
  // so growth-by-doubling would otherwise dominate their allocation
  // profile.
  queue_.reserve(64);
  const std::size_t n = protocol_->num_processors();
  results_.reserve(n);
  invoked_at_.reserve(n);
  responded_at_.reserve(n);
}

Simulator::Simulator(const Simulator& other)
    : protocol_(other.protocol_->clone_counter()),
      config_(other.config_),
      rng_(other.rng_),
      faults_(other.faults_),
      queue_(other.queue_),
      channel_last_(other.channel_last_),
      metrics_(other.metrics_),
      trace_(other.trace_),
      results_(other.results_),
      invoked_at_(other.invoked_at_),
      responded_at_(other.responded_at_),
      completed_(other.completed_),
      now_(other.now_),
      seq_(other.seq_),
      deliveries_(other.deliveries_) {
  DCNT_CHECK_MSG(!other.in_handler_, "cannot clone mid-delivery");
}

Simulator& Simulator::operator=(const Simulator& other) {
  restore(other);
  return *this;
}

void Simulator::restore(const Simulator& other) {
  if (this == &other) return;
  DCNT_CHECK_MSG(!other.in_handler_, "cannot snapshot mid-delivery");
  DCNT_CHECK_MSG(!in_handler_, "cannot restore mid-delivery");
  // Copy-assignment everywhere on purpose: vectors (queue, metrics,
  // trace, results) overwrite their existing elements and keep their
  // capacity, so a scratch simulator that has been restored once stops
  // allocating on subsequent restores. The protocol joins in when its
  // concrete type matches (try_assign_from); otherwise fall back to a
  // fresh clone.
  if (protocol_ == nullptr || !protocol_->try_assign_from(*other.protocol_)) {
    protocol_ = other.protocol_->clone_counter();
  }
  config_ = other.config_;  // topology is a shared immutable pointer
  rng_ = other.rng_;
  faults_ = other.faults_;
  queue_ = other.queue_;
  channel_last_ = other.channel_last_;
  metrics_ = other.metrics_;
  trace_ = other.trace_;
  results_ = other.results_;
  invoked_at_ = other.invoked_at_;
  responded_at_ = other.responded_at_;
  completed_ = other.completed_;
  now_ = other.now_;
  seq_ = other.seq_;
  deliveries_ = other.deliveries_;
  current_parent_ = kNoRecord;
  current_op_ = kNoOp;
  in_handler_ = false;
}

OpId Simulator::begin_inc(ProcessorId origin) {
  return begin_op(origin, {});
}

OpId Simulator::begin_op(ProcessorId origin, const MessageArgs& args) {
  DCNT_CHECK(origin >= 0 &&
             static_cast<std::size_t>(origin) < num_processors());
  const OpId op = static_cast<OpId>(results_.size());
  results_.emplace_back(std::nullopt);
  invoked_at_.push_back(now_);
  responded_at_.push_back(-1);
  DCNT_CHECK(!in_handler_);
  in_handler_ = true;
  current_parent_ = kNoRecord;
  current_op_ = op;
  if (args.empty()) {
    protocol_->start_inc(*this, origin, op);
  } else {
    protocol_->start_op(*this, origin, op, args);
  }
  in_handler_ = false;
  current_op_ = kNoOp;
  return op;
}

SimTime Simulator::op_invoked_at(OpId op) const {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) < invoked_at_.size());
  return invoked_at_[static_cast<std::size_t>(op)];
}

SimTime Simulator::op_responded_at(OpId op) const {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) < responded_at_.size());
  const SimTime t = responded_at_[static_cast<std::size_t>(op)];
  DCNT_CHECK_MSG(t >= 0, "operation has not completed");
  return t;
}

void Simulator::send(Message msg) {
  DCNT_CHECK_MSG(in_handler_, "send() outside a handler");
  DCNT_CHECK(msg.src >= 0 &&
             static_cast<std::size_t>(msg.src) < num_processors());
  DCNT_CHECK(msg.dst >= 0 &&
             static_cast<std::size_t>(msg.dst) < num_processors());
  DCNT_CHECK(!msg.local);
  if (msg.op == kNoOp) msg.op = current_op_;  // inherit from context
  const bool counted = msg.src != msg.dst;
  // On a sparse network the message physically travels to the route's
  // first hop; self-sends stay local either way.
  const ProcessorId first_hop =
      counted && config_.topology != nullptr
          ? config_.topology->next_hop(msg.src, msg.dst)
          : msg.dst;
  RecordId rec = kNoRecord;
  if (counted) {
    metrics_.on_send(msg.src, msg.op, msg.size_words(), msg.key);
    Message hop_view = msg;
    hop_view.dst = first_hop;  // trace records physical hops
    rec = trace_.on_send(current_parent_, hop_view, msg.op, now_);
  }
  const RecordId cause = rec != kNoRecord ? rec : current_parent_;
  const ProcessorId hop_src = msg.src;
  const std::int64_t ttl = 4 * static_cast<std::int64_t>(num_processors()) + 8;
  enqueue_hop(std::move(msg), hop_src, first_hop, rec, cause, ttl);
}

void Simulator::send_local(ProcessorId p, std::int32_t tag, MessageArgs args,
                           SimTime delay) {
  DCNT_CHECK_MSG(in_handler_, "send_local() outside a handler");
  DCNT_CHECK(p >= 0 && static_cast<std::size_t>(p) < num_processors());
  DCNT_CHECK(delay >= 1);
  Message msg;
  msg.src = p;
  msg.dst = p;
  msg.tag = tag;
  msg.op = current_op_;
  msg.args = std::move(args);
  msg.local = true;
  Event ev;
  ev.deliver_time = now_ + delay;
  ev.seq = seq_++;
  ev.record = kNoRecord;
  ev.cause = current_parent_;
  ev.at = p;
  ev.msg = std::move(msg);
  queue_.push_back(std::move(ev));
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
}

void Simulator::enqueue_hop(Message msg, ProcessorId hop_src,
                            ProcessorId hop_dst, RecordId record,
                            RecordId cause, std::int64_t ttl) {
  if (faults_.active() && !msg.local && hop_src != hop_dst) {
    switch (faults_.on_send(hop_src, hop_dst)) {
      case FaultPlane::SendFault::kDrop:
        // The sender's load and the trace send record stand (it really
        // transmitted); the hop just never reaches the queue.
        return;
      case FaultPlane::SendFault::kDuplicate:
        // A second copy with its own delay draw. Untraced (record-less)
        // so the causal trace keeps one delivery per send record.
        raw_enqueue(msg, hop_src, hop_dst, kNoRecord, cause, ttl);
        break;
      case FaultPlane::SendFault::kDeliver:
        break;
    }
  }
  raw_enqueue(std::move(msg), hop_src, hop_dst, record, cause, ttl);
}

void Simulator::raw_enqueue(Message msg, ProcessorId hop_src,
                            ProcessorId hop_dst, RecordId record,
                            RecordId cause, std::int64_t ttl) {
  Event ev;
  const SimTime delay = config_.delay.sample_for(rng_, hop_src, hop_dst);
  ev.deliver_time = now_ + delay;
  if (config_.fifo_channels && !msg.local && hop_src != hop_dst) {
    auto& last = channel_last_[channel_key(hop_src, hop_dst)];
    if (ev.deliver_time < last) ev.deliver_time = last;
    last = ev.deliver_time;
  }
  ev.seq = seq_++;
  ev.record = record;
  ev.cause = cause;
  ev.at = hop_dst;
  ev.ttl = ttl;
  ev.msg = std::move(msg);
  queue_.push_back(std::move(ev));
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
}

void Simulator::complete(OpId op, Value value) {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) < results_.size());
  auto& slot = results_[static_cast<std::size_t>(op)];
  DCNT_CHECK_MSG(!slot.has_value(), "operation completed twice");
  slot = value;
  responded_at_[static_cast<std::size_t>(op)] = now_;
  ++completed_;
  if (completion_) completion_(op, value);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  DCNT_CHECK(ev.deliver_time >= now_);
  deliver(std::move(ev));
  return true;
}

void Simulator::step_specific(std::size_t index) {
  DCNT_CHECK(index < queue_.size());
  // FIFO channels constrain realizable orders via delivery-time floors;
  // delivering by send index ignores those floors, so the combination
  // would explore schedules the configuration forbids.
  DCNT_CHECK_MSG(!config_.fifo_channels,
                 "step_specific is not meaningful with fifo_channels");
  // Find the `index`-th pending event by send order without draining
  // the heap: rank positions by seq, splice the chosen one out, and
  // re-heapify. O(queue log queue) — exploration runs on tiny systems.
  std::vector<std::size_t> order(queue_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return queue_[a].seq < queue_[b].seq;
  });
  const std::size_t pos = order[index];
  Event chosen = std::move(queue_[pos]);
  if (pos + 1 != queue_.size()) queue_[pos] = std::move(queue_.back());
  queue_.pop_back();
  std::make_heap(queue_.begin(), queue_.end(), EventLater{});
  // Arbitrary-order delivery: pretend the chosen message was the fast
  // one (its nominal time may lie ahead of the clock).
  if (chosen.deliver_time < now_) chosen.deliver_time = now_;
  deliver(std::move(chosen));
}

void Simulator::deliver(Event ev) {
  if (faults_.active()) {
    const SimTime at = std::max(now_, ev.deliver_time);
    if (faults_.crashed_at(ev.at, at)) {
      now_ = at;
      if (ev.msg.local) {
        const SimTime recovery = faults_.recovery_time(ev.at, at);
        if (recovery >= 0) {
          // Crash-recover: the timer survives the reboot and fires at
          // the recovery instant.
          faults_.note_deferred_timer();
          ev.deliver_time = recovery;
          queue_.push_back(std::move(ev));
          std::push_heap(queue_.begin(), queue_.end(), EventLater{});
          return;
        }
      }
      // Crashed destination: the message is lost. No receive is
      // counted — a dead processor bears no load.
      faults_.note_crash_drop();
      return;
    }
  }
  now_ = std::max(now_, ev.deliver_time);
  ++deliveries_;
  const bool counted = !ev.msg.local && ev.msg.src != ev.msg.dst;
  if (counted) {
    metrics_.on_receive(ev.at, ev.msg.size_words(), ev.msg.key);
    trace_.on_deliver(ev.record, now_);
  }
  if (ev.at != ev.msg.dst) {
    // Intermediate router: forward along the topology's route. The
    // router's receive above and this send both count — that is the
    // point of modelling sparse networks.
    DCNT_CHECK(config_.topology != nullptr);
    DCNT_CHECK_MSG(ev.ttl > 0, "routing loop (ttl exhausted)");
    const ProcessorId next =
        config_.topology->next_hop(ev.at, ev.msg.dst);
    metrics_.on_send(ev.at, ev.msg.op, ev.msg.size_words(), ev.msg.key);
    RecordId rec = kNoRecord;
    if (trace_.enabled()) {
      Message hop_view = ev.msg;
      hop_view.src = ev.at;
      hop_view.dst = next;
      rec = trace_.on_send(ev.record != kNoRecord ? ev.record : ev.cause,
                           hop_view, ev.msg.op, now_);
    }
    const RecordId cause = rec != kNoRecord ? rec : ev.cause;
    const ProcessorId hop_src = ev.at;
    enqueue_hop(std::move(ev.msg), hop_src, next, rec, cause, ev.ttl - 1);
    return;
  }
  DCNT_CHECK(!in_handler_);
  in_handler_ = true;
  current_parent_ = ev.cause;
  current_op_ = ev.msg.op;
  protocol_->on_message(*this, ev.msg);
  in_handler_ = false;
  current_parent_ = kNoRecord;
  current_op_ = kNoOp;
}

void Simulator::run_until_quiescent(std::int64_t max_steps) {
  std::int64_t steps = 0;
  while (step()) {
    ++steps;
    DCNT_CHECK_MSG(steps <= max_steps,
                   "protocol failed to quiesce within max_steps");
  }
}

std::optional<Value> Simulator::result(OpId op) const {
  DCNT_CHECK(op >= 0 && static_cast<std::size_t>(op) < results_.size());
  return results_[static_cast<std::size_t>(op)];
}

}  // namespace dcnt
