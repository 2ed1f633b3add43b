// Discrete-event simulator for the paper's asynchronous message-passing
// model (§2): n processors, any-to-any channels, unbounded-but-finite
// delays, and — by default — no failures. Faults (message drop,
// duplication, processor crash) are opt-in via SimConfig::faults and
// injected deterministically by a FaultPlane (faults/fault_plane.hpp);
// an empty schedule leaves every run bit-identical to the fault-free
// model.
//
// Determinism & reproducibility: delivery order is a pure function of
// (protocol, config.seed). Cloning a Simulator (copy construction)
// deep-copies the protocol state, event queue, random stream, metrics
// and trace, which is what the lower-bound adversary uses to dry-run
// candidate operations.
//
// Message accounting: every cross-processor send increments the
// sender's and (on delivery) the receiver's load — the m_p of §3.
// Self-addressed sends (src == dst) are delivered through the queue for
// uniformity but are NOT counted: a processor talking to itself is a
// local operation, not network traffic, and the paper counts messages
// between processors. Local wake-ups (send_local) are likewise uncounted.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "faults/fault_plane.hpp"
#include "sim/delay.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace dcnt {

struct SimConfig {
  std::uint64_t seed{1};
  DelayModel delay{};
  /// Enforce per-(src,dst) FIFO delivery. The paper's model does not
  /// require it; the tree counter must work either way (tested).
  bool fifo_channels{false};
  /// Record the causal message trace (needed for DAG/list analysis;
  /// costs memory on big runs).
  bool enable_trace{false};
  /// Optional sparse network: logical messages are relayed hop by hop
  /// along the topology's route, every hop counted as one message at
  /// both endpoints (routers bear load). Null = the paper's complete
  /// network (direct delivery). Must cover >= the protocol's processor
  /// count. Shared (immutable) between simulator clones.
  std::shared_ptr<const Topology> topology{};
  /// Optional fault injection (drop / duplicate / crash). The plane is
  /// seeded from `seed` with its own stream, so an empty schedule (the
  /// default) changes nothing — not even the delay-randomness draws.
  FaultSchedule faults{};
};

class Simulator final : private Context {
 public:
  /// Runs inside the completing handler, so it must not start an op: a
  /// driver notes the completion and issues after step() returns.
  using CompletionFn = std::function<void(OpId op, Value value)>;

  Simulator(std::unique_ptr<CounterProtocol> protocol, SimConfig config);

  /// Deep snapshot (protocol cloned; queue, rng, metrics, trace copied;
  /// never the completion hook, so dry runs stay hook-free).
  Simulator(const Simulator& other);
  /// Same as restore(other); kept assignment-shaped for value semantics.
  Simulator& operator=(const Simulator& other);
  Simulator(Simulator&&) noexcept = default;
  Simulator& operator=(Simulator&&) noexcept = default;
  ~Simulator() override = default;

  void set_completion(CompletionFn fn) { completion_ = std::move(fn); }

  /// Initiate an inc at `origin`; returns the operation's id (0,1,2,...).
  OpId begin_inc(ProcessorId origin);

  /// Initiate a generic operation with arguments (for protocols beyond
  /// plain counters, e.g. the tree priority queue). Counters treat it
  /// as an inc.
  OpId begin_op(ProcessorId origin, const MessageArgs& args);

  /// Invocation / response times of an operation (response only after
  /// completion) — the history the linearizability checker consumes.
  SimTime op_invoked_at(OpId op) const;
  SimTime op_responded_at(OpId op) const;

  /// Deliver the next pending message. Returns false when idle.
  bool step();

  /// Deliver the `index`-th pending message (0 <= index <
  /// pending_messages(), ordered by send sequence) regardless of its
  /// scheduled time — the asynchronous model permits any order, and the
  /// schedule explorer (analysis/explore.hpp) uses this to enumerate
  /// them exhaustively. Not meaningful with fifo_channels (enforced:
  /// DCNT_CHECK).
  void step_specific(std::size_t index);

  /// Deliver messages until none remain. Aborts (DCNT_CHECK) after
  /// `max_steps` deliveries — a protocol that never quiesces is a bug.
  void run_until_quiescent(std::int64_t max_steps = 100'000'000);

  /// Replaces the delivery-randomness stream AND forgets accumulated
  /// per-channel FIFO state. The paper's adversary quantifies over all
  /// nondeterministic processes; reseeding clones lets the analysis
  /// layer sample several realizable schedules per candidate operation,
  /// and each sample must be a function of (state, seed) alone — stale
  /// channel_last_ entries would couple samples through delivery floors
  /// inherited from a previous schedule draw.
  void reseed(std::uint64_t seed) {
    rng_ = Rng(seed);
    faults_.reseed(seed);
    channel_last_.clear();
  }

  /// Deep copy, named for symmetry with restore().
  Simulator snapshot() const { return Simulator(*this); }

  /// Re-applies `snapshot`'s state into this simulator in place,
  /// reusing already-allocated buffers (event vector, metrics, trace,
  /// result slots, and — when the protocol types match — the protocol's
  /// own storage). Semantically identical to `*this = snapshot` but
  /// cheap: this is how the adversary and explorer recycle one scratch
  /// simulator per worker instead of deep-allocating a clone per
  /// dry-run.
  void restore(const Simulator& snapshot);

  bool quiescent() const { return queue_.empty(); }
  std::size_t pending_messages() const { return queue_.size(); }
  /// Channels with recorded FIFO delivery state (empty unless
  /// fifo_channels; cleared by reseed() — tests pin that contract).
  std::size_t tracked_fifo_channels() const { return channel_last_.size(); }

  std::optional<Value> result(OpId op) const;
  std::size_t ops_started() const { return results_.size(); }
  std::size_t ops_completed() const { return completed_; }

  /// The fault-injection plane (inactive for an empty schedule).
  const FaultPlane& fault_plane() const { return faults_; }

  const Metrics& metrics() const { return metrics_; }
  Metrics& mutable_metrics() { return metrics_; }
  const Trace& trace() const { return trace_; }
  Trace& mutable_trace() { return trace_; }
  const CounterProtocol& counter() const { return *protocol_; }
  CounterProtocol& mutable_counter() { return *protocol_; }
  std::size_t num_processors() const { return protocol_->num_processors(); }
  const SimConfig& config() const { return config_; }
  std::int64_t deliveries() const { return deliveries_; }

  // Context interface (used by protocol handlers).
  void send(Message msg) override;
  void send_local(ProcessorId p, std::int32_t tag, MessageArgs args,
                  SimTime delay) override;
  void complete(OpId op, Value value) override;
  SimTime now() const override { return now_; }
  Rng& rng() override { return rng_; }

 private:
  struct Event {
    SimTime deliver_time{0};
    std::int64_t seq{0};
    RecordId record{kNoRecord};  ///< trace record of this hop (if traced)
    RecordId cause{kNoRecord};   ///< causal parent for sends it triggers
    ProcessorId at{kNoProcessor};  ///< hop destination (== msg.dst if direct)
    std::int64_t ttl{0};           ///< relay budget (routing-loop guard)
    Message msg;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.deliver_time != b.deliver_time)
        return a.deliver_time > b.deliver_time;
      return a.seq > b.seq;
    }
  };

  void enqueue_hop(Message msg, ProcessorId hop_src, ProcessorId hop_dst,
                   RecordId record, RecordId cause, std::int64_t ttl);
  /// Event-queue mechanics of enqueue_hop, bypassing the fault plane
  /// (used for the second copy of a duplicated hop).
  void raw_enqueue(Message msg, ProcessorId hop_src, ProcessorId hop_dst,
                   RecordId record, RecordId cause, std::int64_t ttl);
  void deliver(Event ev);
  static std::uint64_t channel_key(ProcessorId src, ProcessorId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }

  std::unique_ptr<CounterProtocol> protocol_;
  SimConfig config_;
  Rng rng_;
  FaultPlane faults_;
  /// Pending events as a binary min-heap (std::push_heap/pop_heap with
  /// EventLater). A plain vector instead of std::priority_queue so the
  /// storage can be reserve()d, copy-assigned without reallocating
  /// (the restore() fast path), and inspected in place by
  /// step_specific() without draining.
  std::vector<Event> queue_;
  std::unordered_map<std::uint64_t, SimTime> channel_last_;
  Metrics metrics_;
  Trace trace_;
  std::vector<std::optional<Value>> results_;
  std::vector<SimTime> invoked_at_;
  std::vector<SimTime> responded_at_;  // -1 while outstanding
  std::size_t completed_{0};
  SimTime now_{0};
  std::int64_t seq_{0};
  std::int64_t deliveries_{0};
  CompletionFn completion_;

  // Transient handler context.
  RecordId current_parent_{kNoRecord};
  OpId current_op_{kNoOp};
  bool in_handler_{false};
};

}  // namespace dcnt
