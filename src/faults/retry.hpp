// Reliable transport: at-least-once delivery over lossy channels.
//
// The paper's model gives every message away for free — reliably
// delivered, never duplicated. The fault plane (fault_plane.hpp)
// breaks that; this decorator buys it back, at a measurable price in
// messages (which is the whole point: the bottleneck bounds are about
// message loads, and reliability is not free).
//
// ReliableTransport wraps any CounterProtocol. Every cross-processor
// message the inner protocol sends is enveloped with a per-channel
// sequence number and retransmitted on a capped exponential backoff
// until the receiver acknowledges it; the receiver suppresses
// duplicates (both fault-plane duplication and retransmit races) by
// sequence number, so the inner protocol observes exactly-once
// delivery per surviving message. After `max_attempts` unacknowledged
// transmissions the sender gives the message up and reports the peer
// via Protocol::on_peer_unreachable — the timeout failure detector the
// self-healing tree service (core/tree_service.hpp) builds crash
// handover on.
//
// Wire framing (PROTOCOL.md, "Reliable transport"): transport tags
// live at >= kTagBase = 1'000'000 so they can never collide with inner
// protocol tags (inner tags must stay below that; checked).
//
//   Data  [seq, inner_tag, inner_args...]   sender -> receiver
//   Ack   [seq]                             receiver -> sender
//   Timer [peer, seq]                       local wake-up at the sender
//
// Self-addressed and local messages bypass the envelope: the fault
// plane never touches them, so reliability machinery would be pure
// overhead.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/protocol.hpp"
#include "sim/types.hpp"
#include "support/relaxed.hpp"

namespace dcnt {

struct RetryParams {
  /// Timeout before the first retransmission.
  SimTime ack_timeout{16};
  /// Backoff cap: timeout doubles per attempt up to this.
  SimTime max_timeout{256};
  /// Transmissions (1 original + retries) before the peer is declared
  /// unreachable and the message abandoned.
  int max_attempts{12};
};

/// RelaxedCounter, not int64: under the sharded runtime these are
/// bumped from handlers at arbitrary processors concurrently; relaxed
/// RMWs keep them race-free while staying copyable with the protocol
/// state. Exact when read at quiescence (the runtime's in-flight
/// acq_rel chain orders every handler's bumps before the reader).
struct RetryStats {
  RelaxedCounter data_messages{0};
  RelaxedCounter acks_sent{0};
  RelaxedCounter retransmissions{0};
  RelaxedCounter timeouts_fired{0};
  RelaxedCounter duplicates_suppressed{0};
  /// Messages abandoned after max_attempts (each triggers one
  /// on_peer_unreachable call at the sender).
  RelaxedCounter messages_abandoned{0};
};

class ReliableTransport final : public CounterProtocol {
 public:
  ReliableTransport(std::unique_ptr<CounterProtocol> inner,
                    RetryParams params);
  ReliableTransport(const ReliableTransport& other);
  ReliableTransport& operator=(const ReliableTransport& other);

  /// Inner protocol tags must stay below this.
  static constexpr std::int32_t kTagBase = 1'000'000;
  static constexpr std::int32_t kTagData = kTagBase + 1;
  static constexpr std::int32_t kTagAck = kTagBase + 2;
  static constexpr std::int32_t kTagTimer = kTagBase + 3;

  // CounterProtocol:
  std::size_t num_processors() const override;
  void start_inc(Context& ctx, ProcessorId origin, OpId op) override;
  void start_op(Context& ctx, ProcessorId origin, OpId op,
                std::span<const std::int64_t> args) override;
  void on_message(Context& ctx, const Message& msg) override;
  void check_quiescent(std::size_t ops_completed) const override;
  std::unique_ptr<CounterProtocol> clone_counter() const override;
  bool try_assign_from(const Protocol& other) override;
  std::string name() const override;
  /// The transport's own state is sliced per processor exactly like a
  /// shard-safe protocol's (handlers touch procs_[self] only; stats are
  /// relaxed counters), so sharded execution is sound whenever the
  /// inner protocol's is.
  bool shard_safe() const override { return inner_->shard_safe(); }
  void on_shard_start(std::size_t workers) override {
    inner_->on_shard_start(workers);
  }

  const RetryStats& stats() const { return stats_; }
  const RetryParams& params() const { return params_; }
  /// Envelopes currently awaiting an ack, summed over all channels. The
  /// cluster's distributed-quiescence barrier needs this to reach zero:
  /// a pending envelope means a retransmission timer is still armed and
  /// more wire traffic is coming. Maintained as a counter (++ on
  /// envelope creation, -- on ack/abandon) rather than recomputed by
  /// walking the channel maps: the stats barrier reads it while worker
  /// threads own those maps.
  std::int64_t unacked_total() const { return unacked_.load(); }
  const CounterProtocol& inner() const { return *inner_; }
  CounterProtocol& mutable_inner() { return *inner_; }

 private:
  /// Context wrapper handed to the inner protocol: its sends go through
  /// the envelope; everything else passes straight through.
  class EnvelopeCtx final : public Context {
   public:
    EnvelopeCtx(ReliableTransport& transport, Context& real)
        : transport_(transport), real_(real) {}
    void send(Message&& msg) override {
      transport_.send_enveloped(real_, std::move(msg));
    }
    void send_local(ProcessorId p, std::int32_t tag,
                    MessageArgs args, SimTime delay) override {
      real_.send_local(p, tag, std::move(args), delay);
    }
    void complete(OpId op, Value value) override { real_.complete(op, value); }
    Rng& rng() override { return real_.rng(); }

   private:
    ReliableTransport& transport_;
    Context& real_;
  };

  struct PendingSend {
    std::int64_t seq{0};
    Message envelope;  ///< resent verbatim on timeout
    int attempts{1};
    SimTime next_timeout{0};
  };
  /// Sender side of one (self -> peer) channel.
  struct TxChannel {
    std::int64_t next_seq{0};
    std::vector<PendingSend> unacked;
  };
  /// Receiver side of one (peer -> self) channel: delivered-seq set as
  /// a contiguous watermark plus a sparse out-of-order tail.
  struct RxChannel {
    std::int64_t contiguous{-1};  ///< all seqs <= this were delivered
    std::vector<std::int64_t> sparse;
    bool seen(std::int64_t seq) const;
    void mark(std::int64_t seq);
  };
  struct ProcState {
    std::map<ProcessorId, TxChannel> tx;
    std::map<ProcessorId, RxChannel> rx;
  };

  void send_enveloped(Context& real, Message&& msg);
  void handle_timer(Context& real, const Message& msg);
  void handle_ack(const Message& msg);
  void handle_data(Context& real, const Message& msg);

  std::unique_ptr<CounterProtocol> inner_;
  RetryParams params_;
  std::vector<ProcState> procs_;
  RetryStats stats_;
  RelaxedCounter unacked_{0};
};

/// Convenience: a self-healing §4 tree counter behind the reliable
/// transport — the fault-tolerant counter the recovery tests and
/// bench_faults drive.
struct TreeServiceParams;
std::unique_ptr<ReliableTransport> make_fault_tolerant_tree_counter(
    const TreeServiceParams& tree_params, RetryParams retry_params);

}  // namespace dcnt
