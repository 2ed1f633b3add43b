#include "faults/retry.hpp"

#include <algorithm>
#include <utility>

#include "core/tree_counter.hpp"
#include "support/check.hpp"

namespace dcnt {

bool ReliableTransport::RxChannel::seen(std::int64_t seq) const {
  if (seq <= contiguous) return true;
  return std::binary_search(sparse.begin(), sparse.end(), seq);
}

void ReliableTransport::RxChannel::mark(std::int64_t seq) {
  if (seq <= contiguous) return;
  if (seq == contiguous + 1) {
    ++contiguous;
    // Absorb any sparse entries that are now contiguous.
    auto it = sparse.begin();
    while (it != sparse.end() && *it == contiguous + 1) {
      ++contiguous;
      ++it;
    }
    sparse.erase(sparse.begin(), it);
    return;
  }
  sparse.insert(std::lower_bound(sparse.begin(), sparse.end(), seq), seq);
}

ReliableTransport::ReliableTransport(std::unique_ptr<CounterProtocol> inner,
                                     RetryParams params)
    : inner_(std::move(inner)), params_(params) {
  DCNT_CHECK(inner_ != nullptr);
  DCNT_CHECK(params_.ack_timeout >= 1);
  DCNT_CHECK(params_.max_timeout >= params_.ack_timeout);
  DCNT_CHECK(params_.max_attempts >= 1);
  procs_.resize(inner_->num_processors());
}

ReliableTransport::ReliableTransport(const ReliableTransport& other)
    : inner_(other.inner_->clone_counter()),
      params_(other.params_),
      procs_(other.procs_),
      stats_(other.stats_),
      unacked_(other.unacked_) {}

ReliableTransport& ReliableTransport::operator=(
    const ReliableTransport& other) {
  if (this == &other) return *this;
  if (!inner_->try_assign_from(*other.inner_)) {
    inner_ = other.inner_->clone_counter();
  }
  params_ = other.params_;
  procs_ = other.procs_;
  stats_ = other.stats_;
  unacked_ = other.unacked_;
  return *this;
}

std::size_t ReliableTransport::num_processors() const {
  return inner_->num_processors();
}

void ReliableTransport::start_inc(Context& ctx, ProcessorId origin, OpId op) {
  EnvelopeCtx wrapped(*this, ctx);
  inner_->start_inc(wrapped, origin, op);
}

void ReliableTransport::start_op(Context& ctx, ProcessorId origin, OpId op,
                                 std::span<const std::int64_t> args) {
  EnvelopeCtx wrapped(*this, ctx);
  inner_->start_op(wrapped, origin, op, args);
}

void ReliableTransport::send_enveloped(Context& real, Message&& msg) {
  if (msg.local || msg.src == msg.dst) {
    // The fault plane never touches local / self-addressed traffic.
    real.send(std::move(msg));
    return;
  }
  DCNT_CHECK_MSG(msg.tag < kTagBase,
                 "inner protocol tag collides with the transport range");
  auto& channel = procs_[static_cast<std::size_t>(msg.src)].tx[msg.dst];
  const std::int64_t seq = channel.next_seq++;

  Message envelope;
  envelope.src = msg.src;
  envelope.dst = msg.dst;
  envelope.tag = kTagData;
  envelope.op = msg.op;
  // The key rides the envelope so the keyed wire path (and per-key load
  // accounting) survives the at-least-once layer; acks stay keyless.
  envelope.key = msg.key;
  envelope.args.reserve(msg.args.size() + 2);
  envelope.args.push_back(seq);
  envelope.args.push_back(msg.tag);
  envelope.args.insert(envelope.args.end(), msg.args.begin(), msg.args.end());

  PendingSend pending;
  pending.seq = seq;
  pending.envelope = envelope;
  pending.attempts = 1;
  pending.next_timeout = params_.ack_timeout;
  channel.unacked.push_back(std::move(pending));
  ++unacked_;
  ++stats_.data_messages;

  real.send_local(msg.src, kTagTimer, {msg.dst, seq}, params_.ack_timeout);
  real.send(std::move(envelope));
}

void ReliableTransport::on_message(Context& ctx, const Message& msg) {
  switch (msg.tag) {
    case kTagTimer:
      handle_timer(ctx, msg);
      return;
    case kTagAck:
      handle_ack(msg);
      return;
    case kTagData:
      handle_data(ctx, msg);
      return;
    default: {
      // Inner traffic that bypassed the envelope: local wake-ups and
      // self-addressed messages.
      DCNT_CHECK(msg.local || msg.src == msg.dst);
      EnvelopeCtx wrapped(*this, ctx);
      inner_->on_message(wrapped, msg);
      return;
    }
  }
}

void ReliableTransport::handle_timer(Context& real, const Message& msg) {
  const ProcessorId self = msg.dst;
  const auto peer = static_cast<ProcessorId>(msg.args.at(0));
  const std::int64_t seq = msg.args.at(1);
  auto& ps = procs_[static_cast<std::size_t>(self)];
  const auto channel_it = ps.tx.find(peer);
  if (channel_it == ps.tx.end()) return;
  auto& unacked = channel_it->second.unacked;
  const auto it =
      std::find_if(unacked.begin(), unacked.end(),
                   [seq](const PendingSend& p) { return p.seq == seq; });
  if (it == unacked.end()) return;  // acked in the meantime
  ++stats_.timeouts_fired;
  if (it->attempts >= params_.max_attempts) {
    ++stats_.messages_abandoned;
    unacked.erase(it);
    --unacked_;
    // The failure-detector edge: tell the inner protocol. It runs in a
    // wrapped context so any reaction (e.g. a crash-handover trigger)
    // is itself sent reliably.
    EnvelopeCtx wrapped(*this, real);
    inner_->on_peer_unreachable(wrapped, self, peer);
    return;
  }
  ++it->attempts;
  ++stats_.retransmissions;
  it->next_timeout = std::min(it->next_timeout * 2, params_.max_timeout);
  real.send_local(self, kTagTimer, {peer, seq}, it->next_timeout);
  // Same seq: the receiver dedups. The stored envelope stays for the
  // next attempt, so the context gets a copy.
  real.send(Message(it->envelope));
}

void ReliableTransport::handle_ack(const Message& msg) {
  const ProcessorId self = msg.dst;
  auto& ps = procs_[static_cast<std::size_t>(self)];
  const auto channel_it = ps.tx.find(msg.src);
  if (channel_it == ps.tx.end()) return;
  auto& unacked = channel_it->second.unacked;
  const std::int64_t seq = msg.args.at(0);
  const auto it =
      std::find_if(unacked.begin(), unacked.end(),
                   [seq](const PendingSend& p) { return p.seq == seq; });
  if (it != unacked.end()) {
    unacked.erase(it);
    --unacked_;
  }
}

void ReliableTransport::handle_data(Context& real, const Message& msg) {
  const ProcessorId self = msg.dst;
  const std::int64_t seq = msg.args.at(0);
  // Always ack, even duplicates: the earlier ack may have been lost.
  Message ack;
  ack.src = self;
  ack.dst = msg.src;
  ack.tag = kTagAck;
  ack.op = msg.op;
  ack.args = {seq};
  ++stats_.acks_sent;
  real.send(std::move(ack));

  auto& rx = procs_[static_cast<std::size_t>(self)].rx[msg.src];
  if (rx.seen(seq)) {
    ++stats_.duplicates_suppressed;
    return;
  }
  rx.mark(seq);

  Message inner;
  inner.src = msg.src;
  inner.dst = self;
  inner.tag = static_cast<std::int32_t>(msg.args.at(1));
  inner.op = msg.op;
  inner.key = msg.key;
  inner.args.assign(msg.args.begin() + 2, msg.args.end());
  EnvelopeCtx wrapped(*this, real);
  inner_->on_message(wrapped, inner);
}

void ReliableTransport::check_quiescent(std::size_t ops_completed) const {
  inner_->check_quiescent(ops_completed);
}

std::unique_ptr<CounterProtocol> ReliableTransport::clone_counter() const {
  return std::make_unique<ReliableTransport>(*this);
}

bool ReliableTransport::try_assign_from(const Protocol& other) {
  // Not protocol_assign: the inner protocol should reuse its own
  // buffers via its own try_assign_from when the inner types match.
  const auto* o = dynamic_cast<const ReliableTransport*>(&other);
  if (o == nullptr) return false;
  *this = *o;
  return true;
}

std::string ReliableTransport::name() const {
  return "reliable(" + inner_->name() + ")";
}

std::unique_ptr<ReliableTransport> make_fault_tolerant_tree_counter(
    const TreeServiceParams& tree_params, RetryParams retry_params) {
  TreeServiceParams params = tree_params;
  params.self_healing = true;
  return std::make_unique<ReliableTransport>(
      std::make_unique<TreeCounter>(params), retry_params);
}

}  // namespace dcnt
