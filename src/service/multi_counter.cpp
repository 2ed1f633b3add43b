#include "service/multi_counter.hpp"

#include "support/check.hpp"

namespace dcnt::service {

namespace {

/// Context wrapper handed to inner-protocol handlers: rotates processor
/// ids back into fabric space, stamps msg.key on network sends, carries
/// the key as a leading argument word on local messages (they never
/// cross the wire, so they have no keyed envelope), and counts
/// completions against the key's directory entry.
class KeyCtx final : public Context {
 public:
  KeyCtx(Context& base, KeyId key, ProcessorId offset, std::int64_t n,
         std::atomic<std::int64_t>& completed)
      : base_(base), key_(key), offset_(offset), n_(n), completed_(completed) {}

  void send(Message&& msg) override {
    msg.src = rotate(msg.src);
    msg.dst = rotate(msg.dst);
    msg.key = key_;
    base_.send(std::move(msg));
  }

  void send_local(ProcessorId p, std::int32_t tag,
                  MessageArgs args, SimTime delay) override {
    args.insert(args.begin(), static_cast<std::int64_t>(key_));
    base_.send_local(rotate(p), tag, std::move(args), delay);
  }

  void complete(OpId op, Value value) override {
    completed_.fetch_add(1, std::memory_order_relaxed);
    base_.complete(op, value);
  }

  Rng& rng() override { return base_.rng(); }

 private:
  ProcessorId rotate(ProcessorId inner) const {
    return static_cast<ProcessorId>((inner + offset_) % n_);
  }

  Context& base_;
  KeyId key_;
  ProcessorId offset_;
  std::int64_t n_;
  std::atomic<std::int64_t>& completed_;
};

}  // namespace

MultiCounter::MultiCounter(std::unique_ptr<CounterProtocol> prototype,
                           MultiCounterOptions options)
    : prototype_(std::move(prototype)),
      n_(static_cast<std::int64_t>(prototype_->num_processors())),
      options_(options),
      directory_([this] { return prototype_->clone_counter(); }, n_,
                 prototype_->service_evictable(),
                 KeyDirectoryOptions{options.seed, options.capacity}) {
  DCNT_CHECK(n_ > 0);
}

std::size_t MultiCounter::num_processors() const {
  return static_cast<std::size_t>(n_);
}

void MultiCounter::start_inc(Context& ctx, ProcessorId origin, OpId op) {
  start_keyed(ctx, origin, op, 0);
}

void MultiCounter::start_op(Context& ctx, ProcessorId origin, OpId op,
                            std::span<const std::int64_t> args) {
  if (args.empty()) {
    start_keyed(ctx, origin, op, 0);
    return;
  }
  const KeyId key = static_cast<KeyId>(args.front());
  DCNT_CHECK_MSG(key >= 0, "counter keys are non-negative");
  start_keyed(ctx, origin, op, key);
}

void MultiCounter::start_keyed(Context& ctx, ProcessorId origin, OpId op,
                               KeyId key) {
  directory_.with_entry(key, [&](KeyDirectory::Entry& entry) {
    KeyCtx kctx(ctx, key, entry.offset, n_, entry.completed);
    entry.inner->start_inc(kctx, to_inner(origin, entry.offset), op);
  });
}

void MultiCounter::on_message(Context& ctx, const Message& msg) {
  KeyId key = kNoKey;
  Message inner = msg;
  if (msg.local) {
    // Local messages carry the key as their first argument word.
    DCNT_CHECK_MSG(!msg.args.empty(), "keyless local message in the fabric");
    key = static_cast<KeyId>(msg.args.front());
    inner.args.erase(inner.args.begin());
  } else {
    DCNT_CHECK_MSG(msg.key != kNoKey, "keyless network message in the fabric");
    key = msg.key;
  }
  inner.key = kNoKey;
  directory_.with_entry(key, [&](KeyDirectory::Entry& entry) {
    inner.src = to_inner(msg.src, entry.offset);
    inner.dst = to_inner(msg.dst, entry.offset);
    KeyCtx kctx(ctx, key, entry.offset, n_, entry.completed);
    entry.inner->on_message(kctx, inner);
  });
}

std::unique_ptr<CounterProtocol> MultiCounter::clone_counter() const {
  auto copy = std::make_unique<MultiCounter>(prototype_->clone_counter(),
                                             options_);
  copy->directory_.copy_state_from(directory_);
  return copy;
}

std::string MultiCounter::name() const {
  return "keys(" + prototype_->name() + ")";
}

bool MultiCounter::shard_safe() const { return prototype_->shard_safe(); }

void MultiCounter::on_shard_start(std::size_t workers) {
  directory_.on_shard_start(workers);
}

void MultiCounter::check_quiescent(std::size_t ops_completed) const {
  DCNT_CHECK(directory_.total_completed() ==
             static_cast<std::int64_t>(ops_completed));
  directory_.for_each_live([](KeyId, const KeyDirectory::Entry& entry) {
    entry.inner->check_quiescent(static_cast<std::size_t>(
        entry.completed.load(std::memory_order_relaxed)));
  });
}

}  // namespace dcnt::service
