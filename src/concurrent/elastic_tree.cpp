#include "concurrent/elastic_tree.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dcnt::concurrent {

namespace {

/// k^(k+1): the leaf count of a fan-out-k tree (TreeLayout's rigid
/// geometry).
std::int64_t leaves_for(int k) {
  std::int64_t r = 1;
  for (int i = 0; i <= k; ++i) r *= k;
  return r;
}

/// Context wrapper handed to an epoch's inner TreeCounter: prepends the
/// epoch word to every outgoing message (network and local) so the
/// dispatcher can route replies back to the right tree, and translates
/// completions into the global value space by adding the epoch's base.
class EpochCtx final : public Context {
 public:
  EpochCtx(Context& base, std::uint32_t epoch, Value base_value,
           RelaxedCounter& completed)
      : base_(base),
        epoch_(static_cast<std::int64_t>(epoch)),
        base_value_(base_value),
        completed_(completed) {}

  void send(Message msg) override {
    msg.args.insert(msg.args.begin(), epoch_);
    base_.send(std::move(msg));
  }

  void send_local(ProcessorId p, std::int32_t tag,
                  MessageArgs args, SimTime delay) override {
    args.insert(args.begin(), epoch_);
    base_.send_local(p, tag, std::move(args), delay);
  }

  void complete(OpId op, Value value) override {
    ++completed_;
    base_.complete(op, base_value_ + value);
  }

  SimTime now() const override { return base_.now(); }
  Rng& rng() override { return base_.rng(); }

 private:
  Context& base_;
  std::int64_t epoch_;
  Value base_value_;
  RelaxedCounter& completed_;
};

}  // namespace

ElasticTreeCounter::ElasticTreeCounter(ElasticTreeParams params)
    : params_(std::move(params)), epochs_(kMaxEpochs) {
  DCNT_CHECK_MSG(params_.min_k >= 2, "min_k must be at least 2");
  DCNT_CHECK_MSG(params_.max_k >= params_.min_k, "max_k below min_k");
  DCNT_CHECK_MSG(params_.max_k <= 5, "max_k > 5 means > 15k processors");
  DCNT_CHECK_MSG(params_.initial_k >= params_.min_k &&
                     params_.initial_k <= params_.max_k,
                 "initial_k outside [min_k, max_k]");
  n_ = leaves_for(params_.max_k);
  procs_.resize(static_cast<std::size_t>(n_));
  publish_epoch(0, params_.initial_k, params_.initial_age_threshold, 0);
}

ElasticTreeCounter::ElasticTreeCounter(const ElasticTreeCounter& other)
    : params_(other.params_),
      n_(other.n_),
      procs_(other.procs_),
      coord_(other.coord_),
      epochs_(kMaxEpochs),
      started_(other.started_),
      completed_(other.completed_),
      shard_workers_(other.shard_workers_) {
  for (std::uint32_t e = 0; e < kMaxEpochs; ++e) {
    const Epoch& src = other.epochs_[e];
    const TreeCounter* tree = src.live.load(std::memory_order_acquire);
    if (tree == nullptr) continue;
    Epoch& dst = epochs_[e];
    dst.base.store(src.base.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    dst.k.store(src.k.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    dst.leaves.store(src.leaves.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    dst.age_threshold.store(src.age_threshold.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    dst.owner = std::make_unique<TreeCounter>(*tree);
    dst.live.store(dst.owner.get(), std::memory_order_release);
  }
}

std::size_t ElasticTreeCounter::num_processors() const {
  return static_cast<std::size_t>(n_);
}

const ElasticTreeCounter::Epoch& ElasticTreeCounter::slot(
    std::uint32_t epoch) const {
  DCNT_CHECK_MSG(epoch < kMaxEpochs, "epoch out of range");
  return epochs_[epoch];
}

ElasticTreeCounter::Epoch& ElasticTreeCounter::slot(std::uint32_t epoch) {
  DCNT_CHECK_MSG(epoch < kMaxEpochs, "epoch out of range");
  return epochs_[epoch];
}

void ElasticTreeCounter::publish_epoch(std::uint32_t epoch, int k,
                                       std::int64_t age_threshold,
                                       Value base) {
  Epoch& s = slot(epoch);
  if (s.live.load(std::memory_order_acquire) != nullptr) return;
  TreeServiceParams tp;
  tp.k = k;
  tp.age_threshold = age_threshold;
  auto tree = std::make_unique<TreeCounter>(tp);
  if (shard_workers_ > 0) tree->on_shard_start(shard_workers_);
  // Metadata first (relaxed), publication CAS last: a reader acquiring
  // a non-null `live` sees consistent parameters. Racing publishers
  // (several shards processing Open frames for the same epoch) store
  // identical values — the epoch's parameters are a pure function of
  // the Open frame — and exactly one wins ownership.
  s.base.store(base, std::memory_order_relaxed);
  s.k.store(k, std::memory_order_relaxed);
  s.leaves.store(static_cast<std::int64_t>(tree->num_processors()),
                 std::memory_order_relaxed);
  s.age_threshold.store(tree->age_threshold(), std::memory_order_relaxed);
  TreeCounter* expected = nullptr;
  if (s.live.compare_exchange_strong(expected, tree.get(),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
    s.owner = std::move(tree);
  }
}

void ElasticTreeCounter::start_inc(Context& ctx, ProcessorId origin,
                                   OpId op) {
  DCNT_CHECK(origin >= 0 && origin < n_);
  ++started_;
  issue_op(ctx, origin, op);
}

void ElasticTreeCounter::issue_op(Context& ctx, ProcessorId p, OpId op) {
  ProcState& ps = procs_[static_cast<std::size_t>(p)];
  if (ps.closed) {
    ps.op_stash.push_back(op);
    return;
  }
  const std::uint32_t e = ps.epoch;
  Epoch& s = slot(e);
  TreeCounter* tree = s.live.load(std::memory_order_acquire);
  DCNT_CHECK_MSG(tree != nullptr, "issuing into an unopened epoch");
  // Counted before the op enters the tree: issued_p reserves the value
  // range B_e..B_e+I_e-1, which is what lets in-flight ops finish after
  // the epoch closes without colliding with the successor epoch.
  ++ps.issued;
  const std::int64_t leaves = s.leaves.load(std::memory_order_relaxed);
  if (p < leaves) {
    EpochCtx ectx(ctx, e, s.base.load(std::memory_order_relaxed),
                  completed_);
    tree->start_inc(ectx, p, op);
  } else {
    // This epoch's tree is smaller than the processor set: one honest
    // relay hop to the proxy leaf, which initiates (and completes) the
    // op on the origin's behalf.
    Message m;
    m.src = p;
    m.dst = static_cast<ProcessorId>(p % leaves);
    m.tag = kTagRelay;
    m.op = op;
    m.args = {static_cast<std::int64_t>(e)};
    ctx.send(std::move(m));
  }
  maybe_request_resize(ctx, p);
}

void ElasticTreeCounter::maybe_request_resize(Context& ctx, ProcessorId p) {
  if (params_.resize_period <= 0) return;
  ProcState& ps = procs_[static_cast<std::size_t>(p)];
  if (ps.resize_requested || ps.issued < params_.resize_period) return;
  ps.resize_requested = true;
  if (p == 0) {
    evaluate_resize(ctx, ps.epoch);
    return;
  }
  Message m;
  m.src = p;
  m.dst = 0;
  m.tag = kTagResizeReq;
  m.args = {static_cast<std::int64_t>(ps.epoch),
            started_.load() - completed_.load()};
  ctx.send(std::move(m));
}

void ElasticTreeCounter::evaluate_resize(Context& ctx, std::uint32_t e) {
  if (coord_.migrating) return;
  if (static_cast<std::int64_t>(e) <= coord_.last_evaluated) return;
  if (e + 1 >= kMaxEpochs) return;  // slots exhausted: stay put
  coord_.last_evaluated = static_cast<std::int64_t>(e);
  const Epoch& s = slot(e);
  const int cur_k = static_cast<int>(s.k.load(std::memory_order_relaxed));
  const std::int64_t cur_t =
      s.age_threshold.load(std::memory_order_relaxed);
  int next_k = cur_k;
  std::int64_t next_t = 0;
  if (!params_.plan.empty()) {
    const ElasticStep& step = params_.plan[std::min(
        coord_.resizes_done, params_.plan.size() - 1)];
    next_k = std::clamp(step.k, params_.min_k, params_.max_k);
    next_t = step.age_threshold;
  } else {
    // Load policy: the global backlog per leaf says whether the tree is
    // drowning (grow the fan-out: more leaves, shallower funnel) or
    // idling (shrink: fewer retirements churning processors). The
    // counters are relaxed tallies — a heuristic reads, it does not
    // synchronize.
    const std::int64_t backlog = started_.load() - completed_.load();
    const std::int64_t per_leaf =
        backlog / std::max<std::int64_t>(s.leaves.load(std::memory_order_relaxed), 1);
    if (per_leaf >= params_.grow_backlog_per_leaf) {
      next_k = std::min(cur_k + 1, params_.max_k);
    } else if (per_leaf <= params_.shrink_backlog_per_leaf) {
      next_k = std::max(cur_k - 1, params_.min_k);
    }
  }
  if (next_t == 0) next_t = 4 * next_k;  // TreeService's own default
  if (next_k == cur_k && next_t == cur_t) return;  // nothing to change
  coord_.migrating = true;
  coord_.closing_epoch = e;
  coord_.acks_pending = static_cast<std::size_t>(n_);
  coord_.issued_sum = 0;
  coord_.next_k = next_k;
  coord_.next_age_threshold = next_t;
  for (ProcessorId q = 1; q < n_; ++q) {
    Message m;
    m.src = 0;
    m.dst = q;
    m.tag = kTagClose;
    m.args = {static_cast<std::int64_t>(e)};
    ctx.send(std::move(m));
  }
  // The coordinator handles its own Close inline (no self-sends).
  close_at(ctx, 0, e);
  ack_close(ctx, procs_[0].issued);
}

void ElasticTreeCounter::close_at(Context& ctx, ProcessorId p,
                                  std::uint32_t e) {
  (void)ctx;
  ProcState& ps = procs_[static_cast<std::size_t>(p)];
  DCNT_CHECK_MSG(ps.epoch == e && !ps.closed, "close for the wrong epoch");
  ps.closed = true;
}

void ElasticTreeCounter::ack_close(Context& ctx, std::int64_t issued) {
  DCNT_CHECK(coord_.migrating && coord_.acks_pending > 0);
  coord_.issued_sum += issued;
  if (--coord_.acks_pending == 0) finish_migration(ctx);
}

void ElasticTreeCounter::finish_migration(Context& ctx) {
  const std::uint32_t e = coord_.closing_epoch;
  const std::uint32_t en = e + 1;
  const Value nbase =
      slot(e).base.load(std::memory_order_relaxed) + coord_.issued_sum;
  publish_epoch(en, coord_.next_k, coord_.next_age_threshold, nbase);
  for (ProcessorId q = 1; q < n_; ++q) {
    Message m;
    m.src = 0;
    m.dst = q;
    m.tag = kTagOpen;
    m.args = {static_cast<std::int64_t>(en),
              static_cast<std::int64_t>(coord_.next_k),
              coord_.next_age_threshold, nbase};
    ctx.send(std::move(m));
  }
  coord_.migrating = false;
  ++coord_.resizes_done;
  open_at(ctx, 0, en);
}

void ElasticTreeCounter::open_at(Context& ctx, ProcessorId p,
                                 std::uint32_t e) {
  ProcState& ps = procs_[static_cast<std::size_t>(p)];
  DCNT_CHECK_MSG(ps.epoch + 1 == e && ps.closed, "open out of order");
  ps.epoch = e;
  ps.closed = false;
  ps.issued = 0;
  ps.resize_requested = false;
  // Ops that arrived while closed go into the new epoch now (their
  // values come from the new range — correct, since they had not been
  // counted into the old epoch's issued_p). They are re-injected as
  // self-sends carrying an explicit op, NOT replayed inline: this
  // handler runs under the *Open message's* op attribution, and any
  // tree-internal message the replay spawned here would inherit that
  // stale op id from the runtime (`msg.op == kNoOp` sends inherit the
  // op being handled) — completing some other processor's live op a
  // second time. The self-send makes the runtime re-establish the
  // replayed op as the current op before the tree sees it.
  std::vector<OpId> replay;
  replay.swap(ps.op_stash);
  for (const OpId op : replay) {
    Message m;
    m.src = p;
    m.dst = p;
    m.tag = kTagReplay;
    m.op = op;
    m.args = {static_cast<std::int64_t>(e)};
    ctx.send(std::move(m));
  }
  // Messages that outran this Open (non-FIFO delivery): everything
  // keyed to the now-current epoch is re-sent to self — same reasoning
  // as the op replay; each stashed message already carries its true op,
  // and redelivery restores it as the handler context. Anything keyed
  // further ahead waits for its own Open.
  std::vector<Message> stashed;
  stashed.swap(ps.msg_stash);
  for (Message& m : stashed) {
    if (static_cast<std::uint32_t>(m.args.at(0)) == e) {
      ctx.send(std::move(m));
    } else {
      ps.msg_stash.push_back(std::move(m));
    }
  }
}

void ElasticTreeCounter::on_message(Context& ctx, const Message& msg) {
  switch (msg.tag) {
    case kTagClose:
      handle_close(ctx, msg);
      return;
    case kTagCloseAck:
      handle_close_ack(ctx, msg);
      return;
    case kTagOpen:
      handle_open(ctx, msg);
      return;
    case kTagResizeReq:
      handle_resize_req(ctx, msg);
      return;
    case kTagRelay:
      handle_relay(ctx, msg);
      return;
    case kTagReplay:
      // A stashed op re-injected by open_at; the runtime has set msg.op
      // as the current op, so the tree's sends attribute correctly.
      issue_op(ctx, msg.dst, msg.op);
      return;
    default:
      route_inner(ctx, msg);
      return;
  }
}

void ElasticTreeCounter::handle_close(Context& ctx, const Message& msg) {
  const auto e = static_cast<std::uint32_t>(msg.args.at(0));
  ProcState& ps = procs_[static_cast<std::size_t>(msg.dst)];
  if (ps.epoch < e) {
    // The Close outran the Open that precedes it; park it.
    ps.msg_stash.push_back(msg);
    return;
  }
  close_at(ctx, msg.dst, e);
  Message ack;
  ack.src = msg.dst;
  ack.dst = 0;
  ack.tag = kTagCloseAck;
  ack.args = {msg.args.at(0), ps.issued};
  ctx.send(std::move(ack));
}

void ElasticTreeCounter::handle_close_ack(Context& ctx, const Message& msg) {
  DCNT_CHECK(msg.dst == 0);
  const auto e = static_cast<std::uint32_t>(msg.args.at(0));
  DCNT_CHECK_MSG(coord_.migrating && e == coord_.closing_epoch,
                 "stray close-ack");
  ack_close(ctx, msg.args.at(1));
}

void ElasticTreeCounter::handle_open(Context& ctx, const Message& msg) {
  DCNT_CHECK(msg.args.size() == 4);
  const auto e = static_cast<std::uint32_t>(msg.args[0]);
  publish_epoch(e, static_cast<int>(msg.args[1]), msg.args[2], msg.args[3]);
  open_at(ctx, msg.dst, e);
}

void ElasticTreeCounter::handle_resize_req(Context& ctx,
                                           const Message& msg) {
  DCNT_CHECK(msg.dst == 0);
  evaluate_resize(ctx, static_cast<std::uint32_t>(msg.args.at(0)));
}

void ElasticTreeCounter::handle_relay(Context& ctx, const Message& msg) {
  const auto e = static_cast<std::uint32_t>(msg.args.at(0));
  Epoch& s = slot(e);
  TreeCounter* tree = s.live.load(std::memory_order_acquire);
  if (tree == nullptr) {
    procs_[static_cast<std::size_t>(msg.dst)].msg_stash.push_back(msg);
    return;
  }
  EpochCtx ectx(ctx, e, s.base.load(std::memory_order_relaxed), completed_);
  tree->start_inc(ectx, msg.dst, msg.op);
}

void ElasticTreeCounter::route_inner(Context& ctx, const Message& msg) {
  DCNT_CHECK_MSG(!msg.args.empty(), "epochless inner message");
  const auto e = static_cast<std::uint32_t>(msg.args.front());
  Epoch& s = slot(e);
  TreeCounter* tree = s.live.load(std::memory_order_acquire);
  if (tree == nullptr) {
    // An inner message for an epoch this node has not opened yet (its
    // sender opened first); wait for the Open.
    procs_[static_cast<std::size_t>(msg.dst)].msg_stash.push_back(msg);
    return;
  }
  Message inner = msg;
  inner.args.erase(inner.args.begin());
  EpochCtx ectx(ctx, e, s.base.load(std::memory_order_relaxed), completed_);
  tree->on_message(ectx, inner);
}

std::unique_ptr<CounterProtocol> ElasticTreeCounter::clone_counter() const {
  return std::make_unique<ElasticTreeCounter>(*this);
}

std::string ElasticTreeCounter::name() const {
  return "elastic(k=" + std::to_string(params_.initial_k) + ".." +
         std::to_string(params_.max_k) + ")";
}

void ElasticTreeCounter::on_shard_start(std::size_t workers) {
  shard_workers_ = workers;
  for (Epoch& s : epochs_) {
    if (TreeCounter* tree = s.live.load(std::memory_order_acquire)) {
      tree->on_shard_start(workers);
    }
  }
}

void ElasticTreeCounter::check_quiescent(std::size_t ops_completed) const {
  // Single-process invariant (simulator / threaded runtime): a cluster
  // node's replica only sees its own processors' states, so the socket
  // path never calls this (node.cpp relies on message-count stability).
  DCNT_CHECK_MSG(!coord_.migrating, "quiescent mid-migration");
  const std::uint32_t cur = procs_[0].epoch;
  std::int64_t issued_cur = 0;
  for (const ProcState& ps : procs_) {
    DCNT_CHECK_MSG(ps.epoch == cur, "processors in different epochs");
    DCNT_CHECK_MSG(!ps.closed, "processor still closed at quiescence");
    DCNT_CHECK_MSG(ps.op_stash.empty(), "stashed op never replayed");
    DCNT_CHECK_MSG(ps.msg_stash.empty(), "stashed message never drained");
    issued_cur += ps.issued;
  }
  for (std::uint32_t e = 0; e < cur; ++e) {
    const TreeCounter* tree = slot(e).live.load(std::memory_order_acquire);
    DCNT_CHECK(tree != nullptr);
    const std::int64_t i_e =
        slot(e + 1).base.load(std::memory_order_relaxed) -
        slot(e).base.load(std::memory_order_relaxed);
    tree->check_quiescent(static_cast<std::size_t>(i_e));
  }
  const TreeCounter* tree = slot(cur).live.load(std::memory_order_acquire);
  DCNT_CHECK(tree != nullptr);
  tree->check_quiescent(static_cast<std::size_t>(issued_cur));
  DCNT_CHECK_MSG(slot(cur).base.load(std::memory_order_relaxed) +
                         issued_cur ==
                     static_cast<std::int64_t>(ops_completed),
                 "epoch bases do not sum to the op count");
  DCNT_CHECK(completed_.load() == static_cast<std::int64_t>(ops_completed));
}

Value ElasticTreeCounter::value() const {
  const std::uint32_t cur = procs_[0].epoch;
  const TreeCounter* tree = slot(cur).live.load(std::memory_order_acquire);
  DCNT_CHECK(tree != nullptr);
  return slot(cur).base.load(std::memory_order_relaxed) + tree->value();
}

std::uint32_t ElasticTreeCounter::epochs_used() const {
  return procs_[0].epoch + 1;
}

std::size_t ElasticTreeCounter::resizes() const {
  return coord_.resizes_done;
}

int ElasticTreeCounter::current_k() const {
  return static_cast<int>(
      slot(procs_[0].epoch).k.load(std::memory_order_relaxed));
}

std::int64_t ElasticTreeCounter::current_age_threshold() const {
  return slot(procs_[0].epoch).age_threshold.load(std::memory_order_relaxed);
}

}  // namespace dcnt::concurrent
