// Fault tolerance end to end: the reliable transport over lossy
// channels, and the self-healing tree counter surviving processor
// crashes — the counter stays a counter (distinct consecutive values in
// initiation order) while the fault plane does its worst.
#include "faults/retry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/tree_counter.hpp"
#include "core/tree_service.hpp"
#include "harness/runner.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

std::vector<ProcessorId> order_skipping(std::int64_t n, std::int64_t ops,
                                        ProcessorId skip) {
  std::vector<ProcessorId> order;
  ProcessorId p = 0;
  while (static_cast<std::int64_t>(order.size()) < ops) {
    if (p != skip) order.push_back(p);
    p = static_cast<ProcessorId>((p + 1) % n);
  }
  return order;
}

const TreeService& tree_of(const Simulator& sim) {
  const auto& transport = dynamic_cast<const ReliableTransport&>(sim.counter());
  return dynamic_cast<const TreeService&>(transport.inner());
}

TEST(ReliableTransport, RecoversFromHeavyLoss) {
  // A *plain* (non-healing) tree counter over 20%-lossy channels: the
  // transport's retransmissions alone must preserve exact counter
  // semantics, because the inner protocol still sees every surviving
  // message exactly once.
  SimConfig cfg;
  cfg.seed = 7;
  cfg.delay = DelayModel::uniform(1, 4);
  cfg.faults.drop_probability = 0.2;
  TreeServiceParams params;
  params.k = 2;
  RetryParams retry;
  retry.ack_timeout = 8;
  retry.max_timeout = 64;
  retry.max_attempts = 20;
  Simulator sim(std::make_unique<ReliableTransport>(
                    std::make_unique<TreeCounter>(params), retry),
                cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  ASSERT_EQ(n, 8);
  const RunResult result =
      run_sequential(sim, order_skipping(n, 2 * n, /*skip=*/-1));
  EXPECT_TRUE(result.values_ok);
  const auto& transport = dynamic_cast<const ReliableTransport&>(sim.counter());
  EXPECT_GT(transport.stats().retransmissions, 0);
  EXPECT_GT(sim.fault_plane().stats().random_drops, 0);
  EXPECT_EQ(transport.stats().messages_abandoned, 0);
}

TEST(ReliableTransport, SuppressesFaultPlaneDuplicates) {
  SimConfig cfg;
  cfg.seed = 3;
  cfg.delay = DelayModel::uniform(1, 6);
  cfg.faults.duplicate_probability = 0.5;
  TreeServiceParams params;
  params.k = 2;
  Simulator sim(std::make_unique<ReliableTransport>(
                    std::make_unique<TreeCounter>(params), RetryParams{}),
                cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  const RunResult result =
      run_sequential(sim, order_skipping(n, 2 * n, /*skip=*/-1));
  EXPECT_TRUE(result.values_ok);
  const auto& transport = dynamic_cast<const ReliableTransport&>(sim.counter());
  EXPECT_GT(transport.stats().duplicates_suppressed, 0);
}

TEST(ReliableTransport, NameAndCloneRoundTrip) {
  TreeServiceParams params;
  params.k = 2;
  ReliableTransport t(std::make_unique<TreeCounter>(params), RetryParams{});
  EXPECT_EQ(t.name(), "reliable(" + t.inner().name() + ")");
  auto clone = t.clone_counter();
  EXPECT_EQ(clone->name(), t.name());
  EXPECT_TRUE(t.try_assign_from(*clone));
}

TEST(SelfHealing, RawLossyChannelsEndToEndRetry) {
  // No transport at all: the healing counter's own origin-side retries
  // plus the root's journal must survive a 10%-lossy network (with
  // retirement disabled so handover messages are never at risk).
  SimConfig cfg;
  cfg.seed = 11;
  cfg.delay = DelayModel::uniform(1, 4);
  cfg.faults.drop_probability = 0.1;
  TreeServiceParams params;
  params.k = 2;
  params.age_threshold = 1'000'000;  // no voluntary retirement
  params.self_healing = true;
  params.inc_retry_timeout = 32;
  Simulator sim(std::make_unique<TreeCounter>(params), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  const RunResult result =
      run_sequential(sim, order_skipping(n, 3 * n, /*skip=*/-1));
  EXPECT_TRUE(result.values_ok);
  const auto& tree = dynamic_cast<const TreeService&>(sim.counter());
  EXPECT_GT(tree.stats().timeouts_fired, 0);
  EXPECT_GT(tree.stats().retransmissions, 0);
  EXPECT_GT(tree.stats().replayed_replies + tree.stats().backups_sent, 0);
  EXPECT_EQ(tree.stats().crash_handovers, 0);
}

TEST(SelfHealing, HealingModeWithoutFaultsStaysExact) {
  // Healing machinery at rest: no faults, voluntary retirements on —
  // serials, backups and gating must not disturb counter semantics.
  SimConfig cfg;
  cfg.seed = 5;
  cfg.delay = DelayModel::uniform(1, 4);
  TreeServiceParams params;
  params.k = 2;
  params.self_healing = true;
  Simulator sim(std::make_unique<TreeCounter>(params), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  const RunResult result =
      run_sequential(sim, order_skipping(n, 4 * n, /*skip=*/-1));
  EXPECT_TRUE(result.values_ok);
  const auto& tree = dynamic_cast<const TreeService&>(sim.counter());
  EXPECT_GT(tree.stats().retirements_total, 0);  // retirements still work
  EXPECT_GT(tree.stats().backups_sent, 0);
  EXPECT_EQ(tree.stats().crash_handovers, 0);
}

TEST(SelfHealing, RootCrashMidSequenceRecovers) {
  // The headline acceptance scenario: crash-stop the root incumbent in
  // the middle of a sequential workload, over 5%-lossy channels, and
  // every operation must still return distinct consecutive values in
  // initiation order (run_sequential aborts otherwise).
  SimConfig cfg;
  cfg.seed = 17;
  cfg.delay = DelayModel::uniform(1, 4);
  cfg.faults.drop_probability = 0.05;
  cfg.faults.crashes.push_back({0, 300, -1});  // the initial root
  TreeServiceParams params;
  params.k = 2;
  params.age_threshold = 1'000'000;  // keep processor 0 the incumbent
  params.self_healing = true;
  params.inc_retry_timeout = 48;
  RetryParams retry;
  retry.ack_timeout = 8;
  retry.max_timeout = 32;
  retry.max_attempts = 4;
  Simulator sim(make_fault_tolerant_tree_counter(params, retry), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  ASSERT_EQ(n, 8);
  // Processor 0 is crashed from t=300 on; never initiate there.
  const RunResult result =
      run_sequential(sim, order_skipping(n, 3 * n, /*skip=*/0));
  EXPECT_TRUE(result.values_ok);
  const TreeService& tree = tree_of(sim);
  EXPECT_GE(tree.stats().crash_handovers, 1);
  EXPECT_GT(sim.fault_plane().stats().crash_drops, 0);
  // The new incumbent is a real processor and it is not the corpse.
  EXPECT_NE(tree.incumbent(0), kNoProcessor);
  EXPECT_NE(tree.incumbent(0), 0);
}

TEST(SelfHealing, NonRootCrashRecovers) {
  // Crash a level-1 incumbent (pool size k^(k-1) = 2 for k=2): its pool
  // successor must take over via promotion and traffic through that
  // subtree must keep completing.
  SimConfig cfg;
  cfg.seed = 23;
  cfg.delay = DelayModel::uniform(1, 4);
  cfg.faults.crashes.push_back({2, 250, -1});  // initial incumbent of node 2
  TreeServiceParams params;
  params.k = 2;
  params.age_threshold = 1'000'000;
  params.self_healing = true;
  params.inc_retry_timeout = 48;
  RetryParams retry;
  retry.ack_timeout = 8;
  retry.max_timeout = 32;
  retry.max_attempts = 4;
  Simulator sim(make_fault_tolerant_tree_counter(params, retry), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  const RunResult result =
      run_sequential(sim, order_skipping(n, 3 * n, /*skip=*/2));
  EXPECT_TRUE(result.values_ok);
  const TreeService& tree = tree_of(sim);
  EXPECT_GE(tree.stats().crash_handovers, 1);
  EXPECT_EQ(tree.incumbent(2), 3);  // node 2's pool is {2, 3}
}

TEST(SelfHealing, CrashRecoveryIsDeterministic) {
  // Same (schedule, seed) => the same crash recovery, message for
  // message — snapshots included.
  const auto run = [] {
    SimConfig cfg;
    cfg.seed = 29;
    cfg.delay = DelayModel::uniform(1, 4);
    cfg.faults.drop_probability = 0.05;
    cfg.faults.crashes.push_back({0, 200, -1});
    TreeServiceParams params;
    params.k = 2;
    params.age_threshold = 1'000'000;
    params.self_healing = true;
    params.inc_retry_timeout = 48;
    RetryParams retry;
    retry.ack_timeout = 8;
    retry.max_timeout = 32;
    retry.max_attempts = 4;
    Simulator sim(make_fault_tolerant_tree_counter(params, retry), cfg);
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    run_sequential(sim, order_skipping(n, 2 * n, /*skip=*/0));
    return sim;
  };
  const Simulator a = run();
  const Simulator b = run();
  EXPECT_EQ(a.deliveries(), b.deliveries());
  EXPECT_EQ(a.metrics().max_load(), b.metrics().max_load());
  const TreeService& ta = tree_of(a);
  const TreeService& tb = tree_of(b);
  EXPECT_EQ(ta.stats().crash_handovers, tb.stats().crash_handovers);
  EXPECT_EQ(ta.stats().retransmissions, tb.stats().retransmissions);
  EXPECT_EQ(ta.stats().backups_sent, tb.stats().backups_sent);
  EXPECT_EQ(a.fault_plane().stats().crash_drops,
            b.fault_plane().stats().crash_drops);
}

TEST(SelfHealing, SnapshotRestoreAcrossACrash) {
  // Snapshot before the crash instant, run through recovery twice (once
  // in a restored scratch, once in a fresh clone): identical outcomes.
  SimConfig cfg;
  cfg.seed = 31;
  cfg.delay = DelayModel::uniform(1, 4);
  cfg.faults.crashes.push_back({0, 220, -1});
  TreeServiceParams params;
  params.k = 2;
  params.age_threshold = 1'000'000;
  params.self_healing = true;
  params.inc_retry_timeout = 48;
  RetryParams retry;
  retry.ack_timeout = 8;
  retry.max_timeout = 32;
  retry.max_attempts = 4;
  Simulator sim(make_fault_tolerant_tree_counter(params, retry), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  run_sequential(sim, order_skipping(n, 4, /*skip=*/0));  // pre-crash ops
  const Simulator snap = sim.snapshot();

  Simulator scratch(sim);
  run_sequential(scratch, {5, 6});  // diverge
  scratch.restore(snap);
  Simulator fresh(snap);
  const RunResult ra = run_sequential(scratch, order_skipping(n, n, 0));
  const RunResult rb = run_sequential(fresh, order_skipping(n, n, 0));
  EXPECT_TRUE(ra.values_ok);
  EXPECT_TRUE(rb.values_ok);
  EXPECT_EQ(scratch.deliveries(), fresh.deliveries());
  EXPECT_EQ(tree_of(scratch).stats().crash_handovers,
            tree_of(fresh).stats().crash_handovers);
  EXPECT_GE(tree_of(fresh).stats().crash_handovers, 1);
}

TEST(SelfHealingDeath, ConcurrentOpsPerOriginAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TreeServiceParams params;
  params.k = 2;
  params.self_healing = true;
  EXPECT_DEATH(
      {
        Simulator sim(std::make_unique<TreeCounter>(params), SimConfig{});
        sim.begin_inc(1);
        sim.begin_inc(1);  // second op at the same origin, first in flight
      },
      "one outstanding");
}

// --- transport edge cases, driven without a simulator ---------------------
//
// A fake Context plus a probe inner protocol let these tests hit the
// transport's receive and timeout paths with surgically chosen message
// sequences — duplicate storms and blackholed channels that a seeded
// fault plane only produces by luck.

/// Records everything the transport does; drops cross-processor sends
/// when `blackhole` is set (the peer never sees data, the sender never
/// sees acks).
class RecordingCtx final : public Context {
 public:
  void send(Message&& msg) override {
    if (!blackhole) sent.push_back(std::move(msg));
  }
  void send_local(ProcessorId p, std::int32_t tag,
                  MessageArgs args, SimTime delay) override {
    Message msg;
    msg.src = p;
    msg.dst = p;
    msg.tag = tag;
    msg.args = std::move(args);
    msg.local = true;
    timers.push_back(std::move(msg));
    (void)delay;
  }
  void complete(OpId op, Value value) override {
    (void)op;
    (void)value;
  }
  Rng& rng() override { return rng_; }

  bool blackhole{false};
  std::vector<Message> sent;
  std::vector<Message> timers;

 private:
  Rng rng_{1};
};

/// Two-processor inner protocol: start_inc sends one payload 0 -> 1;
/// counts deliveries and unreachable upcalls.
class ProbeProtocol final : public CounterProtocol {
 public:
  static constexpr std::int32_t kTagPayload = 42;

  std::size_t num_processors() const override { return 2; }
  void start_inc(Context& ctx, ProcessorId origin, OpId op) override {
    Message msg;
    msg.src = origin;
    msg.dst = 1;
    msg.tag = kTagPayload;
    msg.op = op;
    msg.args = {7};
    ctx.send(std::move(msg));
  }
  void start_op(Context& ctx, ProcessorId origin, OpId op,
                std::span<const std::int64_t> args) override {
    (void)args;
    start_inc(ctx, origin, op);
  }
  void on_message(Context& ctx, const Message& msg) override {
    (void)ctx;
    delivered.push_back(msg);
  }
  void on_peer_unreachable(Context& ctx, ProcessorId self,
                           ProcessorId peer) override {
    (void)ctx;
    unreachable.push_back({self, peer});
  }
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<ProbeProtocol>(*this);
  }
  std::string name() const override { return "probe"; }

  std::vector<Message> delivered;
  std::vector<std::pair<ProcessorId, ProcessorId>> unreachable;
};

Message data_envelope(std::int64_t seq, OpId op = 5) {
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.tag = ReliableTransport::kTagData;
  msg.op = op;
  msg.args = {seq, ProbeProtocol::kTagPayload, 7};
  return msg;
}

TEST(ReliableTransportEdge, DuplicateStormHitsDedupWindow) {
  // Storm the receiver: every envelope delivered five times, one of
  // them (seq 3) arriving out of order so the dedup window's sparse
  // tail is exercised alongside the contiguous watermark. The inner
  // protocol must see each seq exactly once; every copy must still be
  // acked (the previous ack may have been the thing that was lost).
  ReliableTransport transport(std::make_unique<ProbeProtocol>(),
                              RetryParams{});
  auto& probe = dynamic_cast<ProbeProtocol&>(transport.mutable_inner());
  RecordingCtx ctx;

  const std::vector<std::int64_t> arrival_order = {0, 1, 3, 2, 4};
  constexpr int kCopies = 5;
  for (int copy = 0; copy < kCopies; ++copy) {
    for (const std::int64_t seq : arrival_order) {
      transport.on_message(ctx, data_envelope(seq));
    }
  }

  ASSERT_EQ(probe.delivered.size(), arrival_order.size());
  // First pass delivered each seq once, in arrival order.
  EXPECT_EQ(probe.delivered[2].tag, ProbeProtocol::kTagPayload);
  EXPECT_EQ(probe.delivered[2].args, (std::vector<std::int64_t>{7}));
  const auto total =
      static_cast<std::int64_t>(arrival_order.size() * kCopies);
  EXPECT_EQ(transport.stats().duplicates_suppressed,
            total - static_cast<std::int64_t>(arrival_order.size()));
  EXPECT_EQ(transport.stats().acks_sent, total);
  // Every ack went back to the sender, duplicates included.
  std::int64_t acks = 0;
  for (const Message& msg : ctx.sent) {
    if (msg.tag == ReliableTransport::kTagAck) ++acks;
  }
  EXPECT_EQ(acks, total);
}

TEST(ReliableTransportEdge, PeerUnreachableFiresExactlyOnce) {
  // Blackhole the channel and let the retransmission timer run to
  // exhaustion: max_attempts transmissions, then exactly one
  // on_peer_unreachable upcall — and a stale timer for the abandoned
  // seq must not produce a second one.
  RetryParams retry;
  retry.ack_timeout = 4;
  retry.max_timeout = 16;
  retry.max_attempts = 3;
  ReliableTransport transport(std::make_unique<ProbeProtocol>(), retry);
  auto& probe = dynamic_cast<ProbeProtocol&>(transport.mutable_inner());
  RecordingCtx ctx;
  ctx.blackhole = true;

  transport.start_inc(ctx, 0, 0);
  EXPECT_EQ(transport.unacked_total(), 1);

  // Pump armed timers back into the transport until it gives up.
  int fired = 0;
  while (!ctx.timers.empty()) {
    ASSERT_LT(fired, 100) << "timer loop did not terminate";
    Message timer = std::move(ctx.timers.front());
    ctx.timers.erase(ctx.timers.begin());
    transport.on_message(ctx, timer);
    ++fired;
  }

  EXPECT_EQ(transport.stats().retransmissions, retry.max_attempts - 1);
  EXPECT_EQ(transport.stats().messages_abandoned, 1);
  EXPECT_EQ(transport.unacked_total(), 0);
  ASSERT_EQ(probe.unreachable.size(), 1u);
  EXPECT_EQ(probe.unreachable[0], std::make_pair(ProcessorId{0},
                                                 ProcessorId{1}));

  // A stale duplicate of the final timer finds no pending send and
  // must be a no-op, not a second failure report.
  Message stale;
  stale.src = 0;
  stale.dst = 0;
  stale.tag = ReliableTransport::kTagTimer;
  stale.args = {1, 0};
  stale.local = true;
  transport.on_message(ctx, stale);
  EXPECT_EQ(probe.unreachable.size(), 1u);
  EXPECT_EQ(transport.stats().messages_abandoned, 1);
}

}  // namespace
}  // namespace dcnt
