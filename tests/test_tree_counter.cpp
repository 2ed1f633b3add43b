#include "core/tree_counter.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <ostream>

#include "core/tree_service.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "harness/throughput.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

Simulator make_tree_sim(TreeCounterParams params, SimConfig cfg) {
  return Simulator(std::make_unique<TreeCounter>(params), cfg);
}

const TreeCounter& tree_of(const Simulator& sim) {
  return dynamic_cast<const TreeCounter&>(sim.counter());
}

TEST(TreeCounter, SingleIncFollowsThePath) {
  TreeCounterParams params;
  params.k = 2;
  Simulator sim = make_tree_sim(params, {});
  const OpId op = sim.begin_inc(5);
  sim.run_until_quiescent();
  ASSERT_TRUE(sim.result(op).has_value());
  EXPECT_EQ(*sim.result(op), 0);
  // Path: leaf -> level2 -> level1 -> root, then root -> leaf: k+2 = 4
  // messages (no retirement on the very first inc with threshold 4k=8).
  EXPECT_EQ(sim.metrics().total_messages(), 4);
  EXPECT_EQ(tree_of(sim).stats().retirements_total, 0);
}

TEST(TreeCounter, FullSequenceReturnsDistinctOrderedValues) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  const auto order = schedule_sequential(81);
  const RunResult result = run_sequential(sim, order);
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(result.values.size(), 81u);
  EXPECT_EQ(tree_of(sim).value(), 81);
  tree_of(sim).deep_check();
}

class TreeCounterSeedTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(TreeCounterSeedTest, CorrectUnderRandomDeliveryAndOrder) {
  const int k = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  const bool fifo = std::get<2>(GetParam());
  TreeCounterParams params;
  params.k = k;
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.delay = DelayModel::uniform(1, 16);
  cfg.fifo_channels = fifo;
  Simulator sim = make_tree_sim(params, cfg);
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  const auto order =
      schedule_permutation(static_cast<std::int64_t>(sim.num_processors()), rng);
  const RunResult result = run_sequential(sim, order);
  EXPECT_TRUE(result.values_ok);
  tree_of(sim).deep_check();
  // The paper's workload never exhausts a replacement pool.
  EXPECT_EQ(tree_of(sim).stats().pool_wraps, 0);
  EXPECT_EQ(tree_of(sim).stats().self_handovers, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeCounterSeedTest,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Values(1, 2, 3),
                       ::testing::Bool()));

TEST(TreeCounter, HeavyTailDeliveryStillCorrect) {
  TreeCounterParams params;
  params.k = 3;
  SimConfig cfg;
  cfg.seed = 99;
  cfg.delay = DelayModel::heavy_tail(1, 1000);
  Simulator sim = make_tree_sim(params, cfg);
  const RunResult result = run_sequential(sim, schedule_reverse(81));
  EXPECT_TRUE(result.values_ok);
  tree_of(sim).deep_check();
}

TEST(TreeCounter, RetirementActuallyHappens) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  run_sequential(sim, schedule_sequential(81));
  const auto& stats = tree_of(sim).stats();
  EXPECT_GT(stats.retirements_total, 0);
  // The root is on every path: it must have retired several times.
  const auto& log = tree_of(sim).retirement_log();
  std::int64_t root_retirements = 0;
  for (const auto& ev : log) {
    if (ev.node == 0) ++root_retirements;
  }
  EXPECT_GT(root_retirements, 5);
}

TEST(TreeCounter, RootIncumbentWalksForward) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  run_sequential(sim, schedule_sequential(81));
  ProcessorId prev = 0;  // root starts at processor 0
  for (const auto& ev : tree_of(sim).retirement_log()) {
    if (ev.node != 0) continue;
    EXPECT_EQ(ev.old_pid, prev);
    EXPECT_EQ(ev.new_pid, prev + 1);  // id_new = id_old + 1
    prev = ev.new_pid;
  }
  EXPECT_EQ(tree_of(sim).incumbent(0), prev);
}

TEST(TreeCounter, StaticTreeNeverRetiresAndRootIsHotSpot) {
  auto counter = make_static_tree_counter(3);
  Simulator sim(std::move(counter), {});
  run_sequential(sim, schedule_sequential(81));
  const auto& tc = tree_of(sim);
  EXPECT_EQ(tc.stats().retirements_total, 0);
  // Root incumbent (processor 0) receives one inc and sends one value
  // per operation; it also serves the level-1 node 0 role.
  EXPECT_GE(sim.metrics().load(0), 2 * 81);
  EXPECT_EQ(tc.value(), 81);
}

TEST(TreeCounter, MisdirectedMessagesAreForwardedNotLost) {
  // With random delays, new-id notifications race the next handover;
  // the forwarding path must absorb them. Run many ops and require the
  // run to stay correct whether or not forwarding fired; across this
  // sweep it fires with overwhelming probability.
  std::int64_t forwarded = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    TreeCounterParams params;
    params.k = 3;
    SimConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.delay = DelayModel::uniform(1, 32);
    Simulator sim = make_tree_sim(params, cfg);
    run_sequential(sim, schedule_sequential(81));
    forwarded += tree_of(sim).stats().forwarded_messages;
    tree_of(sim).deep_check();
  }
  EXPECT_GT(forwarded, 0);
}

TEST(TreeCounter, AggressiveThresholdStillCorrect) {
  // The minimal *stable* threshold is k+2: every retirement ages its
  // k+1 neighbours by one message each, so thresholds <= k+1 have
  // reproduction factor (k+1)/T >= 1 and cascade forever (a
  // "retirement storm" — see DESIGN.md). k+2 is subcritical and must
  // still be correct, though pools may wrap.
  TreeCounterParams params;
  params.k = 3;
  params.age_threshold = params.k + 2;
  SimConfig cfg;
  cfg.seed = 3;
  cfg.delay = DelayModel::uniform(1, 8);
  Simulator sim = make_tree_sim(params, cfg);
  const RunResult result = run_sequential(sim, schedule_sequential(81));
  EXPECT_TRUE(result.values_ok);
  // Aggressive retirement may exhaust pools (wrap) — allowed, counted,
  // and still correct.
  tree_of(sim).deep_check();
}

TEST(TreeCounter, SubcriticalThresholdSpectrumStaysCorrect) {
  for (const std::int64_t threshold : {5LL, 6LL, 8LL, 12LL, 24LL, 64LL}) {
    TreeCounterParams params;
    params.k = 3;
    params.age_threshold = threshold;
    SimConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(threshold);
    cfg.delay = DelayModel::uniform(1, 4);
    Simulator sim = make_tree_sim(params, cfg);
    const RunResult result = run_sequential(sim, schedule_sequential(81));
    EXPECT_TRUE(result.values_ok) << "threshold " << threshold;
  }
}

TEST(TreeCounter, CountHandoverInAgeVariantCorrect) {
  TreeCounterParams params;
  params.k = 3;
  params.count_handover_in_age = true;
  Simulator sim = make_tree_sim(params, {});
  const RunResult result = run_sequential(sim, schedule_sequential(81));
  EXPECT_TRUE(result.values_ok);
  tree_of(sim).deep_check();
}

TEST(TreeCounter, BottleneckLoadIsOrderKAcrossSizes) {
  // The headline: max load grows like k, not like n.
  std::vector<double> per_k;
  for (int k = 2; k <= 5; ++k) {
    TreeCounterParams params;
    params.k = k;
    Simulator sim = make_tree_sim(params, {});
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    run_sequential(sim, schedule_sequential(n));
    per_k.push_back(static_cast<double>(sim.metrics().max_load()) / k);
  }
  // Constant factor stays bounded (empirically ~11-18) while n grows
  // from 8 to 15625 — i.e. the load is Theta(k).
  for (const double c : per_k) {
    EXPECT_GT(c, 2.0);
    EXPECT_LT(c, 30.0);
  }
}

TEST(TreeCounter, CloneMidRunContinuesCorrectly) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  run_sequential(sim, schedule_sequential(40));
  Simulator clone(sim);
  // Finish the sequence on both; they must agree.
  std::vector<ProcessorId> rest;
  for (ProcessorId p = 40; p < 81; ++p) rest.push_back(p);
  const RunResult a = run_sequential(sim, rest);
  const RunResult b = run_sequential(clone, rest);
  EXPECT_TRUE(a.values_ok);
  EXPECT_TRUE(b.values_ok);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(sim.metrics().total_messages(), clone.metrics().total_messages());
}

TEST(TreeCounter, NameReflectsConfiguration) {
  TreeCounterParams params;
  params.k = 4;
  EXPECT_EQ(TreeCounter(params).name(), "tree(k=4,T=16)");
  EXPECT_EQ(make_static_tree_counter(3)->name(), "static-tree(k=3)");
}

TEST(TreeCounter, MultipleIncsPerProcessorAlsoWork) {
  // Out-of-model workload (the paper assumes one inc per processor);
  // the protocol itself keeps working, pools may wrap.
  TreeCounterParams params;
  params.k = 2;
  Simulator sim = make_tree_sim(params, {});
  Rng rng(17);
  const auto order = schedule_uniform(8, 200, rng);
  const RunResult result = run_sequential(sim, order);
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(tree_of(sim).value(), 200);
}

// --- combining, driven handler by handler ---------------------------------
//
// A fake Context lets these tests hand a role exactly the messages a
// schedule would, and read back what it sends and leaves for its dry
// point (a delay-0 send_local).

class CombineCtx final : public Context {
 public:
  void send(Message&& msg) override { sent.push_back(std::move(msg)); }
  void send_local(ProcessorId p, std::int32_t tag, MessageArgs args,
                  SimTime delay) override {
    if (delay != 0) {
      ADD_FAILURE() << "the fault-free tree arms no timer";
      return;
    }
    Message msg;
    msg.src = p;
    msg.dst = p;
    msg.tag = tag;
    msg.args = std::move(args);
    msg.local = true;
    deferred.push_back(std::move(msg));
  }
  void complete(OpId, Value) override {}
  Rng& rng() override { return rng_; }

  /// Delivers and forgets the dry-point messages queued so far.
  void run_deferred(TreeCounter& tree) {
    std::vector<Message> due;
    due.swap(deferred);
    for (const Message& m : due) tree.on_message(*this, m);
  }

  std::vector<Message> sent;
  std::vector<Message> deferred;

 private:
  Rng rng_{1};
};

/// An inc (one op) or a multi (2-3 ops) for `target`, as `src` sends it.
Message climb(const TreeCounter& tree, ProcessorId src, ProcessorId dst,
              NodeId target,
              std::vector<std::pair<ProcessorId, OpId>> ops) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = ops.size() == 1 ? TreeService::kTagInc : TreeService::kTagMulti;
  m.op = ops[0].second;
  m.args = {ops[0].first, target};
  for (std::size_t i = 1; i < ops.size(); ++i) {
    m.args.push_back(ops[i].second * tree.layout().n() + ops[i].first);
  }
  return m;
}

TEST(TreeCounter, MultiAtTheRootAnswersEachOriginWithConsecutiveValues) {
  TreeCounterParams params;
  params.k = 2;  // n = 8, threshold 4k = 8: the root retires at age 8
  TreeCounter tree(params);
  const ProcessorId root = tree.incumbent(0);
  const ProcessorId child = tree.incumbent(2);
  CombineCtx ctx;
  // A 2-op and a 3-op multi, then an inc: values in message order, each
  // reply straight to its origin under its own op.
  tree.on_message(ctx, climb(tree, child, root, 0, {{3, 10}, {5, 11}}));
  tree.on_message(ctx,
                  climb(tree, child, root, 0, {{6, 12}, {2, 13}, {7, 14}}));
  tree.on_message(ctx, climb(tree, child, root, 0, {{4, 15}}));
  ASSERT_EQ(ctx.sent.size(), 6u);
  const std::pair<ProcessorId, OpId> want[] = {
      {3, 10}, {5, 11}, {6, 12}, {2, 13}, {7, 14}, {4, 15}};
  for (std::size_t i = 0; i < ctx.sent.size(); ++i) {
    const Message& reply = ctx.sent[i];
    EXPECT_EQ(reply.tag, TreeService::kTagValue) << i;
    EXPECT_EQ(reply.src, root) << i;
    EXPECT_EQ(reply.dst, want[i].first) << i;
    EXPECT_EQ(reply.op, want[i].second) << i;
    EXPECT_EQ(reply.args.at(0), static_cast<Value>(i)) << i;
  }
  EXPECT_TRUE(ctx.deferred.empty());  // the root never buffers
  EXPECT_EQ(tree.value(), 6);
  // A multi ages the root by 2, like any received message: three
  // messages (6 ops) leave it at 6; a fourth retires it.
  EXPECT_EQ(tree.stats().retirements_total, 0);
  tree.on_message(ctx, climb(tree, child, root, 0, {{1, 16}, {0, 17}}));
  EXPECT_EQ(tree.stats().retirements_total, 1);
  EXPECT_EQ(ctx.sent[6].args.at(0), 6);
  EXPECT_EQ(ctx.sent[7].args.at(0), 7);
}

TEST(TreeCounter, RoleFlushesWhenFullAndOnRetirement) {
  TreeCounterParams params;
  params.k = 2;
  TreeCounter tree(params);
  // Node 2 sits on level 1, whose pools hold k processors: level-k
  // pools hold one, so those roles only ever hand over to themselves.
  const NodeId node = 2;
  const ProcessorId self = tree.incumbent(node);
  const ProcessorId parent = tree.incumbent(tree.layout().parent(node));
  CombineCtx ctx;
  // Incs 1-3 fill the buffer: one flush as a 3-op multi, one armed
  // dry point. Inc 4 buffers again and ages the role to 8, so it
  // retires, and its buffer climbs before the handover.
  for (OpId op = 0; op < 4; ++op) {
    const ProcessorId from = tree.incumbent(tree.layout().child(node, op % 2));
    tree.on_message(ctx, climb(tree, from, self, node, {{0, op}}));
  }
  EXPECT_EQ(ctx.deferred.size(), 1u);
  ASSERT_GE(ctx.sent.size(), 3u);
  EXPECT_EQ(ctx.sent[0].tag, TreeService::kTagMulti);
  EXPECT_EQ(ctx.sent[0].dst, parent);
  EXPECT_EQ(ctx.sent[0].op, 0);
  EXPECT_EQ(ctx.sent[0].args.at(1), tree.layout().parent(node));
  EXPECT_EQ(ctx.sent[0].args.size(), 4u);
  EXPECT_EQ(ctx.sent[1].tag, TreeService::kTagInc);
  EXPECT_EQ(ctx.sent[1].op, 3);
  EXPECT_EQ(ctx.sent[2].tag, TreeService::kTagTakeOver);
  EXPECT_EQ(tree.stats().retirements_total, 1);
  // The armed flush finds the role gone and sends nothing.
  const std::size_t sent = ctx.sent.size();
  ctx.run_deferred(tree);
  EXPECT_EQ(ctx.sent.size(), sent);
}

TEST(TreeCounter, MultiIsForwardedByARetireeAndStashedAcrossAHandover) {
  TreeCounterParams params;
  params.k = 2;
  TreeCounter tree(params);
  const NodeId node = 2;  // level 1: a pool of k processors
  const ProcessorId old_pid = tree.incumbent(node);
  const ProcessorId from = tree.incumbent(tree.layout().child(node, 0));
  const ProcessorId parent = tree.incumbent(tree.layout().parent(node));
  CombineCtx ctx;
  // Retire the role with four lone incs, each flushed at its dry point.
  for (OpId op = 0; op < 4; ++op) {
    tree.on_message(ctx, climb(tree, from, old_pid, node, {{0, op}}));
    ctx.run_deferred(tree);
  }
  ASSERT_EQ(tree.stats().retirements_total, 1);
  const ProcessorId new_pid = tree.layout().successor(node, old_pid);
  std::vector<Message> handover;
  for (const Message& m : ctx.sent) {
    if (m.dst == new_pid) handover.push_back(m);
  }
  ASSERT_EQ(handover.size(), 3u);  // TakeOver + k ChildInfo
  ctx.sent.clear();

  // A multi still in flight to the retiree is forwarded whole.
  const Message late = climb(tree, from, old_pid, node, {{1, 4}, {0, 5}});
  tree.on_message(ctx, late);
  ASSERT_EQ(ctx.sent.size(), 1u);
  const Message fwd = ctx.sent[0];
  EXPECT_EQ(fwd.tag, TreeService::kTagMulti);
  EXPECT_EQ(fwd.src, old_pid);
  EXPECT_EQ(fwd.dst, new_pid);
  EXPECT_EQ(fwd.op, late.op);
  EXPECT_EQ(fwd.args, late.args);
  EXPECT_EQ(tree.stats().forwarded_messages, 1);
  ctx.sent.clear();

  // It beats the handover to the successor: stashed, then drained into
  // the committed role's buffer, and flushed at its dry point.
  tree.on_message(ctx, fwd);
  EXPECT_EQ(tree.stats().orphan_stashes, 1);
  EXPECT_TRUE(ctx.sent.empty());
  for (const Message& m : handover) tree.on_message(ctx, m);
  EXPECT_EQ(tree.incumbent(node), new_pid);
  EXPECT_TRUE(ctx.sent.empty());
  ASSERT_EQ(ctx.deferred.size(), 1u);
  ctx.run_deferred(tree);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].tag, TreeService::kTagMulti);
  EXPECT_EQ(ctx.sent[0].src, new_pid);
  EXPECT_EQ(ctx.sent[0].dst, parent);
  EXPECT_EQ(ctx.sent[0].op, 4);
  EXPECT_EQ(ctx.sent[0].args.at(0), 1);
  EXPECT_EQ(ctx.sent[0].args.at(1), tree.layout().parent(node));
  EXPECT_EQ(ctx.sent[0].args.at(2), 5 * tree.layout().n() + 0);
}

/// The counts of one closed-window run in the fixed-delay simulator.
struct WindowRun {
  std::int64_t total_messages;
  std::int64_t max_load;
  std::int64_t forwarded;  ///< TreeServiceStats::forwarded_messages
  bool operator==(const WindowRun&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const WindowRun& r) {
    return os << r.total_messages << "/" << r.max_load << "/" << r.forwarded;
  }
};

/// 16 closed-loop clients x `inflight` ops each over 1,296 round-robin
/// incs at seed 7: the same LoadOptions run_throughput takes.
ThroughputOptions window_options(std::size_t inflight) {
  ThroughputOptions options;
  options.concurrency = 16;
  options.inflight = inflight;
  options.ops = 1296;
  options.seed = 7;
  options.workers = 1;
  return options;
}

/// window_options driven through the simulator's port, one delivery
/// tick per message.
WindowRun run_window(CounterKind kind, std::size_t inflight) {
  const ThroughputOptions options = window_options(inflight);
  SimConfig cfg;
  cfg.seed = options.seed;
  cfg.delay = DelayModel::fixed_delay(1);
  Simulator sim(make_counter(kind, 81), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  const RunResult result = run_load(
      sim,
      make_initiators(options.initiators, options.zipf_s, n,
                      static_cast<std::int64_t>(options.ops), options.seed),
      options.driver_options());
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(result.values.size(), options.ops);
  const LinearizabilityReport lin = check_linearizable(counter_history(sim));
  EXPECT_TRUE(lin.linearizable) << lin.violations << " violations";
  const auto* tree = dynamic_cast<const TreeService*>(&sim.counter());
  return {result.total_messages, result.max_load,
          tree != nullptr ? tree->stats().forwarded_messages.load() : 0};
}

TEST(TreeCounter, ClosedWindowsInTheSimulatorPinTheOverlapCost) {
  // The tree's forwarding grows with the window (F = ops in flight per
  // client): a retiree forwards only to its immediate successor, and
  // every inc in flight to a role can land on a retiree. Combining at
  // each role's dry point (at most 3 incs per climb) bounds what is in
  // flight to a role, so F=16 costs about 2.4x F=1 in max_load (5.1x
  // without combining). Central is one more input: whatever the window,
  // an inc costs one request and one reply unless it starts at the
  // centre (one op in n), and the threaded runtime counts the same.
  const std::int64_t central = 2 * (1296 - 1296 / 81);
  const struct {
    CounterKind kind;
    std::size_t inflight;
    WindowRun want;
  } cases[] = {
      {CounterKind::kTree, 1, {7912, 266, 704}},
      {CounterKind::kTree, 16, {18280, 643, 11988}},
      {CounterKind::kCentral, 16, {central, central, 0}},
  };
  for (const auto& c : cases) {
    const WindowRun run = run_window(c.kind, c.inflight);
    EXPECT_EQ(run, c.want) << to_string(c.kind) << " F=" << c.inflight;
    // Runs are a pure function of (protocol, seed).
    EXPECT_EQ(run_window(c.kind, c.inflight), run);
  }
  EXPECT_EQ(run_throughput(make_counter(CounterKind::kCentral, 81),
                           window_options(16))
                .total_messages,
            central);
}

}  // namespace
}  // namespace dcnt
