// Threaded runtime: mailbox delivery, quiescence, timers, sharding
// guard rails, and exact load accounting under real concurrency. These
// tests (quick-labeled) run in the TSan CI job — they are the ones with
// actual data races to find.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "baselines/central.hpp"
#include "core/tree_counter.hpp"
#include "harness/factory.hpp"
#include "harness/schedule.hpp"
#include "harness/throughput.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/threaded_runtime.hpp"
#include "runtime/workload.hpp"
#include "support/rng.hpp"

namespace dcnt {
namespace {

TEST(Mailbox, MultiProducerDrainsEverythingExactlyOnce) {
  Mailbox box;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        RuntimeEvent ev;
        ev.msg.tag = p * kPerProducer + i;
        box.push(std::move(ev));
      }
    });
  }
  for (auto& t : producers) t.join();
  std::multiset<int> seen;
  std::vector<RuntimeEvent> batch;
  while (box.drain(batch)) {
    for (const auto& ev : batch) seen.insert(ev.msg.tag);
  }
  ASSERT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (int tag = 0; tag < kProducers * kPerProducer; ++tag) {
    EXPECT_EQ(seen.count(tag), 1u) << tag;
  }
}

TEST(Mailbox, PushAllMovesWholeBatchesFromMultipleProducers) {
  Mailbox box;
  constexpr int kProducers = 4;
  constexpr int kBatches = 100;
  constexpr int kPerBatch = 20;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      std::vector<RuntimeEvent> batch;
      for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kPerBatch; ++i) {
          RuntimeEvent ev;
          ev.msg.tag = (p * kBatches + b) * kPerBatch + i;
          batch.push_back(std::move(ev));
        }
        box.push_all(batch);
        // The batch buffer comes back empty and reusable.
        ASSERT_TRUE(batch.empty());
      }
    });
  }
  for (auto& t : producers) t.join();
  std::multiset<int> seen;
  std::vector<RuntimeEvent> out;
  while (box.drain(out)) {
    for (const auto& ev : out) seen.insert(ev.msg.tag);
  }
  constexpr int kTotal = kProducers * kBatches * kPerBatch;
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kTotal));
  for (int tag = 0; tag < kTotal; ++tag) {
    EXPECT_EQ(seen.count(tag), 1u) << tag;
  }
}

TEST(Mailbox, PushAllOfEmptyBatchIsANoOp) {
  Mailbox box;
  std::vector<RuntimeEvent> empty;
  box.push_all(empty);
  std::vector<RuntimeEvent> out;
  EXPECT_FALSE(box.drain(out));
}

// push_all must wake a parked owner: one wake per batch is the whole
// point of the batched hand-off, so a lost wake here would deadlock a
// dry worker forever.
TEST(Mailbox, PushAllWakesAParkedOwner) {
  Mailbox box;
  std::atomic<bool> stop{false};
  std::atomic<int> delivered{0};
  std::thread owner([&] {
    std::vector<RuntimeEvent> out;
    for (;;) {
      if (!box.wait(stop) && stop.load()) return;
      while (box.drain(out)) {
        delivered.fetch_add(static_cast<int>(out.size()));
      }
    }
  });
  std::vector<RuntimeEvent> batch(17);
  // Outlast the spin phase so the owner is (very likely) parked on the
  // condvar by the time the batch arrives; correctness does not depend
  // on winning that race, only the coverage does.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.push_all(batch);
  while (delivered.load() < 17) std::this_thread::yield();
  stop.store(true);
  box.wake();
  owner.join();
  EXPECT_EQ(delivered.load(), 17);
}

// The stop flag must win even when mail keeps arriving: wait() reports
// mail, the caller drains and re-checks stop.
TEST(Mailbox, WaitObservesStopWithoutMail) {
  Mailbox box;
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    EXPECT_FALSE(box.wait(stop));  // no mail ever arrives
    EXPECT_TRUE(stop.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true);
  box.wake();
  owner.join();
}

TEST(ThreadedRuntime, WaitQuiescentOnIdleRuntimeReturnsImmediately) {
  RuntimeConfig config;
  config.workers = 2;
  ThreadedRuntime rt(std::make_unique<CentralCounter>(4), config);
  rt.wait_quiescent();  // must not hang
  EXPECT_EQ(rt.ops_started(), 0u);
  EXPECT_EQ(rt.merged_metrics().total_messages(), 0);
}

// Central counter: an inc from origin != holder is exactly one request
// plus one reply; an inc at the holder is free. The merged metrics must
// reproduce that count exactly, whatever the thread count.
TEST(ThreadedRuntime, CentralLoadAccountingIsExact) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const std::int64_t n = 8;
    const std::size_t ops = 512;
    RuntimeConfig config;
    config.workers = workers;
    config.seed = 5;
    config.max_ops = ops;
    ThreadedRuntime rt(std::make_unique<CentralCounter>(n), config);

    std::vector<ProcessorId> initiators(ops);
    std::int64_t remote = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      initiators[i] = static_cast<ProcessorId>(i % n);
      if (initiators[i] != 0) ++remote;  // holder is processor 0
    }
    WorkloadOptions wl;
    wl.concurrency = 16;
    const WorkloadResult run = run_workload(rt, initiators, wl);
    EXPECT_EQ(run.ops, ops);
    EXPECT_GT(run.ops_per_sec, 0.0);
    EXPECT_EQ(static_cast<std::size_t>(run.traffic.count), ops);
    EXPECT_TRUE(run.traffic.exact);  // small run: exact per-op storage

    const Metrics m = rt.merged_metrics();
    EXPECT_EQ(m.total_messages(), 2 * remote);
    std::int64_t load_sum = 0;
    for (ProcessorId p = 0; p < n; ++p) load_sum += m.load(p);
    EXPECT_EQ(load_sum, 2 * m.total_messages());
    // The holder receives every request and sends every reply.
    EXPECT_EQ(m.load(0), 2 * remote);
    EXPECT_EQ(m.bottleneck(), 0);
  }
}

TEST(ThreadedRuntime, ValuesArePermutationForEveryCounterAndWorkerCount) {
  for (const CounterKind kind :
       {CounterKind::kCentral, CounterKind::kTree, CounterKind::kCombining,
        CounterKind::kDiffracting}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      ThroughputOptions options;
      options.workers = workers;
      options.ops = 256;
      options.concurrency = 8;
      options.seed = 3;
      options.initiators = "uniform";
      const ThroughputResult res =
          run_throughput(make_counter(kind, 8), options);
      EXPECT_TRUE(res.values_ok) << to_string(kind) << " W=" << workers;
      EXPECT_EQ(res.ops, 256u);
      EXPECT_GT(res.ops_per_sec, 0.0);
      EXPECT_GT(res.total_messages, 0);
      EXPECT_GE(res.p99_us, res.p50_us);
    }
  }
}

// Warmup ops run first, complete, and leave no trace in the metrics:
// the measured phase of a central run must show exactly the measured
// ops' request/reply traffic, as if the warmup never happened.
TEST(ThreadedRuntime, WarmupOpsAreExcludedFromMetricsAndLatency) {
  const std::int64_t n = 8;
  ThroughputOptions options;
  options.workers = 2;
  options.ops = 128;
  options.warmup = 64;
  options.concurrency = 8;
  options.seed = 9;
  options.initiators = "roundrobin";
  const ThroughputResult res =
      run_throughput(std::make_unique<CentralCounter>(n), options);
  EXPECT_TRUE(res.values_ok);  // permutation over warmup + measured
  EXPECT_EQ(res.ops, 128u);
  EXPECT_EQ(res.warmup, 64u);
  // Round-robin over n=8: 7 of every 8 measured ops are remote, each
  // costing one request + one reply. Any warmup leakage would inflate
  // this exact count.
  EXPECT_EQ(res.total_messages, 2 * (128 / 8) * (n - 1));
  EXPECT_GT(res.ops_per_sec, 0.0);
}

TEST(ThreadedRuntime, ZipfAndOpenLoopWorkloadsComplete) {
  ThroughputOptions options;
  options.workers = 2;
  options.ops = 128;
  options.seed = 11;
  options.initiators = "zipf";
  options.zipf_s = 1.0;
  const ThroughputResult closed =
      run_throughput(make_counter(CounterKind::kTree, 8), options);
  EXPECT_TRUE(closed.values_ok);

  options.open_rate = 50'000.0;  // open loop at 50k/s
  const ThroughputResult open =
      run_throughput(make_counter(CounterKind::kCentral, 8), options);
  EXPECT_TRUE(open.values_ok);
  EXPECT_GT(open.wall_seconds, 0.0);
}

// The keyed harness builds its runtime from the same config as the
// plain one, so the placement it asks for applies — or reports itself
// unsupported — exactly as a plain run's does.
TEST(ThreadedRuntime, KeyedRunHonoursPlacement) {
  ThroughputOptions options;
  options.workers = 2;
  options.ops = 128;
  options.seed = 5;
  options.placement = Placement::kCompact;
  options.keys = 4;
  const ThroughputResult res =
      run_throughput(make_counter(CounterKind::kCentral, 8), options);
  EXPECT_TRUE(res.values_ok);
  EXPECT_EQ(res.workers, 2u);
  EXPECT_EQ(res.placement, "compact");
  EXPECT_TRUE(res.pinned_workers == res.workers || !res.placement_supported)
      << "pinned " << res.pinned_workers;
}

// A protocol driven purely by send_local timers: completion depends on
// the idle clock-jump, and quiescence must wait for armed timers.
struct TimerCounter final : CounterProtocol {
  std::int64_t count{0};

  std::size_t num_processors() const override { return 1; }
  void start_inc(Context& ctx, ProcessorId origin, OpId /*op*/) override {
    ctx.send_local(origin, 1, {}, 5);
  }
  void on_message(Context& ctx, const Message& msg) override {
    EXPECT_TRUE(msg.local);
    ctx.complete(msg.op, count++);
  }
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<TimerCounter>(*this);
  }
  std::string name() const override { return "timer-counter"; }
  bool shard_safe() const override { return true; }
};

TEST(ThreadedRuntime, TimersFireViaIdleClockJump) {
  RuntimeConfig config;
  config.workers = 2;  // processor 0 lives on shard 0; shard 1 idles
  config.max_ops = 8;
  ThreadedRuntime rt(std::make_unique<TimerCounter>(), config);
  for (std::int64_t i = 0; i < 8; ++i) {
    const OpId op = rt.begin_inc(0);
    rt.wait_quiescent();
    ASSERT_TRUE(rt.result(op).has_value());
    EXPECT_EQ(*rt.result(op), i);
  }
  EXPECT_EQ(rt.ops_completed(), 8u);
  // Timers are local: no network traffic at all.
  EXPECT_EQ(rt.merged_metrics().total_messages(), 0);
}

// Each op at processor p: the start sends self-messages M1 and M2 (one
// generation); M1 defers D1 (a delay-0 send_local) and sends M3 (the
// next generation); D1 defers D2, which completes the op. Each processor logs only its own
// deliveries, so the protocol is shard-safe.
struct DeferLog final : CounterProtocol {
  enum : std::int32_t { kM1 = 1, kM2, kM3, kD1, kD2 };
  explicit DeferLog(std::size_t n) : logs(n) {}
  std::vector<std::vector<std::int32_t>> logs;

  static void to_self(Context& ctx, ProcessorId p, std::int32_t tag) {
    Message m;
    m.src = p;
    m.dst = p;
    m.tag = tag;
    ctx.send(std::move(m));
  }
  std::size_t num_processors() const override { return logs.size(); }
  void start_inc(Context& ctx, ProcessorId origin, OpId /*op*/) override {
    to_self(ctx, origin, kM1);
    to_self(ctx, origin, kM2);
  }
  void on_message(Context& ctx, const Message& msg) override {
    logs[static_cast<std::size_t>(msg.dst)].push_back(msg.tag);
    if (msg.tag == kM1) {
      ctx.send_local(msg.dst, kD1, {}, 0);
      to_self(ctx, msg.dst, kM3);
    } else if (msg.tag == kD1) {
      EXPECT_TRUE(msg.local);
      ctx.send_local(msg.dst, kD2, {}, 0);
    } else if (msg.tag == kD2) {
      ctx.complete(msg.op, 0);
    }
  }
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<DeferLog>(*this);
  }
  std::string name() const override { return "defer-log"; }
  bool shard_safe() const override { return true; }
};

/// What DeferLog must show at every processor after one op there: D1
/// after M3, because the shard only runs dry once every generation is
/// done, and D2 at the dry point after D1's.
void expect_deferred_at_dry_point(const ThreadedRuntime& rt) {
  const auto& proto = dynamic_cast<const DeferLog&>(rt.protocol());
  const std::vector<std::int32_t> want = {DeferLog::kM1, DeferLog::kM2,
                                          DeferLog::kM3, DeferLog::kD1,
                                          DeferLog::kD2};
  for (std::size_t p = 0; p < proto.logs.size(); ++p) {
    EXPECT_EQ(proto.logs[p], want) << "p=" << p;
  }
  // Self-sends and deferred messages are free; each op handled a start,
  // three self-messages and two deferred messages.
  EXPECT_EQ(rt.merged_metrics().total_messages(), 0);
  EXPECT_EQ(rt.events_processed(),
            6 * static_cast<std::int64_t>(proto.logs.size()));
}

TEST(ThreadedRuntime, DeferRunsWhenItsShardRunsDry) {
  for (const std::size_t workers : {1u, 4u}) {
    RuntimeConfig config;
    config.workers = workers;
    config.active_shards = workers;
    config.max_ops = 8;
    ThreadedRuntime rt(std::make_unique<DeferLog>(8), config);
    for (ProcessorId p = 0; p < 8; ++p) rt.begin_inc(p);
    rt.wait_quiescent();
    // The ops complete in D2, deferred twice: quiescence waited for it.
    EXPECT_EQ(rt.ops_completed(), 8u) << "W=" << workers;
    expect_deferred_at_dry_point(rt);
  }
}

TEST(ThreadedRuntime, HostedDriveRunsDeferredMessagesBeforeReturningDry) {
  RuntimeConfig config;
  config.workers = 1;
  config.max_ops = 4;
  config.hosting = NodeHosting{1, 0, 200};
  ThreadedRuntime rt(std::make_unique<DeferLog>(4), config);
  for (ProcessorId p = 0; p < 4; ++p) rt.begin_inc(p);
  while (rt.in_flight() > 0) rt.drive();
  EXPECT_EQ(rt.ops_completed(), 4u);
  expect_deferred_at_dry_point(rt);
}

/// Logs every event it handles: a start logs its op and sends one hop,
/// and the hop logs 100 + op and completes the op.
struct InjectLog final : CounterProtocol {
  std::vector<std::int64_t> log;

  std::size_t num_processors() const override { return 4; }
  void start_inc(Context& ctx, ProcessorId origin, OpId op) override {
    log.push_back(op);
    Message m;
    m.src = origin;
    m.dst = (origin + 1) % 4;
    m.tag = 1;
    ctx.send(std::move(m));
  }
  void on_message(Context& ctx, const Message& msg) override {
    log.push_back(100 + msg.op);
    ctx.complete(msg.op, msg.op);
  }
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<InjectLog>(*this);
  }
  std::string name() const override { return "inject-log"; }
};

/// A hosted one-node runtime over InjectLog, as a cluster node builds it.
std::unique_ptr<ThreadedRuntime> hosted_inject_log() {
  RuntimeConfig config;
  config.workers = 1;
  config.max_ops = 8;
  config.hosting = NodeHosting{1, 0, 200};
  return std::make_unique<ThreadedRuntime>(std::make_unique<InjectLog>(),
                                           config);
}

/// Controller-assigned starts, as a node stages them for inject().
std::vector<RuntimeEvent> starts(std::initializer_list<OpId> ops) {
  std::vector<RuntimeEvent> evs;
  for (const OpId op : ops) {
    RuntimeEvent& ev = evs.emplace_back();
    ev.kind = RuntimeEvent::Kind::kStart;
    ev.msg.src = static_cast<ProcessorId>(op % 4);
    ev.msg.dst = ev.msg.src;
    ev.msg.op = op;
  }
  return evs;
}

const std::vector<std::int64_t>& inject_log(const ThreadedRuntime& rt) {
  return dynamic_cast<const InjectLog&>(rt.protocol()).log;
}

TEST(ThreadedRuntime, HostedInjectCountsInFlightBeforeDrive) {
  auto rt = hosted_inject_log();
  auto evs = starts({0, 1, 2});
  rt->register_external_op(2);
  rt->inject(evs);
  EXPECT_TRUE(evs.empty());
  // Counted at once, before any event runs: a quiescence check between
  // inject() and drive() cannot read the node idle.
  EXPECT_EQ(rt->in_flight(), 3);
  EXPECT_EQ(rt->events_processed(), 0);
  while (rt->in_flight() > 0) rt->drive();
  EXPECT_EQ(rt->ops_completed(), 3u);
  EXPECT_EQ(rt->events_processed(), 6);
}

TEST(ThreadedRuntime, HostedInjectRunsInOrderAheadOfItsOwnOutput) {
  auto rt = hosted_inject_log();
  auto evs = starts({2, 0, 1});
  rt->register_external_op(2);
  rt->inject(evs);
  while (rt->in_flight() > 0) rt->drive();
  // The batch runs in injection order; the hops its starts send form
  // the next generation.
  EXPECT_EQ(inject_log(*rt),
            (std::vector<std::int64_t>{2, 0, 1, 102, 100, 101}));
}

TEST(ThreadedRuntime, HostedSecondInjectQueuesBehindWhatIsStillReady) {
  auto rt = hosted_inject_log();
  auto first = starts({0, 1});
  auto second = starts({3, 2});
  rt->register_external_op(4);
  rt->inject(first);
  rt->inject(second);  // no drive() in between: the first is still ready
  EXPECT_EQ(rt->in_flight(), 4);
  while (rt->in_flight() > 0) rt->drive();
  EXPECT_EQ(inject_log(*rt),
            (std::vector<std::int64_t>{0, 1, 3, 2, 100, 101, 103, 102}));
  // A batch injected after the shard ran dry starts a fresh queue.
  auto third = starts({4});
  rt->inject(third);
  while (rt->in_flight() > 0) rt->drive();
  EXPECT_EQ(inject_log(*rt).back(), 104);
  EXPECT_EQ(rt->ops_completed(), 5u);
  EXPECT_EQ(rt->merged_metrics().total_messages(), 5);
}

// A busy shard postpones a deferred message until its busy period ends,
// never longer: processor 0 defers D and then keeps its one-worker shard
// busy with a chain of self-sends, one generation per link. D runs
// once, after the last link, and completes the op.
struct DeferBehindChain final : CounterProtocol {
  enum : std::int32_t { kLink = 1, kD };
  static constexpr std::int64_t kLinks = 1000;
  std::vector<std::int32_t> log;

  std::size_t num_processors() const override { return 1; }
  void start_inc(Context& ctx, ProcessorId origin, OpId /*op*/) override {
    ctx.send_local(origin, kD, {}, 0);
    link(ctx, origin, kLinks);
  }
  static void link(Context& ctx, ProcessorId p, std::int64_t left) {
    Message m;
    m.src = p;
    m.dst = p;
    m.tag = kLink;
    m.args = {left};
    ctx.send(std::move(m));
  }
  void on_message(Context& ctx, const Message& msg) override {
    log.push_back(msg.tag);
    if (msg.tag == kLink && msg.args[0] > 1) {
      link(ctx, msg.dst, msg.args[0] - 1);
    } else if (msg.tag == kD) {
      ctx.complete(msg.op, 0);
    }
  }
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<DeferBehindChain>(*this);
  }
  std::string name() const override { return "defer-behind-chain"; }
};

TEST(ThreadedRuntime, DeferWaitsForTheBusyPeriodOfASelfSendChain) {
  RuntimeConfig config;
  config.workers = 1;
  config.max_ops = 1;
  ThreadedRuntime rt(std::make_unique<DeferBehindChain>(), config);
  const OpId op = rt.begin_inc(0);
  rt.wait_quiescent();
  ASSERT_TRUE(rt.result(op).has_value());
  const auto& proto = dynamic_cast<const DeferBehindChain&>(rt.protocol());
  std::vector<std::int32_t> want(DeferBehindChain::kLinks,
                                 DeferBehindChain::kLink);
  want.push_back(DeferBehindChain::kD);
  EXPECT_EQ(proto.log, want);
  EXPECT_EQ(rt.events_processed(), DeferBehindChain::kLinks + 2);
}

// Mail from another shard keeps a shard busy too, and the deferred
// message is not starved by it: processor 0 (shard 0) defers D, asks
// processor 1 (shard 1) for a burst of messages and spins on self-sends
// until the whole burst is in. The spin admits the burst through the
// mailbox at generation boundaries; D runs once, after the last burst
// message, and wait_quiescent returns.
struct DeferBehindBurst final : CounterProtocol {
  enum : std::int32_t { kGo = 1, kSpin, kBurst, kD };
  static constexpr std::int64_t kBurstSize = 1000;
  // Processor 0's state: only shard 0 touches it.
  std::int64_t bursts_in{0};
  std::int64_t bursts_at_d{-1};
  std::int64_t d_runs{0};

  static Message to(ProcessorId src, ProcessorId dst, std::int32_t tag) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.tag = tag;
    return m;
  }
  std::size_t num_processors() const override { return 2; }
  void start_inc(Context& ctx, ProcessorId origin, OpId /*op*/) override {
    ctx.send_local(origin, kD, {}, 0);
    ctx.send(to(origin, 1, kGo));
    ctx.send(to(origin, origin, kSpin));
  }
  void on_message(Context& ctx, const Message& msg) override {
    switch (msg.tag) {
      case kGo:
        for (std::int64_t i = 0; i < kBurstSize; ++i) {
          ctx.send(to(1, 0, kBurst));
        }
        break;
      case kSpin:
        if (bursts_in < kBurstSize) ctx.send(to(0, 0, kSpin));
        break;
      case kBurst:
        ++bursts_in;
        break;
      case kD:
        ++d_runs;
        bursts_at_d = bursts_in;
        ctx.complete(msg.op, 0);
        break;
      default:
        break;
    }
  }
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<DeferBehindBurst>(*this);
  }
  std::string name() const override { return "defer-behind-burst"; }
  bool shard_safe() const override { return true; }
};

TEST(ThreadedRuntime, DeferWaitsForACrossShardBurstAndIsNotStarved) {
  RuntimeConfig config;
  config.workers = 2;
  config.active_shards = 2;
  config.max_ops = 1;
  ThreadedRuntime rt(std::make_unique<DeferBehindBurst>(), config);
  ASSERT_EQ(rt.shard_of(0), 0u);
  ASSERT_EQ(rt.shard_of(1), 1u);
  const OpId op = rt.begin_inc(0);
  rt.wait_quiescent();
  ASSERT_TRUE(rt.result(op).has_value());
  const auto& proto = dynamic_cast<const DeferBehindBurst&>(rt.protocol());
  EXPECT_EQ(proto.d_runs, 1);
  EXPECT_EQ(proto.bursts_at_d, DeferBehindBurst::kBurstSize);
  // The go and the burst crossed shards; the spin and D are free.
  EXPECT_EQ(rt.merged_metrics().total_messages(),
            1 + DeferBehindBurst::kBurstSize);
}

// Role buffers and their deferred flushes under real concurrency: a
// closed tree window on four shards. run_throughput checks quiescence,
// which includes "no role holds a buffered inc".
TEST(ThreadedRuntime, TreeClosedWindowCombinesOnFourShards) {
  ThroughputOptions options;
  options.workers = 4;
  options.ops = 2048;
  options.concurrency = 16;
  options.inflight = 4;
  options.seed = 5;
  options.initiators = "roundrobin";
  const ThroughputResult res =
      run_throughput(make_counter(CounterKind::kTree, 81), options);
  EXPECT_TRUE(res.values_ok);
  EXPECT_EQ(res.ops, 2048u);
}

// A shard runs its events in generations, and its ready queue is only
// as wide as the widest generation. In a closed loop that width is set
// by the in-flight window, so the high-water mark must stay a small
// multiple of the window and must not grow with the op count.
TEST(ThreadedRuntime, ReadyQueueHighWaterIsBoundedByTheWindow) {
  constexpr std::size_t kClients = 16;
  // Each in-flight tree inc has a few events queued at once; 8 per
  // client leaves room without admitting O(ops) growth.
  constexpr std::size_t kBound = 8 * kClients;
  for (const std::size_t ops : {50'000u, 100'000u}) {
    RuntimeConfig config;
    config.workers = 1;
    config.seed = 13;
    config.max_ops = ops;
    ThreadedRuntime rt(make_counter(CounterKind::kTree, 81), config);
    std::vector<ProcessorId> initiators(ops);
    for (std::size_t i = 0; i < ops; ++i) {
      initiators[i] = static_cast<ProcessorId>(i % rt.num_processors());
    }
    WorkloadOptions wl;
    wl.concurrency = kClients;
    wl.inflight = 1;
    const WorkloadResult run = run_workload(rt, initiators, wl);
    ASSERT_EQ(run.ops, ops);
    // The same bound at twice the ops: no growth with the run length.
    EXPECT_GE(rt.ready_high_water(), 1u) << ops;
    EXPECT_LE(rt.ready_high_water(), kBound) << ops;
  }
}

// The starvation regression: a one-worker closed loop whose every op is
// issued from the completion callback never runs its shard dry, so the
// mailbox must still be served mid-pass. An op pushed from outside
// while the loop runs has to complete long before the loop runs out.
TEST(ThreadedRuntime, ExternalOpCompletesWhileAClosedLoopRuns) {
  constexpr std::size_t kLoopOps = 50'000;
  constexpr std::size_t kWindow = 16;
  RuntimeConfig config;
  config.workers = 1;
  config.max_ops = kLoopOps + 1;
  ThreadedRuntime rt(make_counter(CounterKind::kTree, 81), config);
  const std::size_t n = rt.num_processors();

  std::atomic<std::size_t> issued{0};
  const auto issue = [&] {
    const std::size_t i = issued.fetch_add(1, std::memory_order_relaxed);
    if (i < kLoopOps) rt.begin_inc(static_cast<ProcessorId>(i % n));
  };
  // Worker-only state, read by the driver after quiescence.
  std::size_t completions = 0;
  std::size_t loop_issued_at_external = kLoopOps;
  // Handshake that pins the external push inside the run: the worker
  // holds still in the 64th completion until the driver has pushed.
  std::atomic<bool> at_gate{false};
  std::atomic<bool> external_pushed{false};
  std::atomic<OpId> external{kNoOp};
  rt.set_completion([&](OpId op, Value /*value*/) {
    if (++completions == 64) {
      at_gate.store(true, std::memory_order_release);
      while (!external_pushed.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    if (op == external.load(std::memory_order_relaxed)) {
      loop_issued_at_external =
          std::min(issued.load(std::memory_order_relaxed), kLoopOps);
      return;
    }
    issue();
  });
  for (std::size_t c = 0; c < kWindow; ++c) issue();
  while (!at_gate.load(std::memory_order_acquire)) std::this_thread::yield();
  external.store(rt.begin_inc(0), std::memory_order_relaxed);
  external_pushed.store(true, std::memory_order_release);
  rt.wait_quiescent();

  EXPECT_EQ(rt.ops_completed(), kLoopOps + 1);
  // The worker was mid-pass when the op arrived; it must be admitted at
  // the next generation boundary, within a few windows of loop ops.
  EXPECT_LT(loop_issued_at_external, kLoopOps / 10)
      << "external op waited for the closed loop to run out";
}

// W=1 with every op after the first issued from the completion
// callback: nothing races the worker, so two runs must agree on every
// op's value and every processor's load. This pins that generation
// order is the single FIFO's order on the path where order is
// observable.
TEST(ThreadedRuntime, SelfDrivenSingleWorkerRunIsDeterministic) {
  constexpr std::size_t kOps = 4096;
  constexpr std::size_t kWindow = 16;
  struct Outcome {
    std::vector<Value> values;
    std::vector<std::int64_t> loads;
    std::int64_t total_messages{0};
    std::int64_t max_load{0};
  };
  const auto run_once = [&] {
    RuntimeConfig config;
    config.workers = 1;
    config.seed = 21;
    config.max_ops = kOps;
    ThreadedRuntime rt(make_counter(CounterKind::kTree, 81), config);
    const std::size_t n = rt.num_processors();
    std::size_t issued = 1;  // worker-only after the seed op
    rt.set_completion([&](OpId op, Value /*value*/) {
      // The seed's completion opens the window; each later one refills
      // the slot it frees.
      for (std::size_t k = op == 0 ? kWindow : 1; k > 0 && issued < kOps;
           --k, ++issued) {
        rt.begin_inc(static_cast<ProcessorId>((issued * 7) % n));
      }
    });
    rt.begin_inc(0);
    rt.wait_quiescent();
    Outcome out;
    for (std::size_t op = 0; op < kOps; ++op) {
      const std::optional<Value> v = rt.result(static_cast<OpId>(op));
      EXPECT_TRUE(v.has_value()) << op;
      out.values.push_back(v.value_or(-1));
    }
    const Metrics m = rt.merged_metrics();
    for (std::size_t p = 0; p < n; ++p) {
      out.loads.push_back(m.load(static_cast<ProcessorId>(p)));
    }
    out.total_messages = m.total_messages();
    out.max_load = m.max_load();
    return out;
  };
  const Outcome first = run_once();
  const Outcome second = run_once();
  ASSERT_EQ(first.values.size(), kOps);
  EXPECT_EQ(first.values, second.values);
  EXPECT_EQ(first.loads, second.loads);
  // Deterministic, so exact: the tree with its overlapping incs
  // combined at each role's dry point (the end of its shard's busy
  // period).
  EXPECT_EQ(first.total_messages, 35213);
  EXPECT_EQ(first.max_load, 1081);
  std::vector<Value> sorted = first.values;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < kOps; ++i) {
    ASSERT_EQ(sorted[i], static_cast<Value>(i));
  }
}

TEST(ThreadedRuntime, ShardSafetyDefaultsMatchTheAudit) {
  EXPECT_TRUE(make_counter(CounterKind::kCentral, 8)->shard_safe());
  EXPECT_TRUE(make_counter(CounterKind::kTree, 8)->shard_safe());
  EXPECT_TRUE(make_counter(CounterKind::kStaticTree, 8)->shard_safe());
  EXPECT_TRUE(make_counter(CounterKind::kCombining, 8)->shard_safe());
  EXPECT_TRUE(make_counter(CounterKind::kDiffracting, 8)->shard_safe());
  // Not audited for sharding: default-declines.
  EXPECT_FALSE(make_counter(CounterKind::kQuorumMajority, 8)->shard_safe());
  EXPECT_FALSE(make_counter(CounterKind::kCountingNetwork, 8)->shard_safe());
  // The healing tree relies on transport suspicion the runtime lacks.
  TreeServiceParams healing;
  healing.k = 2;
  healing.self_healing = true;
  EXPECT_FALSE(TreeCounter(healing).shard_safe());
}

TEST(ThreadedRuntimeDeathTest, RejectsShardUnsafeProtocolAtMultipleWorkers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RuntimeConfig config;
  config.workers = 2;
  EXPECT_DEATH(
      ThreadedRuntime(make_counter(CounterKind::kQuorumMajority, 8), config),
      "shard_safe");
  // One worker is always allowed.
  RuntimeConfig single;
  single.workers = 1;
  ThreadedRuntime rt(make_counter(CounterKind::kQuorumMajority, 8), single);
  EXPECT_EQ(rt.workers(), 1u);
}

/// Defers at the other processor of two: a contract violation once the
/// two live on different shards.
struct DeferElsewhere final : CounterProtocol {
  std::size_t num_processors() const override { return 2; }
  void start_inc(Context& ctx, ProcessorId origin, OpId /*op*/) override {
    ctx.send_local(1 - origin, 1, {}, 0);
  }
  void on_message(Context& /*ctx*/, const Message& /*msg*/) override {}
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<DeferElsewhere>(*this);
  }
  std::string name() const override { return "defer-elsewhere"; }
  bool shard_safe() const override { return true; }
};

TEST(ThreadedRuntimeDeathTest, DeferAtAnotherShardsProcessorAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RuntimeConfig config;
  config.workers = 2;
  config.active_shards = 2;
  EXPECT_DEATH(
      {
        ThreadedRuntime rt(std::make_unique<DeferElsewhere>(), config);
        rt.begin_inc(0);
        rt.wait_quiescent();
      },
      "another shard owns");
}

TEST(ThreadedRuntimeDeathTest, InjectOnANonHostedRuntimeAborts) {
  // Injection appends to the shard's ready queue without a lock, which
  // only a hosted runtime's owner thread may do; an in-process runtime's
  // workers own their queues.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RuntimeConfig config;
        config.workers = 1;
        config.max_ops = 8;
        ThreadedRuntime rt(std::make_unique<InjectLog>(), config);
        auto evs = starts({0});
        rt.inject(evs);
      },
      "only for hosted runtimes");
}

TEST(ThreadedRuntimeDeathTest, HostingRequiresOneWorkerAndAValidNodeId) {
  // A hosted runtime is one shard its owner thread drives: no worker
  // parks on a wall-clock deadline, and the node must exist.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RuntimeConfig workers;
  workers.workers = 2;
  workers.hosting = NodeHosting{2, 0, 200};
  EXPECT_DEATH(ThreadedRuntime(std::make_unique<CentralCounter>(4), workers),
               "hosting requires workers == 1");
  workers.workers = 0;  // auto may resolve to 1, but hosting must say so
  EXPECT_DEATH(ThreadedRuntime(std::make_unique<CentralCounter>(4), workers),
               "hosting requires workers == 1");
  RuntimeConfig node;
  node.workers = 1;
  node.hosting = NodeHosting{2, 2, 200};
  EXPECT_DEATH(ThreadedRuntime(std::make_unique<CentralCounter>(4), node),
               "hosting requires node_id < nodes");
  node.hosting->node_id = 1;
  ThreadedRuntime rt(std::make_unique<CentralCounter>(4), node);
  EXPECT_EQ(rt.workers(), 1u);
  EXPECT_EQ(rt.active_shards(), 1u);
  EXPECT_TRUE(rt.owns(3));
  EXPECT_FALSE(rt.owns(2));
}

}  // namespace
}  // namespace dcnt
