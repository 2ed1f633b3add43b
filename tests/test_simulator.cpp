#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "baselines/central.hpp"

namespace dcnt {
namespace {

// Minimal counter for exercising the simulator: the value lives at
// processor 0; an inc hops through `hops` intermediaries first.
class HopCounter final : public CounterProtocol {
 public:
  HopCounter(std::int64_t n, int hops) : n_(n), hops_(hops) {}

  static constexpr std::int32_t kTagHop = 1;    // [origin, remaining]
  static constexpr std::int32_t kTagValue = 2;  // [value]
  static constexpr std::int32_t kTagLocal = 3;  // local wake-up

  std::size_t num_processors() const override {
    return static_cast<std::size_t>(n_);
  }

  void start_inc(Context& ctx, ProcessorId origin, OpId op) override {
    if (hops_ == 0 && origin == 0) {
      ctx.complete(op, value_++);
      return;
    }
    Message m;
    m.src = origin;
    m.dst = hops_ > 0 ? next(origin) : 0;
    m.tag = kTagHop;
    m.args = {origin, hops_};
    ctx.send(std::move(m));
  }

  void on_message(Context& ctx, const Message& msg) override {
    if (msg.tag == kTagLocal) {
      ++local_wakeups_;
      return;
    }
    if (msg.tag == kTagValue) {
      ctx.complete(msg.op, msg.args.at(0));
      return;
    }
    const auto origin = static_cast<ProcessorId>(msg.args.at(0));
    const auto remaining = msg.args.at(1);
    if (remaining > 1) {
      Message m;
      m.src = msg.dst;
      m.dst = next(msg.dst);
      m.tag = kTagHop;
      m.args = {origin, remaining - 1};
      ctx.send(std::move(m));
      return;
    }
    // We are the final hop — serve from processor 0's value if we are 0,
    // else forward straight to 0.
    if (msg.dst != 0) {
      Message m;
      m.src = msg.dst;
      m.dst = 0;
      m.tag = kTagHop;
      m.args = {origin, 1};
      ctx.send(std::move(m));
      return;
    }
    Message reply;
    reply.src = 0;
    reply.dst = origin;
    reply.tag = kTagValue;
    reply.args = {value_++};
    ctx.send(std::move(reply));
  }

  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<HopCounter>(*this);
  }
  std::string name() const override { return "hop"; }

  Value value() const { return value_; }
  int local_wakeups() const { return local_wakeups_; }

 private:
  ProcessorId next(ProcessorId p) const {
    return static_cast<ProcessorId>((p + 1) % n_);
  }

  std::int64_t n_;
  int hops_;
  Value value_{0};
  int local_wakeups_{0};
};

Simulator make_sim(std::int64_t n, int hops, SimConfig cfg) {
  return Simulator(std::make_unique<HopCounter>(n, hops), cfg);
}

// Two processors; op i sends script[i] messages from its origin to the
// other processor and completes when the last one lands (at once when
// script[i] is 0).
class ScriptedSends final : public CounterProtocol {
 public:
  explicit ScriptedSends(std::vector<int> script)
      : script_(std::move(script)) {}

  std::size_t num_processors() const override { return 2; }

  void start_inc(Context& ctx, ProcessorId origin, OpId op) override {
    const int sends = script_.at(static_cast<std::size_t>(op));
    if (sends == 0) ctx.complete(op, value_++);
    for (int i = 0; i < sends; ++i) {
      Message m;
      m.src = origin;
      m.dst = 1 - origin;
      m.tag = 1;
      ctx.send(std::move(m));
    }
  }

  void on_message(Context& ctx, const Message& msg) override {
    if (++landed_[msg.op] == script_.at(static_cast<std::size_t>(msg.op))) {
      ctx.complete(msg.op, value_++);
    }
  }

  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<ScriptedSends>(*this);
  }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<int> script_;
  std::map<OpId, int> landed_;
  Value value_{0};
};

// Processor 0 sends A and B to processor 1 at once. A's handler defers
// D at processor 1 (a delay-0 send_local, when asked to) and sends C
// back; C completes the op. The log shows where the deferred message
// runs, read off the simulator's clock (protocols have none).
class DeferProbe final : public CounterProtocol {
 public:
  explicit DeferProbe(bool use_defer) : use_defer_(use_defer) {}

  /// The simulator running this probe, whose clock the log reads.
  const Simulator* sim{nullptr};

  static constexpr std::int32_t kTagA = 1;
  static constexpr std::int32_t kTagB = 2;
  static constexpr std::int32_t kTagC = 3;
  static constexpr std::int32_t kTagD = 4;  // deferred [7]

  struct Entry {
    std::int32_t tag;
    SimTime at;
    bool operator==(const Entry&) const = default;
  };

  std::size_t num_processors() const override { return 2; }

  void start_inc(Context& ctx, ProcessorId origin, OpId /*op*/) override {
    for (const std::int32_t tag : {kTagA, kTagB}) {
      Message m;
      m.src = origin;
      m.dst = 1 - origin;
      m.tag = tag;
      ctx.send(std::move(m));
    }
  }

  void on_message(Context& ctx, const Message& msg) override {
    log_.push_back({msg.tag, sim->now()});
    if (msg.tag == kTagA) {
      if (use_defer_) ctx.send_local(msg.dst, kTagD, {7}, 0);
      Message m;
      m.src = msg.dst;
      m.dst = msg.src;
      m.tag = kTagC;
      ctx.send(std::move(m));
    } else if (msg.tag == kTagC) {
      ctx.complete(msg.op, 0);
    } else if (msg.tag == kTagD) {
      EXPECT_TRUE(msg.local);
      EXPECT_EQ(msg.dst, 1);
      EXPECT_EQ(msg.args.at(0), 7);
    }
  }

  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<DeferProbe>(*this);
  }
  std::string name() const override { return "defer-probe"; }

  const std::vector<Entry>& log() const { return log_; }

 private:
  bool use_defer_;
  std::vector<Entry> log_;
};

const DeferProbe& probe_of(const Simulator& sim) {
  return dynamic_cast<const DeferProbe&>(sim.counter());
}

void attach_clock(Simulator& sim) {
  dynamic_cast<DeferProbe&>(sim.mutable_counter()).sim = &sim;
}

TEST(Simulator, DeferredMessageRunsAfterEverythingDueNow) {
  // Fixed delay 1: A and B are both due at tick 1, C at tick 2. D is
  // deferred while A runs, so it runs after B (already due at tick 1)
  // and before C (due later), at tick 1 itself.
  SimConfig cfg;
  cfg.delay = DelayModel::fixed_delay(1);
  Simulator sim(std::make_unique<DeferProbe>(true), cfg);
  attach_clock(sim);
  const OpId op = sim.begin_inc(0);
  sim.run_until_quiescent();
  ASSERT_TRUE(sim.result(op).has_value());
  using E = DeferProbe::Entry;
  EXPECT_EQ(probe_of(sim).log(),
            (std::vector<E>{{DeferProbe::kTagA, 1},
                            {DeferProbe::kTagB, 1},
                            {DeferProbe::kTagD, 1},
                            {DeferProbe::kTagC, 2}}));
  // D is a delivery but not traffic: three messages, all charged to op.
  EXPECT_EQ(sim.deliveries(), 4);
  EXPECT_EQ(sim.metrics().total_messages(), 3);
  EXPECT_EQ(sim.per_op_messages(), std::vector<std::int64_t>{3});
}

TEST(Simulator, DeferredMessagesDrawNoDelay) {
  // Random delays: a run with the deferred message must see every other
  // delivery at exactly the tick the run without it does, so a delay-0
  // send_local consumed no draw. D itself runs at A's tick, and nothing
  // due at that tick runs after it.
  for (const std::uint64_t seed : {1u, 9u, 23u}) {
    SimConfig cfg;
    cfg.seed = seed;
    cfg.delay = DelayModel::uniform(1, 20);
    std::vector<DeferProbe::Entry> runs[2];
    for (const bool use_defer : {false, true}) {
      Simulator sim(std::make_unique<DeferProbe>(use_defer), cfg);
      attach_clock(sim);
      for (int i = 0; i < 4; ++i) sim.begin_inc(0);
      sim.run_until_quiescent();
      EXPECT_EQ(sim.metrics().total_messages(), 12) << seed;
      runs[use_defer ? 1 : 0] = probe_of(sim).log();
    }
    std::vector<DeferProbe::Entry> without_d;
    for (std::size_t i = 0; i < runs[1].size(); ++i) {
      const DeferProbe::Entry e = runs[1][i];
      if (e.tag != DeferProbe::kTagD) {
        without_d.push_back(e);
        continue;
      }
      // The A it belongs to ran at the same tick; later entries are
      // strictly later.
      for (std::size_t j = i + 1; j < runs[1].size(); ++j) {
        if (runs[1][j].tag != DeferProbe::kTagD) {
          EXPECT_GT(runs[1][j].at, e.at) << seed;
        }
      }
    }
    EXPECT_EQ(without_d, runs[0]) << seed;
  }
}

TEST(Simulator, CompletesSequentialIncs) {
  Simulator sim = make_sim(4, 2, {});
  for (int i = 0; i < 8; ++i) {
    const OpId op = sim.begin_inc(static_cast<ProcessorId>(i % 4));
    sim.run_until_quiescent();
    ASSERT_TRUE(sim.result(op).has_value());
    EXPECT_EQ(*sim.result(op), i);
  }
  EXPECT_EQ(sim.ops_completed(), 8u);
}

TEST(Simulator, ImmediateLocalCompletion) {
  Simulator sim = make_sim(4, 0, {});
  const OpId op = sim.begin_inc(0);
  EXPECT_TRUE(sim.result(op).has_value());
  EXPECT_EQ(sim.metrics().total_messages(), 0);
}

TEST(Simulator, MetricsCountEachMessageOnce) {
  Simulator sim = make_sim(4, 1, {});
  const OpId op = sim.begin_inc(2);  // 2 -> 3 -> 0 -> 2: three messages
  sim.run_until_quiescent();
  ASSERT_TRUE(sim.result(op).has_value());
  EXPECT_EQ(sim.metrics().total_messages(), 3);
  std::int64_t loads = 0;
  for (ProcessorId p = 0; p < 4; ++p) loads += sim.metrics().load(p);
  EXPECT_EQ(loads, 6);  // each message: one send + one receive
}

TEST(Simulator, PerOpAttribution) {
  Simulator sim(std::make_unique<ScriptedSends>(std::vector<int>{2, 0, 1}),
                {});
  sim.begin_inc(0);
  sim.begin_inc(0);
  sim.begin_inc(1);  // op ids may skip (op 1 sent nothing)
  sim.run_until_quiescent();
  ASSERT_EQ(sim.per_op_messages().size(), 3u);
  EXPECT_EQ(sim.per_op_messages()[0], 2);
  EXPECT_EQ(sim.per_op_messages()[1], 0);
  EXPECT_EQ(sim.per_op_messages()[2], 1);
  EXPECT_EQ(sim.metrics().total_messages(), 3);
}

TEST(Simulator, SendsInheritTheirHandlersOp) {
  // A send that names no op is charged to the op whose handler sent it,
  // in start_inc and on_message alike: every hop of 2 -> 3 -> 0 -> 2
  // belongs to op 0, so no simulator traffic goes unattributed.
  Simulator sim = make_sim(4, 1, {});
  sim.begin_inc(2);
  sim.run_until_quiescent();
  EXPECT_EQ(sim.per_op_messages(), std::vector<std::int64_t>{3});
  EXPECT_EQ(sim.metrics().total_messages(), 3);
}

TEST(Simulator, ResetMetricsClearsPerOpCounts) {
  Simulator sim = make_sim(4, 1, {});
  sim.begin_inc(2);
  sim.run_until_quiescent();
  sim.reset_metrics();
  EXPECT_EQ(sim.metrics().total_messages(), 0);
  EXPECT_EQ(sim.metrics().load(2), 0);
  EXPECT_TRUE(sim.per_op_messages().empty());
}

TEST(Simulator, DeterministicForSameSeed) {
  SimConfig cfg;
  cfg.seed = 77;
  cfg.delay = DelayModel::uniform(1, 20);
  Simulator a = make_sim(8, 3, cfg);
  Simulator b = make_sim(8, 3, cfg);
  for (int i = 0; i < 8; ++i) {
    a.begin_inc(static_cast<ProcessorId>(i));
    b.begin_inc(static_cast<ProcessorId>(i));
    a.run_until_quiescent();
    b.run_until_quiescent();
  }
  EXPECT_EQ(a.deliveries(), b.deliveries());
  for (ProcessorId p = 0; p < 8; ++p) {
    EXPECT_EQ(a.metrics().load(p), b.metrics().load(p));
  }
}

TEST(Simulator, CloneEvolvesIndependently) {
  SimConfig cfg;
  cfg.delay = DelayModel::uniform(1, 5);
  Simulator sim = make_sim(4, 2, cfg);
  sim.begin_inc(1);
  sim.run_until_quiescent();

  Simulator clone(sim);
  const OpId op_clone = clone.begin_inc(2);
  clone.run_until_quiescent();
  EXPECT_EQ(*clone.result(op_clone), 1);
  // Original is untouched by the clone's operation.
  EXPECT_EQ(sim.ops_started(), 1u);
  EXPECT_EQ(sim.metrics().total_messages(), 4);  // 1->2->3->0->1
  const OpId op_orig = sim.begin_inc(3);
  sim.run_until_quiescent();
  EXPECT_EQ(*sim.result(op_orig), 1);
}

TEST(Simulator, SelfSendsAreDeliveredButNotCounted) {
  // hops such that a message lands on its own sender: n=1 impossible
  // here, so exercise via the local wake-up path instead plus a direct
  // check that src==dst traffic is uncounted.
  class SelfCounter final : public CounterProtocol {
   public:
    std::size_t num_processors() const override { return 2; }
    void start_inc(Context& ctx, ProcessorId origin, OpId op) override {
      op_ = op;
      Message m;
      m.src = origin;
      m.dst = origin;  // self-send
      m.tag = 1;
      ctx.send(std::move(m));
    }
    void on_message(Context& ctx, const Message& msg) override {
      ctx.complete(msg.op, 0);
      (void)msg;
    }
    std::unique_ptr<CounterProtocol> clone_counter() const override {
      return std::make_unique<SelfCounter>(*this);
    }
    std::string name() const override { return "self"; }
    OpId op_{kNoOp};
  };
  Simulator sim(std::make_unique<SelfCounter>(), {});
  const OpId op = sim.begin_inc(1);
  sim.run_until_quiescent();
  EXPECT_TRUE(sim.result(op).has_value());
  EXPECT_EQ(sim.metrics().total_messages(), 0);
  EXPECT_EQ(sim.metrics().load(1), 0);
}

TEST(Simulator, FifoChannelsPreserveOrder) {
  // With wildly random delays and fifo_channels on, two messages on the
  // same channel must arrive in send order. The HopCounter serves values
  // in arrival order at processor 0, so order inversions would surface
  // as wrong values; more direct: send many ops from the same origin.
  SimConfig cfg;
  cfg.seed = 5;
  cfg.delay = DelayModel::uniform(1, 100);
  cfg.fifo_channels = true;
  Simulator sim = make_sim(2, 1, cfg);
  // Issue several incs concurrently from processor 1; with FIFO
  // channels their hop messages stay ordered, so values return in
  // initiation order.
  std::vector<OpId> ops;
  for (int i = 0; i < 6; ++i) ops.push_back(sim.begin_inc(1));
  sim.run_until_quiescent();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(sim.result(ops[i]).has_value());
    EXPECT_EQ(*sim.result(ops[i]), static_cast<Value>(i));
  }
}

TEST(Simulator, TraceRecordsCausalChain) {
  SimConfig cfg;
  cfg.enable_trace = true;
  Simulator sim = make_sim(4, 2, cfg);
  const OpId op = sim.begin_inc(1);
  sim.run_until_quiescent();
  ASSERT_TRUE(sim.result(op).has_value());
  const auto& records = sim.trace().records();
  ASSERT_EQ(records.size(), 4u);  // 1->2->3->0->1
  EXPECT_EQ(records[0].parent, kNoRecord);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].parent, records[i - 1].id);
    EXPECT_EQ(records[i].op, op);
    EXPECT_GE(records[i].deliver_time, records[i].send_time);
  }
}

TEST(Simulator, TimeAdvancesMonotonically) {
  SimConfig cfg;
  cfg.delay = DelayModel::uniform(1, 9);
  Simulator sim = make_sim(4, 3, cfg);
  sim.begin_inc(0);
  SimTime last = 0;
  while (sim.step()) {
    EXPECT_GE(sim.now(), last);
    last = sim.now();
  }
}

TEST(SimulatorDeath, CompletingTwiceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  class DoubleComplete final : public CounterProtocol {
   public:
    std::size_t num_processors() const override { return 2; }
    void start_inc(Context& ctx, ProcessorId, OpId op) override {
      ctx.complete(op, 0);
      ctx.complete(op, 1);
    }
    void on_message(Context&, const Message&) override {}
    std::unique_ptr<CounterProtocol> clone_counter() const override {
      return std::make_unique<DoubleComplete>(*this);
    }
    std::string name() const override { return "dc"; }
  };
  EXPECT_DEATH(
      {
        Simulator sim(std::make_unique<DoubleComplete>(), {});
        sim.begin_inc(0);
      },
      "completed twice");
}

TEST(SimulatorDeath, StepSpecificUnderFifoAborts) {
  // FIFO channels constrain realizable delivery orders; delivering by
  // send index ignores those floors, so the combination must abort
  // instead of silently exploring forbidden schedules.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimConfig cfg;
        cfg.fifo_channels = true;
        Simulator sim(std::make_unique<HopCounter>(4, 2), cfg);
        sim.begin_inc(1);
        sim.step_specific(0);
      },
      "not meaningful with fifo_channels");
}

TEST(Simulator, RestoreReproducesSnapshotExactly) {
  SimConfig cfg;
  cfg.seed = 11;
  cfg.delay = DelayModel::uniform(1, 8);
  cfg.enable_trace = true;
  Simulator sim(std::make_unique<HopCounter>(6, 2), cfg);
  sim.begin_inc(1);
  sim.run_until_quiescent();
  const Simulator snap = sim.snapshot();

  // Diverge a scratch simulator, then restore the snapshot into it:
  // continuing from the scratch must be indistinguishable from
  // continuing from a fresh deep clone.
  Simulator scratch(sim);
  scratch.begin_inc(3);
  scratch.run_until_quiescent();
  scratch.restore(snap);

  Simulator fresh(snap);
  const OpId a = scratch.begin_inc(2);
  scratch.run_until_quiescent();
  const OpId b = fresh.begin_inc(2);
  fresh.run_until_quiescent();
  ASSERT_EQ(a, b);
  EXPECT_EQ(scratch.result(a), fresh.result(b));
  EXPECT_EQ(scratch.op_responded_at(a), fresh.op_responded_at(b));
  EXPECT_EQ(scratch.metrics().total_messages(),
            fresh.metrics().total_messages());
  EXPECT_EQ(scratch.metrics().max_load(), fresh.metrics().max_load());
  EXPECT_EQ(scratch.per_op_messages(), fresh.per_op_messages());
  EXPECT_EQ(scratch.deliveries(), fresh.deliveries());
  EXPECT_EQ(scratch.trace().records().size(), fresh.trace().records().size());
}

TEST(Simulator, RestoreAcrossProtocolTypesFallsBackToClone) {
  // Scratch simulators are recycled across heterogeneous sweeps; a
  // type mismatch must degrade to a full clone, not corrupt state.
  Simulator hop(std::make_unique<HopCounter>(4, 0), {});
  Simulator central(std::make_unique<CentralCounter>(4, 0), {});
  central.begin_inc(2);
  central.run_until_quiescent();
  hop.restore(central);
  const OpId a = hop.begin_inc(3);
  hop.run_until_quiescent();
  Simulator clone(central);
  const OpId b = clone.begin_inc(3);
  clone.run_until_quiescent();
  EXPECT_EQ(hop.result(a), clone.result(b));
  EXPECT_EQ(hop.metrics().total_messages(), clone.metrics().total_messages());
}

TEST(Simulator, ReseedClearsFifoChannelState) {
  // Regression: reseeding a clone for a fresh schedule sample must also
  // forget per-channel FIFO delivery floors, so each sample is a pure
  // function of (state, seed) rather than coupled to the previous
  // sample's draws through channel_last_.
  SimConfig cfg;
  cfg.seed = 3;
  cfg.fifo_channels = true;
  cfg.delay = DelayModel::uniform(1, 9);
  Simulator sim(std::make_unique<HopCounter>(4, 1), cfg);
  sim.begin_inc(2);
  sim.run_until_quiescent();
  EXPECT_GT(sim.tracked_fifo_channels(), 0u);

  Simulator clone(sim);
  EXPECT_EQ(clone.tracked_fifo_channels(), sim.tracked_fifo_channels());
  clone.reseed(77);
  EXPECT_EQ(clone.tracked_fifo_channels(), 0u);

  // Two same-seed samples from the same state agree exactly.
  Simulator other(sim);
  other.reseed(77);
  const OpId x = clone.begin_inc(1);
  clone.run_until_quiescent();
  const OpId y = other.begin_inc(1);
  other.run_until_quiescent();
  EXPECT_EQ(clone.op_responded_at(x), other.op_responded_at(y));
  EXPECT_EQ(clone.metrics().total_messages(),
            other.metrics().total_messages());
}

}  // namespace
}  // namespace dcnt
