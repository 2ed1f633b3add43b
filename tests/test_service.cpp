// Service-fabric tests: MultiCounter correctness over simulator and
// threaded runtime, deterministic key->offset routing, and the LRU cold
// tier (evict to durable value, rehydrate on next touch) — including
// the determinism contract: same (seed, schedule) implies the identical
// evict/rehydrate sequence and final per-key values whether the runtime
// uses 1 worker or 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "baselines/central.hpp"
#include "harness/factory.hpp"
#include "harness/schedule.hpp"
#include "runtime/threaded_runtime.hpp"
#include "service/multi_counter.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

std::unique_ptr<service::MultiCounter> make_fabric(std::int64_t n,
                                                   std::uint64_t seed,
                                                   std::size_t capacity = 0) {
  service::MultiCounterOptions opt;
  opt.seed = seed;
  opt.capacity = capacity;
  return std::make_unique<service::MultiCounter>(
      std::make_unique<CentralCounter>(n), opt);
}

TEST(Service, OffsetsAreDeterministicInSeedAndKey) {
  const auto a = make_fabric(16, 7);
  const auto b = make_fabric(16, 7);
  const auto c = make_fabric(16, 8);
  bool any_differs_across_seeds = false;
  std::set<ProcessorId> distinct;
  for (KeyId key = 0; key < 64; ++key) {
    const ProcessorId off = a->offset_of(key);
    EXPECT_GE(off, 0);
    EXPECT_LT(off, 16);
    // Same (seed, key) on another instance (read: another node) must
    // agree, or inner argument words get mistranslated across nodes.
    EXPECT_EQ(off, b->offset_of(key));
    if (off != c->offset_of(key)) any_differs_across_seeds = true;
    distinct.insert(off);
  }
  EXPECT_TRUE(any_differs_across_seeds);
  // 64 keys over 16 slots: the mix must actually spread them.
  EXPECT_GT(distinct.size(), 8u);
}

TEST(Service, SimulatorSequentialPerKeyCounts) {
  Simulator sim(make_fabric(16, 1), SimConfig{});
  // Interleave three keys; each must count independently from 0.
  const std::vector<KeyId> schedule = {5, 9, 5, 5, 9, 123456, 5};
  std::vector<OpId> ops;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    ops.push_back(sim.begin_op(static_cast<ProcessorId>(i % 16),
                               {schedule[i]}));
    sim.run_until_quiescent();
  }
  const std::vector<Value> want = {0, 0, 1, 2, 1, 0, 3};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(sim.result(ops[i]).has_value());
    EXPECT_EQ(*sim.result(ops[i]), want[i]) << "op " << i;
  }
  sim.counter().check_quiescent(schedule.size());
}

TEST(Service, BareIncCountsOnKeyZero) {
  Simulator sim(make_fabric(8, 1), SimConfig{});
  const OpId a = sim.begin_inc(1);
  sim.run_until_quiescent();
  const OpId b = sim.begin_op(2, {0});  // explicit key 0: same counter
  sim.run_until_quiescent();
  EXPECT_EQ(*sim.result(a), 0);
  EXPECT_EQ(*sim.result(b), 1);
}

// The fabric's core claim, measured: a key's instance is the unmodified
// inner protocol rotated by offset(key), so its per-key loads must be
// exactly a single-counter run's loads with every processor shifted by
// the offset. Checked for a counter that sends no local message
// (central), one whose roles flush at their dry point (tree: a delay-0
// send_local) and one whose combining window is a timer (combining).
// The last two run KeyCtx's local path: the key rides as the first
// argument word of every local message and the fabric strips it on
// delivery.
class ServiceByKind : public ::testing::TestWithParam<CounterKind> {};

TEST_P(ServiceByKind, PerKeyLoadsMatchRotatedSingleCounter) {
  const CounterKind kind = GetParam();
  const std::uint64_t seed = 11;
  const std::vector<KeyId> keys = {3, 70000, 9};
  const std::size_t ops_per_key = 8;

  service::MultiCounterOptions opt;
  opt.seed = seed;
  Simulator fabric_sim(std::make_unique<service::MultiCounter>(
                           make_counter(kind, 16), opt),
                       SimConfig{});
  const auto n = static_cast<ProcessorId>(fabric_sim.num_processors());
  const auto fabric_view = [&fabric_sim] {
    return dynamic_cast<const service::MultiCounter*>(&fabric_sim.counter());
  };
  std::vector<OpId> ops;
  for (std::size_t i = 0; i < ops_per_key; ++i) {
    for (const KeyId key : keys) {
      ops.push_back(
          fabric_sim.begin_op(static_cast<ProcessorId>((3 * i) % n), {key}));
      fabric_sim.run_until_quiescent();
    }
  }
  // Each key counts 0..ops_per_key-1 in its own order.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(fabric_sim.result(ops[i]),
              static_cast<Value>(i / keys.size()))
        << "op " << i;
  }
  fabric_sim.counter().check_quiescent(ops.size());

  for (const KeyId key : keys) {
    const ProcessorId offset = fabric_view()->offset_of(key);
    // Replay this key's schedule on the plain counter with the origins
    // mapped to inner coordinates.
    Simulator solo(make_counter(kind, 16), SimConfig{});
    for (std::size_t i = 0; i < ops_per_key; ++i) {
      const auto fabric_origin = static_cast<ProcessorId>((3 * i) % n);
      solo.begin_inc(static_cast<ProcessorId>((fabric_origin - offset + n) % n));
      solo.run_until_quiescent();
    }
    EXPECT_GT(solo.metrics().total_messages(), 0) << "key " << key;
    EXPECT_EQ(fabric_sim.metrics().key_max_load(key), solo.metrics().max_load())
        << "key " << key;
    EXPECT_EQ(fabric_sim.metrics().key_total_messages(key),
              solo.metrics().total_messages())
        << "key " << key;
    // And the per-key bottleneck sits at the rotated holder.
    for (ProcessorId p = 0; p < n; ++p) {
      const auto& slices = fabric_sim.metrics().key_loads().at(key);
      const auto it = slices.find(p);
      const std::int64_t fabric_load =
          it == slices.end() ? 0 : it->second.total();
      EXPECT_EQ(fabric_load,
                solo.metrics().load(static_cast<ProcessorId>((p - offset + n) % n)))
          << "key " << key << " fabric processor " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Counters, ServiceByKind,
    ::testing::Values(CounterKind::kCentral, CounterKind::kTree,
                      CounterKind::kCombining),
    [](const ::testing::TestParamInfo<CounterKind>& info) {
      return to_string(info.param);
    });

TEST(Service, LruEvictsToDurableValueAndRehydrates) {
  Simulator sim(make_fabric(8, 1, /*capacity=*/2), SimConfig{});
  const auto fabric = [&sim] {
    return dynamic_cast<const service::MultiCounter*>(&sim.counter());
  };
  const auto touch = [&sim](KeyId key) {
    const OpId op = sim.begin_op(static_cast<ProcessorId>(key % 8), {key});
    sim.run_until_quiescent();
    return *sim.result(op);
  };

  EXPECT_EQ(touch(1), 0);  // 1 live
  EXPECT_EQ(touch(1), 1);
  EXPECT_EQ(touch(2), 0);  // 1, 2 live
  EXPECT_EQ(touch(3), 0);  // capacity pressure: evict LRU key 1
  // Key 1 rehydrates from its durable value — counting resumes at 2,
  // and key 2 (now LRU) is evicted to make room.
  EXPECT_EQ(touch(1), 2);

  using Log = service::KeyDirectory::LogRecord;
  const std::vector<Log> want = {
      {Log::Kind::kEvict, 1},
      {Log::Kind::kEvict, 2},
      {Log::Kind::kRehydrate, 1},
  };
  EXPECT_EQ(fabric()->lru_log(), want);

  const auto stats = fabric()->lru_stats();
  EXPECT_EQ(stats.evicts, 2);
  EXPECT_EQ(stats.rehydrates, 1);
  EXPECT_EQ(stats.misses, 4);  // 1, 2, 3 cold + 1 again after eviction
  // Hits count warm *dispatches* (every start and message delivery
  // passes through the directory), not ops: this sequential central
  // schedule touches instances 19 times, 4 of them cold.
  EXPECT_EQ(stats.hits, 15);

  // Durable + live values together reflect every completion; the
  // fabric's own audit cross-checks the same.
  const std::vector<std::pair<KeyId, Value>> values = {{1, 3}, {2, 1}, {3, 1}};
  EXPECT_EQ(fabric()->key_values(), values);
  sim.counter().check_quiescent(5);
}

// Determinism across worker counts: driven sequentially (quiesce
// between ops) with the same (seed, schedule), the directory must make
// the identical eviction decisions and land the identical final values
// whether the threaded runtime runs 1 shard or 4. active_shards is
// pinned so 4 means 4 even on a small host.
TEST(Service, LruLogDeterministicAcrossWorkerCounts) {
  const std::int64_t n = 16;
  const std::size_t ops = 96;
  const std::uint64_t seed = 13;
  const auto keys = make_keys("zipf", 0.99, /*keys=*/12,
                              static_cast<std::int64_t>(ops), seed);
  const auto initiators = make_initiators("roundrobin", 0.0, n,
                                          static_cast<std::int64_t>(ops), seed);

  struct Run {
    std::vector<service::KeyDirectory::LogRecord> log;
    std::vector<std::pair<KeyId, Value>> values;
    service::KeyDirectoryStats stats;
  };
  const auto drive = [&](std::size_t workers) {
    RuntimeConfig config;
    config.workers = workers;
    config.seed = seed;
    config.max_ops = ops;
    config.active_shards = workers;
    ThreadedRuntime rt(make_fabric(n, seed, /*capacity=*/4), config);
    for (std::size_t i = 0; i < ops; ++i) {
      rt.begin_op(initiators[i], {keys[i]});
      rt.wait_quiescent();
    }
    const auto* fabric =
        dynamic_cast<const service::MultiCounter*>(&rt.protocol());
    Run out;
    out.log = fabric->lru_log();
    out.values = fabric->key_values();
    out.stats = fabric->lru_stats();
    rt.protocol().check_quiescent(ops);
    return out;
  };

  const Run w1 = drive(1);
  const Run w4 = drive(4);
  EXPECT_FALSE(w1.log.empty());  // capacity 4 over 12 keys must evict
  EXPECT_EQ(w1.log, w4.log);
  EXPECT_EQ(w1.values, w4.values);
  EXPECT_EQ(w1.stats.evicts, w4.stats.evicts);
  EXPECT_EQ(w1.stats.rehydrates, w4.stats.rehydrates);
  EXPECT_EQ(w1.stats.misses, w4.stats.misses);
  EXPECT_EQ(w1.stats.hits, w4.stats.hits);

  // And the values are exactly the per-key op counts: key k finished
  // with value ops_k after handing out 0..ops_k-1.
  std::vector<std::int64_t> per_key(12, 0);
  for (const KeyId k : keys) ++per_key[static_cast<std::size_t>(k)];
  for (const auto& [key, value] : w1.values) {
    EXPECT_EQ(value, per_key[static_cast<std::size_t>(key)]) << key;
  }
}

// The fabric refuses concurrent use it cannot support: a capacity
// requires the inner protocol to collapse to a durable value.
TEST(Service, CapacityRequiresEvictableInner) {
  service::MultiCounterOptions opt;
  opt.seed = 1;
  opt.capacity = 2;
  EXPECT_DEATH(service::MultiCounter(make_counter(CounterKind::kTree, 9), opt),
               "evictable");
}

}  // namespace
}  // namespace dcnt
