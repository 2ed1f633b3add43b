// Perf smoke: the benchmark pipelines (bench_throughput's harness and
// bench_net's cluster comparison) at tiny scale, pinning every
// deterministic field to its checked-in baseline value. A refactor of
// the runtime hot paths that silently changed protocol-level message
// counts, broke warmup exclusion, or lost the write-coalescing
// observable fails here in milliseconds instead of in a full benchmark
// re-run. Timing fields are asserted only for sanity (> 0): wall-clock
// numbers are not deterministic and belong in BENCH_*.json, not ctest.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/central.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "service/multi_counter.hpp"
#include "shm/shm_harness.hpp"
#include "traffic/shape.hpp"

namespace dcnt {
namespace {

// The central counter's measured traffic is schedule-independent: every
// remote inc is exactly one request + one reply at the holder, so the
// totals below must match BENCH_throughput.json's central rows exactly,
// at every worker count and with or without warmup.
TEST(PerfSmoke, ThroughputCentralMatchesCheckedInBaseline) {
  for (const std::size_t workers : {1u, 8u}) {
    ThroughputOptions options;
    options.workers = workers;
    options.ops = 256;  // the BENCH_throughput.json config: n=16, 16x
    options.warmup = 32;
    options.concurrency = 16;
    options.seed = 7;
    options.initiators = "roundrobin";
    const ThroughputResult res =
        run_throughput(std::make_unique<CentralCounter>(16), options);
    ASSERT_TRUE(res.values_ok) << "W=" << workers;
    EXPECT_EQ(res.ops, 256u);
    // 15 of every 16 round-robin ops are remote, 2 messages each:
    // 256 / 16 * 15 * 2 = 480 — the checked-in baseline value.
    EXPECT_EQ(res.total_messages, 480) << "W=" << workers;
    EXPECT_EQ(res.max_load, 480) << "W=" << workers;
    EXPECT_EQ(res.bottleneck, 0) << "W=" << workers;
    EXPECT_GT(res.ops_per_sec, 0.0);
  }
}

// The tree's totals vary with delivery interleavings, but stay inside a
// band around the k=3, T=12 baseline; the structural fields are exact.
TEST(PerfSmoke, ThroughputTreeStaysInTheBaselineBand) {
  ThroughputOptions options;
  options.workers = 4;
  options.ops = 648;  // n=81 at 8x, half the benchmark's 16x for speed
  options.warmup = 32;
  options.concurrency = 16;
  options.seed = 7;
  options.initiators = "roundrobin";
  const ThroughputResult res =
      run_throughput(make_counter(CounterKind::kTree, 81), options);
  ASSERT_TRUE(res.values_ok);
  EXPECT_EQ(res.n, 81u);
  // Roughly 13 messages per op in the baseline; allow the interleaving
  // band observed across seeds and worker counts (~±10%).
  EXPECT_GT(res.total_messages, 7'000);
  EXPECT_LT(res.total_messages, 10'500);
  EXPECT_GT(res.max_load, 0);
}

// bench_net's shape at minimum scale: in-process vs TCP cluster on the
// central counter, with warmup and the coalescing observable. The
// protocol-level totals must agree between the runtimes and match the
// closed-form count; the wire must show coalescing (never more kernel
// writes than frames).
TEST(PerfSmoke, NetCentralClusterMatchesInProcessTotals) {
  const std::int64_t n = 8;
  const std::size_t ops = 32;
  const std::size_t warmup = 16;
  // 28 of the 32 measured round-robin ops are remote: 56 messages.
  const std::int64_t expected_total = 56;

  ThroughputOptions topt;
  topt.workers = 2;
  topt.ops = ops;
  topt.warmup = warmup;
  topt.concurrency = 8;
  topt.seed = 7;
  const ThroughputResult inproc =
      run_throughput(std::make_unique<CentralCounter>(n), topt);
  ASSERT_TRUE(inproc.values_ok);
  EXPECT_EQ(inproc.total_messages, expected_total);
  EXPECT_EQ(inproc.max_load, expected_total);

  net::ClusterOptions copt;
  copt.counter = "central";
  copt.min_processors = n;
  copt.nodes = 2;
  copt.ops = ops;
  copt.warmup = warmup;
  copt.concurrency = 8;
  copt.seed = 7;
  const net::ClusterResult cluster = net::run_cluster(copt);
  ASSERT_TRUE(cluster.values_ok);
  EXPECT_EQ(cluster.warmup, warmup);
  EXPECT_EQ(cluster.total_messages, expected_total);
  EXPECT_EQ(cluster.max_load, expected_total);
  // Warmup exclusion on the wire: only the measured ops' remote
  // messages cross node boundaries (n=8 over 2 nodes puts the holder's
  // node at half the processors; 32 measured ops round-robin = 16
  // cross-node requests + 16 replies... of which replies to same-node
  // initiators stay local). The exact split is topology arithmetic;
  // what must hold is that the reset left strictly fewer wire messages
  // than a warmup-inclusive run (48 ops) could produce.
  EXPECT_GT(cluster.wire_msgs_sent, 0);
  EXPECT_LT(cluster.wire_msgs_sent, 2 * static_cast<std::int64_t>(ops));
  // The coalescing observable: every kernel write moves at least one
  // whole frame, so writes never exceed data frames plus the node's
  // control-plane traffic (at most one CompleteBatch per measured op,
  // plus a handful of Stats replies and time jumps during the
  // quiescence barrier).
  EXPECT_GT(cluster.wire_write_syscalls, 0);
  EXPECT_LE(cluster.wire_write_syscalls,
            cluster.wire_msgs_sent + static_cast<std::int64_t>(ops) + 64);
  EXPECT_GT(cluster.wire_bytes_sent, 0);
}

// m_p transport- and pipeline-invariance at the BENCH_net.json scale
// (central, n=16, 4 nodes, 256 measured ops): the TCP plane reports the
// protocol's own count (240 remote incs x 2 = 480), the UDP plane
// doubles it (every protocol message rides a Data envelope answered by
// an Ack, both protocol messages in the paper's currency = 960), and
// pipeline depth changes neither — D only reorders when messages fly,
// never how many. These are the numbers EXPERIMENTS.md quotes; a
// runtime change that shifts them must update both deliberately.
TEST(PerfSmoke, NetCentralMpPinnedAcrossTransportAndPipeline) {
  net::ClusterOptions copt;
  copt.counter = "central";
  copt.min_processors = 16;
  copt.nodes = 4;
  copt.ops = 256;
  copt.warmup = 32;
  copt.concurrency = 16;
  copt.seed = 7;

  const net::ClusterResult tcp = net::run_cluster(copt);
  ASSERT_TRUE(tcp.values_ok);
  EXPECT_EQ(tcp.total_messages, 480);
  EXPECT_EQ(tcp.max_load, 480);
  EXPECT_EQ(tcp.bottleneck, 0);

  copt.inflight = 8;
  const net::ClusterResult tcp_d8 = net::run_cluster(copt);
  ASSERT_TRUE(tcp_d8.values_ok);
  EXPECT_EQ(tcp_d8.total_messages, 480);
  EXPECT_EQ(tcp_d8.max_load, 480);

  copt.inflight = 1;
  copt.udp = true;
  // A clean loopback channel never needs a retransmission, but a
  // too-tight ack timeout can fire spuriously under queueing delay and
  // inflate m_p with retransmitted Data/duplicate Acks; widen it so the
  // 960 pin measures the transport's steady-state cost, not its timer.
  copt.retry.ack_timeout = 128;
  const net::ClusterResult udp = net::run_cluster(copt);
  ASSERT_TRUE(udp.values_ok);
  EXPECT_EQ(udp.retransmissions, 0);
  EXPECT_EQ(udp.total_messages, 960);
  EXPECT_EQ(udp.max_load, 960);
  EXPECT_EQ(udp.bottleneck, 0);
}

// The fabric's headline pin: a key's bottleneck inside the multi-key
// fabric is EXACTLY the single-counter bottleneck at equal ops. keys=1
// routes every op of the BENCH_throughput.json config through the
// fabric, and the hot key's per-key max_p must reproduce the 480 the
// bare central counter pins above — wrapping, rotation and keyed
// metrics add zero and remove zero messages.
TEST(PerfSmoke, KeyedSingleKeyMatchesSingleCounterBaseline) {
  ThroughputOptions options;
  options.workers = 4;
  options.ops = 256;
  options.warmup = 32;
  options.concurrency = 16;
  options.seed = 7;
  options.initiators = "roundrobin";
  options.keys = 1;
  options.key_dist = "roundrobin";
  const ThroughputResult res =
      run_throughput(std::make_unique<CentralCounter>(16), options);
  ASSERT_TRUE(res.values_ok);
  EXPECT_EQ(res.hot_key, 0);
  // 15 of every 16 round-robin ops are remote, 2 messages each — the
  // identical closed form as the single-counter pin.
  EXPECT_EQ(res.hot_key_max_load, 480);
  EXPECT_EQ(res.hot_key_messages, 480);
  EXPECT_EQ(res.total_messages, 480);
  EXPECT_EQ(res.max_load, 480);
  EXPECT_EQ(res.keys_touched, 1u);
  EXPECT_EQ(res.live_instances, 1u);
  EXPECT_EQ(res.lru_evicts, 0);
}

// Multi-key pin with closed-form arithmetic: round-robin keys over
// round-robin initiators gives key k origins {k, k+4, k+8, k+12} (64
// measured ops each), and an op is message-free exactly when its fabric
// origin IS the key's rotated holder. offset(key) is a pure function of
// (seed, key) — query it from a fresh fabric — so every key's expected
// load is computable and the measured totals must match it exactly.
TEST(PerfSmoke, KeyedMultiKeyLoadsMatchClosedForm) {
  const std::int64_t n = 16;
  const std::size_t keys = 4;
  const std::size_t ops = 1024;  // 256 measured ops per key
  ThroughputOptions options;
  options.workers = 4;
  options.ops = ops;
  options.warmup = 32;
  options.concurrency = 16;
  options.seed = 7;
  options.initiators = "roundrobin";
  options.keys = keys;
  options.key_dist = "roundrobin";
  const ThroughputResult res =
      run_throughput(std::make_unique<CentralCounter>(n), options);
  ASSERT_TRUE(res.values_ok);
  EXPECT_EQ(res.keys_touched, keys);

  // Reconstruct the routing with the same (seed, key) mix the run used.
  service::MultiCounterOptions mc;
  mc.seed = options.seed;
  const service::MultiCounter probe(std::make_unique<CentralCounter>(n), mc);
  std::int64_t expected_total = 0;
  std::int64_t expected_hot_load = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    const ProcessorId holder = probe.offset_of(static_cast<KeyId>(k));
    // Key k's measured origins are {k, k+4, k+8, k+12}, 64 ops each;
    // the holder origin (if among them) contributes local, message-free
    // ops.
    const std::int64_t local =
        (static_cast<std::size_t>(holder) % keys) == k ? 64 : 0;
    const std::int64_t remote = 256 - local;
    expected_total += 2 * remote;
    // Ties in ops go to the smallest key: key 0 is the reported hot key.
    if (k == 0) expected_hot_load = 2 * remote;
  }
  EXPECT_EQ(res.hot_key, 0);
  EXPECT_EQ(res.hot_key_max_load, expected_hot_load);
  EXPECT_EQ(res.hot_key_messages, expected_hot_load);
  EXPECT_EQ(res.total_messages, expected_total);
}

// The arrival timeline is a pure function of the shape: scheduled-op
// counts for the constant and burst shapes are exact integers that any
// IEEE-754 host reproduces (only division and floor are involved —
// diurnal goes through libm's sin and is deliberately NOT pinned).
// These are the op-table sizes a duration-bounded open-loop run
// allocates; a drifting integrator or an off-by-one at the budget edge
// shows up here before it shows up as a mysterious BENCH row change.
TEST(PerfSmoke, TrafficScheduledArrivalCountsPinned) {
  // 20 kops/s for 50 ms: arrivals at i * 50 µs strictly before the
  // budget — exactly 1000, closed form, no drift.
  const traffic::RateShape constant =
      traffic::make_shape("constant", 20'000, 1.0, 0.5, 0.5);
  EXPECT_EQ(traffic::count_arrivals(constant, 0.05, 1 << 20), 1'000u);

  // Full-amplitude burst (duty 0.5): the high phase runs at 2x for the
  // first 5 ms (201 arrivals, endpoints included), then the floored
  // low phase schedules the next arrival 50 ms out — past the budget.
  const traffic::RateShape burst =
      traffic::make_shape("burst", 20'000, 0.01, 1.0, 0.5);
  EXPECT_EQ(traffic::count_arrivals(burst, 0.05, 1 << 20), 201u);

  // A gentler burst over whole periods lands on mean-rate * duration
  // plus the t=0 arrival: 150 kops/s * 0.1 s + 1.
  const traffic::RateShape burst2 =
      traffic::make_shape("burst", 150'000, 0.02, 0.5, 0.25);
  EXPECT_EQ(traffic::count_arrivals(burst2, 0.1, 1 << 20), 15'001u);

  // The cap binds exactly.
  EXPECT_EQ(traffic::count_arrivals(constant, 0.05, 170), 170u);
}

// Open-loop traffic fields at the checked-in baseline scale: the open
// loop reorders WHEN ops are issued, never WHICH ops run, so the
// central counter's schedule-independent message totals match the
// closed-loop 480 pin exactly; and the SLO denominator is every
// completed measured op — identical in exact and HDR recorder modes,
// so switching storage can never shift the attainment fraction's base.
TEST(PerfSmoke, ThroughputOpenLoopTrafficFieldsPinned) {
  ThroughputOptions options;
  options.workers = 2;
  options.ops = 256;
  options.warmup = 32;
  options.concurrency = 16;
  options.seed = 7;
  options.initiators = "roundrobin";
  options.open_rate = 200'000;  // well over capacity is fine: never skips
  options.shape = "constant";
  options.slo_us = 1'000;

  for (const std::size_t exact_cap : {std::size_t{1} << 16, std::size_t{64}}) {
    options.exact_cap = exact_cap;
    const ThroughputResult res =
        run_throughput(std::make_unique<CentralCounter>(16), options);
    ASSERT_TRUE(res.values_ok) << "cap=" << exact_cap;
    // The generator never drops a scheduled arrival: all 256 issue and
    // complete, and every one of them is in the SLO denominator.
    EXPECT_EQ(res.ops, 256u) << "cap=" << exact_cap;
    EXPECT_EQ(res.slo_den, 256) << "cap=" << exact_cap;
    EXPECT_GE(res.slo_ok, 0);
    EXPECT_LE(res.slo_ok, res.slo_den);
    // Storage mode follows the cap: 288 op slots vs 64.
    EXPECT_EQ(res.hdr_recorder, exact_cap < 288) << "cap=" << exact_cap;
    // Same 15-of-16-remote closed form as the closed-loop pin above.
    EXPECT_EQ(res.total_messages, 480) << "cap=" << exact_cap;
    EXPECT_EQ(res.max_load, 480) << "cap=" << exact_cap;
    EXPECT_GT(res.p99_us, 0.0);
    EXPECT_GE(res.max_us, res.p99_us);
  }
}

// The SHM harness' deterministic fields at the BENCH_throughput.json
// shm-row shape. A single driving thread makes every non-timing field
// exact: the run completing at all proves the DCNT_CHECKed final value
// (read() == warmup + ops) and the ticket permutation; the assertions
// below pin what lands in the JSON. Multi-thread runs can't pin
// record_threads (a 1-core host may let one thread drain the whole
// cursor), so T=1 is the deterministic configuration on every box.
TEST(PerfSmoke, ShmHarnessFieldsPinnedAtSingleThread) {
  for (const std::size_t inflight : {std::size_t{1}, std::size_t{64}}) {
    shm::ShmOptions options;
    options.threads = 1;
    options.ops = 2048;
    options.inflight = inflight;
    options.warmup = 64;
    options.seed = 7;
    const ThroughputResult res =
        shm::run_shm_throughput(shm::ShmKind::kAtomic, options);
    ASSERT_TRUE(res.values_ok) << "F=" << inflight;
    EXPECT_EQ(res.counter, "shm-atomic");
    EXPECT_EQ(res.n, 1u);
    EXPECT_EQ(res.workers, 1u);
    EXPECT_EQ(res.ops, 2048u) << "F=" << inflight;
    EXPECT_EQ(res.warmup, 64u);
    EXPECT_EQ(res.record_threads, 1u) << "F=" << inflight;
    ASSERT_TRUE(res.lin_checked);
    EXPECT_TRUE(res.linearizable) << "F=" << inflight;
    EXPECT_EQ(res.lin_violations, 0);
    // Coherence traffic is invisible to Metrics: the message-currency
    // fields are structurally zero for every shm row.
    EXPECT_EQ(res.total_messages, 0);
    EXPECT_EQ(res.max_load, 0);
    EXPECT_EQ(res.placement, "none");
    EXPECT_EQ(res.pinned_workers, 0u);
    EXPECT_TRUE(res.placement_supported);
    EXPECT_GT(res.ops_per_sec, 0.0);
  }
}

// Placement outcome fields are consistent on ANY host: compact either
// pins every worker (supported) or none (clean no-op), never a partial
// count at this scale.
TEST(PerfSmoke, ShmPlacementFieldsConsistent) {
  shm::ShmOptions options;
  options.threads = 2;
  options.ops = 512;
  options.placement = Placement::kCompact;
  const ThroughputResult res =
      shm::run_shm_throughput(shm::ShmKind::kSharded, options);
  ASSERT_TRUE(res.values_ok);
  EXPECT_EQ(res.placement, "compact");
  if (res.placement_supported) {
    EXPECT_EQ(res.pinned_workers, 2u);
  } else {
    EXPECT_EQ(res.pinned_workers, 0u);
  }
}

}  // namespace
}  // namespace dcnt
