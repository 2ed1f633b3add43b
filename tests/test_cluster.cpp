// Multi-process cluster tests: real dcnt_node processes on localhost.
//
// These are the acceptance tests of the socket runtime: the cluster
// must return a permutation of 0..ops-1 for shard-safe protocols over
// both data planes, sequential TCP runs must be deterministic in
// (seed, schedule), and the lossy UDP plane must demonstrably lose
// datagrams yet recover through the reliable transport.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "net/wire.hpp"

namespace dcnt::net {
namespace {

ClusterOptions base_options() {
  ClusterOptions opt;
  opt.nodes = 4;
  opt.min_processors = 8;
  opt.ops = 64;
  opt.seed = 7;
  opt.concurrency = 8;
  opt.timeout_seconds = 90.0;
  return opt;
}

TEST(Cluster, TreeFourNodesTcp) {
  ClusterOptions opt = base_options();
  opt.counter = "tree";
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_EQ(r.ops, 64u);
  EXPECT_EQ(r.nodes, 4u);
  // Real messages crossed real sockets.
  EXPECT_GT(r.wire_msgs_sent, 0);
  EXPECT_EQ(r.wire_msgs_sent, r.wire_msgs_received);
  EXPECT_EQ(r.frames_rejected, 0);
  EXPECT_GT(r.total_messages, 0);
  EXPECT_GT(r.max_load, 0);
  EXPECT_GE(r.bottleneck, 0);
}

TEST(Cluster, CentralFourNodesTcp) {
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_EQ(r.n, 16u);
  // The central counter's whole point: the holder is the bottleneck.
  EXPECT_EQ(r.bottleneck, 0);
  EXPECT_EQ(r.wire_msgs_sent, r.wire_msgs_received);
}

TEST(Cluster, CombiningFourNodesTcp) {
  ClusterOptions opt = base_options();
  opt.counter = "combining";
  opt.min_processors = 16;
  opt.ops = 48;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
}

TEST(Cluster, SequentialTcpIsDeterministic) {
  // Sequential mode: the quiescence barrier settles each op completely
  // before the next one starts, so for protocols whose per-op traffic
  // is a single causal chain (central: origin->holder->origin;
  // static-tree: origin->...->root->origin) only one message is ever in
  // flight and socket timing cannot reorder anything. Two runs at one
  // (seed, schedule) must agree byte for byte: values, per-processor
  // loads, and total messages.
  for (const char* counter : {"central", "static-tree"}) {
    SCOPED_TRACE(counter);
    ClusterOptions opt = base_options();
    opt.counter = counter;
    opt.ops = 24;
    opt.quiesce_between_ops = true;
    const ClusterResult a = run_cluster(opt);
    const ClusterResult b = run_cluster(opt);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.load, b.load);
    EXPECT_EQ(a.total_messages, b.total_messages);
    // Sequential completions arrive in issue order, so values are not
    // merely a permutation: op i returns i.
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      EXPECT_EQ(a.values[i], static_cast<Value>(i));
    }
  }
}

TEST(Cluster, SequentialTreeValuesDeterministicCountsBounded) {
  // The dynamic tree is different: a retirement forks the handover
  // handshake off the inc's reply path, so two messages race across
  // distinct socket pairs and a message can reach a role mid-handover
  // — costing the constant number of forwarding messages the paper
  // budgets for a handover. Message COUNTS are therefore not a
  // deterministic function of (seed, schedule) under real asynchrony
  // (the simulator agrees: under DelayModel::uniform(1,10) this very
  // schedule yields totals 72..77), but VALUES are — linearized counts
  // must come back 0,1,2,... in issue order every run.
  ClusterOptions opt = base_options();
  opt.counter = "tree";
  opt.ops = 24;
  opt.quiesce_between_ops = true;
  const ClusterResult a = run_cluster(opt);
  const ClusterResult b = run_cluster(opt);
  EXPECT_EQ(a.values, b.values);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], static_cast<Value>(i));
  }
  // Counts may differ run to run only by the O(1)-per-handover
  // forwarding slack; anything larger means lost or duplicated traffic.
  const std::int64_t diff = a.total_messages > b.total_messages
                                ? a.total_messages - b.total_messages
                                : b.total_messages - a.total_messages;
  EXPECT_LE(diff, 8);
}

TEST(Cluster, SingleNodeRunsAnyCounter) {
  // nodes=1 needs no shard contract — the whole protocol lives in one
  // process; the harness still exercises spawn/handshake/quiesce.
  ClusterOptions opt = base_options();
  opt.nodes = 1;
  opt.counter = "diffracting";
  opt.min_processors = 8;
  opt.ops = 32;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_EQ(r.wire_msgs_sent, 0);  // no peers to talk to
}

TEST(Cluster, InlineDriveTcp) {
  // Each node is one thread: its event loop drives the runtime's single
  // shard itself between reactor passes, so no message crosses a thread.
  ClusterOptions opt = base_options();
  opt.counter = "tree";
  opt.nodes = 2;
  opt.ops = 48;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_GT(r.wire_msgs_sent, 0);
  EXPECT_EQ(r.wire_msgs_sent, r.wire_msgs_received);
}

TEST(Cluster, InlineDriveUdpLossyFiresTimersInline) {
  // The inline path's timer machinery: retransmission timers are armed
  // by the reliable transport and must fire from the driving loop's own
  // clamped kernel wait (no worker thread exists to park on the
  // deadline), and the controller's time jump must be acted on even
  // when no socket traffic is due.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.nodes = 2;
  opt.ops = 48;
  opt.udp = true;
  opt.drop_probability = 0.15;
  opt.tick_us = 100;
  opt.retry.ack_timeout = 8;
  opt.retry.max_timeout = 64;
  opt.retry.max_attempts = 30;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_GT(r.injected_drops, 0);
  EXPECT_GT(r.retransmissions, 0);
  EXPECT_EQ(r.messages_abandoned, 0);
}

TEST(Cluster, PipelinedClosedLoopKeepsInvariants) {
  // --pipeline D multiplies the closed-loop window: every invariant the
  // D=1 runs check must survive D=8 — exact value permutation, the
  // quiescence barrier converging, and conservation (TCP wire sends ==
  // receives; m_p totals unchanged for chain protocols, see below).
  ClusterOptions opt = base_options();
  opt.counter = "tree";
  opt.ops = 96;
  opt.concurrency = 8;
  opt.inflight = 8;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_EQ(r.ops, 96u);
  EXPECT_EQ(r.wire_msgs_sent, r.wire_msgs_received);
  EXPECT_GT(r.quiesce_rounds, 0);
}

TEST(Cluster, PipelineDepthDoesNotChangeCentralMessageCount) {
  // For the central counter every inc costs exactly 2 messages
  // regardless of interleaving, so m_p totals are pipeline-invariant:
  // depth changes only WHEN messages fly, never HOW MANY. This is the
  // cluster-side statement of the paper's accounting — the bottleneck
  // quantity is a property of the protocol, not of the client's
  // concurrency structure.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.ops = 64;
  opt.inflight = 1;
  const ClusterResult d1 = run_cluster(opt);
  opt.inflight = 8;
  const ClusterResult d8 = run_cluster(opt);
  EXPECT_TRUE(d1.values_ok);
  EXPECT_TRUE(d8.values_ok);
  EXPECT_EQ(d1.total_messages, d8.total_messages);
  EXPECT_EQ(d1.max_load, d8.max_load);
  EXPECT_EQ(d1.bottleneck, 0);
  EXPECT_EQ(d8.bottleneck, 0);
}

TEST(Cluster, UdpLossyRecoversThroughReliableTransport) {
  ClusterOptions opt = base_options();
  opt.counter = "tree";
  opt.min_processors = 8;
  opt.ops = 48;
  opt.udp = true;
  opt.drop_probability = 0.15;
  opt.tick_us = 100;  // faster retransmission clock keeps the test quick
  opt.retry.ack_timeout = 8;
  opt.retry.max_timeout = 64;
  opt.retry.max_attempts = 30;  // never abandon under pure loss
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  // The shim really dropped datagrams, and retransmission really ran.
  EXPECT_GT(r.injected_drops, 0);
  EXPECT_GT(r.retransmissions, 0);
  EXPECT_EQ(r.messages_abandoned, 0);
}

TEST(Cluster, KeyedFourNodesTcpBatched) {
  // The multi-key fabric across 4 real processes: batched keyed Starts
  // (kStartBatch) out, coalesced kCompleteBatch replies back, per-key
  // values verified as exact permutations of 0..ops_k-1 inside
  // run_cluster, per-key loads merged from the chunked kLoads reports.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.ops = 96;
  opt.keys = 32;
  opt.key_dist = "zipf";
  opt.key_skew = 0.99;
  opt.batch = 8;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_EQ(r.keys, 32u);
  EXPECT_EQ(r.key_of_op.size(), 96u);
  EXPECT_GE(r.hot_key, 0);
  EXPECT_GT(r.hot_key_ops, 0);
  EXPECT_GT(r.hot_key_max_load, 0);
  EXPECT_GT(r.keys_touched, 1u);
  EXPECT_EQ(r.wire_msgs_sent, r.wire_msgs_received);
}

TEST(Cluster, KeyedBatchSizeDoesNotChangePerKeyLoads) {
  // Batching is an RPC transport optimization: how many schedule
  // entries share a frame must not change WHAT the protocol does. For
  // central every inc costs the same messages regardless of
  // interleaving, so the per-key bottleneck numbers and the totals must
  // be identical across batch sizes.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.ops = 64;
  opt.keys = 16;
  opt.batch = 1;
  const ClusterResult b1 = run_cluster(opt);
  opt.batch = 8;
  const ClusterResult b8 = run_cluster(opt);
  EXPECT_TRUE(b1.values_ok);
  EXPECT_TRUE(b8.values_ok);
  EXPECT_EQ(b1.key_of_op, b8.key_of_op);  // schedule is seed-determined
  EXPECT_EQ(b1.hot_key, b8.hot_key);
  EXPECT_EQ(b1.hot_key_ops, b8.hot_key_ops);
  EXPECT_EQ(b1.hot_key_max_load, b8.hot_key_max_load);
  EXPECT_EQ(b1.hot_key_messages, b8.hot_key_messages);
  EXPECT_EQ(b1.total_messages, b8.total_messages);
  EXPECT_EQ(b1.max_load, b8.max_load);
  EXPECT_EQ(b1.keys_touched, b8.keys_touched);
}

TEST(Cluster, KeyedSequentialTcpDeterministicWithLru) {
  // Satellite of the LRU determinism contract, TCP half: same (seed,
  // schedule) driven sequentially over the real cluster must reproduce
  // the identical completion values AND the identical eviction activity
  // — each node's directory makes the same decisions in the same order,
  // so the summed counters match run to run.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.nodes = 2;
  opt.ops = 48;
  opt.keys = 8;
  opt.key_capacity = 2;
  opt.quiesce_between_ops = true;
  const ClusterResult a = run_cluster(opt);
  const ClusterResult b = run_cluster(opt);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.key_of_op, b.key_of_op);
  EXPECT_EQ(a.load, b.load);
  EXPECT_GT(a.lru_evicts, 0);  // capacity 2 over 8 keys must evict
  EXPECT_GT(a.lru_rehydrates, 0);
  EXPECT_EQ(a.lru_hits, b.lru_hits);
  EXPECT_EQ(a.lru_misses, b.lru_misses);
  EXPECT_EQ(a.lru_evicts, b.lru_evicts);
  EXPECT_EQ(a.lru_rehydrates, b.lru_rehydrates);
  // Sequential keyed completions arrive in issue order: op i's value is
  // its key's running count at that point.
  std::unordered_map<KeyId, Value> next;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], next[a.key_of_op[i]]++) << "op " << i;
  }
}

TEST(Cluster, KeyedTcpMatchesInprocPerKeyBottleneck) {
  // Same (seed, schedule), same fabric — once in-process on the
  // threaded runtime, once as a 4-process TCP cluster. The hot key and
  // its per-key message accounting are schedule properties for central,
  // so the two runtimes must agree number for number: the paper's
  // per-key bottleneck is invariant to where the processors live. With
  // a warmup, both must cycle it through the same measured schedule
  // (traffic::schedule_slot).
  for (const std::size_t warmup : {0, 16}) {
    SCOPED_TRACE(warmup);
    LoadOptions load;
    load.ops = 64;
    load.warmup = warmup;
    load.concurrency = 8;
    load.seed = 7;
    load.keys = 16;
    load.key_dist = "zipf";
    load.key_skew = 0.99;

    ThroughputOptions topt;
    static_cast<LoadOptions&>(topt) = load;
    topt.workers = 2;
    const ThroughputResult inproc =
        run_throughput(make_counter(CounterKind::kCentral, 16), topt);

    ClusterOptions copt = base_options();
    static_cast<LoadOptions&>(copt) = load;
    copt.counter = "central";
    copt.min_processors = 16;
    copt.batch = 4;
    const ClusterResult cluster = run_cluster(copt);

    EXPECT_EQ(cluster.hot_key, inproc.hot_key);
    EXPECT_EQ(cluster.hot_key_ops, inproc.hot_key_ops);
    EXPECT_EQ(cluster.hot_key_max_load, inproc.hot_key_max_load);
    EXPECT_EQ(cluster.hot_key_messages, inproc.hot_key_messages);
    EXPECT_EQ(cluster.keys_touched, inproc.keys_touched);
    EXPECT_EQ(cluster.total_messages, inproc.total_messages);
    EXPECT_EQ(cluster.max_load, inproc.max_load);
    EXPECT_EQ(cluster.bottleneck, inproc.bottleneck);
  }
}

TEST(Cluster, LoadReportSpanningSeveralChunksMatchesInproc) {
  // One op per key on 20,000 round-robin keys: each key moves messages
  // at its origin and at its rotated holder, so the single node's load
  // report has about two rows per key, several kLoadsChunk chunks. The
  // merged ledger must equal the in-process run's row for row.
  LoadOptions load;
  load.ops = 20'000;
  load.concurrency = 16;
  load.inflight = 16;
  load.seed = 7;
  load.keys = 20'000;
  load.key_dist = "roundrobin";

  ThroughputOptions topt;
  static_cast<LoadOptions&>(topt) = load;
  topt.workers = 2;
  const ThroughputResult inproc =
      run_throughput(make_counter(CounterKind::kCentral, 16), topt);

  ClusterOptions copt = base_options();
  static_cast<LoadOptions&>(copt) = load;
  copt.counter = "central";
  copt.min_processors = 16;
  copt.nodes = 1;
  const ClusterResult cluster = run_cluster(copt);

  EXPECT_TRUE(cluster.values_ok);
  // Every touched key is at least one row of the one node's report.
  EXPECT_GT(cluster.keys_touched, kLoadsChunk);
  EXPECT_EQ(cluster.keys_touched, inproc.keys_touched);
  EXPECT_EQ(cluster.hot_key, inproc.hot_key);
  EXPECT_EQ(cluster.hot_key_ops, inproc.hot_key_ops);
  EXPECT_EQ(cluster.hot_key_max_load, inproc.hot_key_max_load);
  EXPECT_EQ(cluster.hot_key_messages, inproc.hot_key_messages);
  EXPECT_EQ(cluster.total_messages, inproc.total_messages);
  EXPECT_EQ(cluster.max_load, inproc.max_load);
  EXPECT_EQ(cluster.bottleneck, inproc.bottleneck);
}

TEST(Cluster, KeyedUdpLossyKeepsEnvelopeKeyed) {
  // The keyed envelope rides inside the reliable transport's Data
  // frames, so a dropped datagram's retransmission must still carry its
  // key — otherwise the receiver would misroute the inner message to
  // key 0 and some key's values would no longer form a permutation
  // (run_cluster aborts on that).
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.nodes = 2;
  opt.ops = 48;
  opt.keys = 8;
  opt.udp = true;
  opt.drop_probability = 0.15;
  opt.tick_us = 100;
  opt.retry.ack_timeout = 8;
  opt.retry.max_timeout = 64;
  opt.retry.max_attempts = 30;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_GT(r.injected_drops, 0);
  EXPECT_GT(r.retransmissions, 0);
  EXPECT_EQ(r.messages_abandoned, 0);
  // Lost datagrams are dropped by the shim, never mangled: every one
  // that arrived decoded.
  EXPECT_EQ(r.frames_rejected, 0);
}

TEST(Cluster, UdpCleanChannelHasNoRetransmissions) {
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 8;
  opt.ops = 32;
  opt.udp = true;
  opt.drop_probability = 0.0;
  opt.tick_us = 100;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_EQ(r.injected_drops, 0);
  // Loopback datagrams under tiny load essentially never drop; allow
  // the odd kernel hiccup but require the common case.
  EXPECT_LE(r.messages_abandoned, 0);
}

TEST(Cluster, TimeJumpEndsBarriersThatOnlyStaleTimersHold) {
  // One node keeps every message inside it, so none can be lost. With a
  // one-second tick each acked envelope still leaves its ack timer armed
  // 16 s out (the default ack_timeout of 16 ticks), so every quiescence
  // barrier can end only through the controller's time jump: without it
  // the run would wait out the stale timers.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.nodes = 1;
  opt.ops = 32;
  opt.concurrency = 4;
  opt.udp = true;
  opt.drop_probability = 0.0;
  opt.tick_us = 1'000'000;
  opt.timeout_seconds = 60.0;
  const auto t0 = std::chrono::steady_clock::now();
  const ClusterResult r = run_cluster(opt);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_TRUE(r.values_ok);
  EXPECT_LT(seconds, 5.0);
  EXPECT_EQ(r.retransmissions, 0);
  // Round-robin origins: 2 of the 32 incs start at the holder. Each of
  // the other 30 costs its two messages plus their two acks.
  EXPECT_EQ(r.total_messages, 4 * 30);
  EXPECT_EQ(r.max_load, 4 * 30);
}

TEST(Cluster, StartsLeaveAsOneFramePerNodePerReactorRound) {
  // The controller stages what the driver issues and sends it at the
  // next reactor round. A window filled before the first round is one
  // frame; a sequential run has one op per round, so one frame per op.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.nodes = 1;
  opt.concurrency = 4;
  opt.inflight = 8;
  opt.ops = 32;
  const ClusterResult fill = run_cluster(opt);
  EXPECT_TRUE(fill.values_ok);
  EXPECT_TRUE(fill.linearizable);
  EXPECT_EQ(fill.start_frames, 1);

  opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.warmup = 4;  // counted out with the metrics reset
  opt.ops = 24;
  opt.quiesce_between_ops = true;
  const ClusterResult seq = run_cluster(opt);
  EXPECT_TRUE(seq.values_ok);
  EXPECT_EQ(seq.start_frames, 24);
}

TEST(Cluster, WindowBeyondOneFrameCompletesExactly) {
  // 80,000 ops in flight: the window's starts and the drain round's
  // completions both outgrow one frame, and leave split at the cap.
  ClusterOptions opt = base_options();
  opt.counter = "central";
  opt.min_processors = 16;
  opt.nodes = 1;
  opt.concurrency = 1;
  opt.inflight = 80'000;
  opt.ops = 80'000;
  const ClusterResult r = run_cluster(opt);
  EXPECT_TRUE(r.values_ok);
  EXPECT_EQ(r.ops, 80'000u);
  EXPECT_TRUE(r.lin_checked);
  EXPECT_TRUE(r.linearizable);
  EXPECT_EQ(r.start_frames,
            static_cast<std::int64_t>((80'000 + kBatchEntryCap - 1) /
                                      kBatchEntryCap));
}

TEST(Cluster, NodeRejectsUnknownFlags) {
  // dcnt_node accepts a fixed flag set. A flag outside it (here the
  // topology knobs a node no longer has) must exit 2 with a usage
  // message instead of being silently ignored.
  const std::string node = find_node_binary();
  for (const char* flag : {"--shards=2", "--loops=2", "--backend=poll"}) {
    SCOPED_TRACE(flag);
    const std::string cmd = "'" + node + "' " + flag + " 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
}

}  // namespace
}  // namespace dcnt::net
