// NET — what real sockets cost: the multi-process cluster runtime
// (dcnt_node processes over localhost TCP or lossy UDP) versus the
// in-process threaded runtime at matched protocol, n, and parallelism.
//
// Each mode runs the identical closed-loop workload and verifies the
// returned values are an exact permutation of 0..ops-1, so every row
// is also a correctness check. Protocol-level message loads (m_p, the
// paper's bottleneck quantity) match the in-process runtime on the TCP
// rows up to the tree's O(1)-per-handover slack; the UDP rows run
// behind the reliable transport, whose Data/Ack envelopes are protocol
// messages too — the m_p delta is exactly what at-least-once delivery
// costs in the paper's own currency. Wall-clock columns price the
// transport itself: loopback TCP costs microseconds per hop where the
// in-process runtime costs nanoseconds, and the lossy rows add
// retransmission stalls on top.
//
// Each run starts with `--warmup` unmeasured closed-loop ops: the
// connection setup, allocator cold-start and first-touch faults settle,
// a cluster-wide quiescence barrier fires, the nodes reset their
// metrics, and only then does the measured phase begin. The wr_B column
// (wire bytes per kernel write()) is the coalescing observable: the
// event loop batches every frame queued in one drain round into a
// single write() per peer.
//
// The cluster rows sweep `--pipelines` (closed-loop pipeline depth D:
// each of the `--concurrency` slots keeps D ops outstanding). D=1 is
// the classic one-op-per-slot closed loop; D>1 amortises the
// per-wakeup syscall cost across a deeper in-flight window. Every
// depth is still verified as an exact permutation. p50/p99 latency is
// per-op as stamped at the controller, so at D>1 it includes queueing
// behind the same slot's earlier ops.
//
// With --inflight_list set (default 1,8,64,256), each counter also runs
// "tcp-conc" rows: the concurrency plane's closed-loop window sweep on
// the real TCP mesh. Each of the --concurrency slots keeps F ops
// outstanding (window = concurrency * F), the controller records every
// op's (invoke, response, value) triple in a history buffer, and
// check_linearizable runs over the real socket history after quiesce —
// the lin/viol columns are measured, not assumed. Serializing counters
// (tree, central, combining) must come back linearizable at
// every F; balancer-based ones (diffracting, counting networks) are
// only quiescent-consistent and may not.
//
// With --rates set, each counter also runs open-loop "tcp-open" rows:
// the controller paces Starts on a deterministic arrival timeline
// (--shape/--period/--amplitude/--duty) and stamps latency from each
// op's *scheduled* arrival, so queueing in the mesh counts against the
// tail (coordinated-omission-free); --slo_us adds attainment and
// --duration caps the run by wall clock instead of op count.
//
//   $ bench_net [--counters=tree,central] [--n=16] [--nodes=4]
//               [--ops_factor=16] [--concurrency=16] [--drop=0.05]
//               [--pipelines=1,8] [--inflight_list=1,8,64,256]
//               [--warmup=64] [--seed=7]
//               [--rates=] [--shape=constant] [--period=1]
//               [--amplitude=0.5] [--duty=0.5] [--duration=0]
//               [--slo_us=0] [--exact_cap=65536]
//               [--out=BENCH_net.json]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace dcnt;

namespace {

/// One row of the comparison, whichever runtime produced it: the run's
/// result plus what only the row knows. In-process rows fill just the
/// HarnessResult part; their wire counters stay zero.
struct NetRow {
  net::ClusterResult r;
  std::string mode;  ///< "inproc", "tcp", "udp", "udp-lossy", "tcp-conc"
  std::size_t pipeline{1};  ///< closed-loop depth per slot (1 for inproc)
  std::size_t inflight{0};  ///< tcp-conc rows: F ops outstanding per slot
  std::size_t parallelism{0};  ///< workers (inproc) or nodes (cluster)
  double rate{0.0};  ///< tcp-open rows: offered rate
};

NetRow from_cluster(net::ClusterResult r, const std::string& mode,
                    std::size_t pipeline) {
  NetRow row;
  row.parallelism = r.nodes;
  row.r = std::move(r);
  row.mode = mode;
  row.pipeline = pipeline;
  return row;
}

/// Wire bytes per kernel write() — how much frame coalescing the
/// deferred-flush event loop achieved (0 for the in-process rows).
double bytes_per_write(const net::ClusterResult& r) {
  if (r.wire_write_syscalls == 0) return 0.0;
  return static_cast<double>(r.wire_bytes_sent) /
         static_cast<double>(r.wire_write_syscalls);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "NET: socket cluster runtime vs in-process runtime at matched "
      "protocol/n/parallelism",
      {"amplitude", "concurrency", "counters", "drop", "duration", "duty",
       "exact_cap", "inflight_list", "n", "nodes", "ops_factor", "out",
       "period", "pipelines", "rates", "seed", "shape", "slo_us", "warmup"});
  const auto counters =
      parse_string_list(flags.get_string("counters", "tree,central"));
  const std::int64_t n = flags.get_int("n", 16);
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes", 4));
  const std::int64_t ops_factor = flags.get_int("ops_factor", 16);
  const auto concurrency =
      static_cast<std::size_t>(flags.get_int("concurrency", 16));
  const double drop = flags.get_double("drop", 0.05);
  const auto pipelines = parse_int_list(flags.get_string("pipelines", "1,8"));
  // tcp-conc window sweep (empty disables): F outstanding ops per slot,
  // linearizability checked over the real socket history.
  const auto inflight_list =
      parse_int_list(flags.get_string("inflight_list", "1,8,64,256"));
  const auto warmup = static_cast<std::size_t>(flags.get_int("warmup", 64));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::string out = flags.get_string("out", "BENCH_net.json");
  // Open-loop cluster rows (--rates non-empty): the controller paces
  // Start frames on the deterministic arrival timeline and stamps
  // latency from scheduled arrival — queueing in the mesh counts.
  const auto rates = parse_double_list(flags.get_string("rates", ""));
  const std::string shape = flags.get_string("shape", "constant");
  const double period = flags.get_double("period", 1.0);
  const double amplitude = flags.get_double("amplitude", 0.5);
  const double duty = flags.get_double("duty", 0.5);
  const double duration = flags.get_double("duration", 0.0);
  const double slo_us = flags.get_double("slo_us", 0.0);
  const auto exact_cap =
      static_cast<std::size_t>(flags.get_int("exact_cap", 1 << 16));

  Table table({"counter", "mode", "pipe", "n", "par", "ops", "inc/s", "p50_us",
               "p99_us", "total_msgs", "max_load", "wire_msgs", "wr_B", "retx",
               "lin", "viol"});
  std::vector<NetRow> rows;

  for (const std::string& name : counters) {
    const CounterKind kind = counter_kind_from_string(name);
    auto probe = make_counter(kind, n);
    if (!probe->shard_safe()) {
      std::cout << "skip: " << probe->name() << " (not shard-safe)\n";
      continue;
    }
    const std::size_t procs = probe->num_processors();
    const auto ops = static_cast<std::size_t>(ops_factor) * procs;

    // In-process baseline: worker count matched to the cluster's
    // process count, so both runtimes get the same parallelism budget.
    ThroughputOptions topt;
    topt.workers = nodes;
    topt.ops = ops;
    topt.concurrency = concurrency;
    topt.warmup = warmup;
    topt.seed = seed;
    const ThroughputResult tres = run_throughput(make_counter(kind, n), topt);
    NetRow inproc;
    static_cast<HarnessResult&>(inproc.r) = tres;
    inproc.r.counter = name;  // cluster rows carry the flag name; match it
    inproc.mode = "inproc";
    inproc.parallelism = tres.workers;
    rows.push_back(std::move(inproc));

    for (const std::int64_t depth : pipelines) {
      const auto d = static_cast<std::size_t>(depth > 0 ? depth : 1);
      net::ClusterOptions copt;
      copt.counter = name;
      copt.min_processors = n;
      copt.nodes = nodes;
      copt.ops = static_cast<std::int64_t>(ops);
      copt.concurrency = concurrency;
      copt.inflight = d;
      copt.warmup = warmup;
      copt.seed = seed;
      rows.push_back(from_cluster(net::run_cluster(copt), "tcp", d));

      copt.udp = true;
      copt.drop_probability = 0.0;
      rows.push_back(from_cluster(net::run_cluster(copt), "udp", d));

      if (drop > 0.0) {
        copt.drop_probability = drop;
        // Faster retransmission clock: at the default 200us tick the
        // first retry would wait ~3ms of wall time per lost datagram.
        copt.tick_us = 100;
        copt.retry.ack_timeout = 8;
        copt.retry.max_timeout = 64;
        copt.retry.max_attempts = 30;
        rows.push_back(from_cluster(net::run_cluster(copt), "udp-lossy", d));
      }
    }

    // Concurrency-plane rows on the TCP plane: each client slot keeps F
    // ops outstanding; the op count is scaled so every window refills a
    // few times, and the linearizability verdict comes from the real
    // socket history (serializing counters must pass at every F).
    for (const std::int64_t f : inflight_list) {
      const auto inflight = static_cast<std::size_t>(f > 0 ? f : 1);
      const std::size_t window = concurrency * inflight;
      net::ClusterOptions copt;
      copt.counter = name;
      copt.min_processors = n;
      copt.nodes = nodes;
      copt.ops = static_cast<std::int64_t>(std::max(ops, 4 * window));
      copt.concurrency = concurrency;
      copt.inflight = inflight;
      copt.warmup = warmup;
      copt.seed = seed;
      NetRow row = from_cluster(net::run_cluster(copt), "tcp-conc", inflight);
      row.inflight = inflight;
      DCNT_CHECK_MSG(row.r.lin_checked, "tcp-conc row without a lin verdict");
      if (expected_linearizable(kind)) {
        DCNT_CHECK_MSG(row.r.linearizable,
                       "serializing counter failed linearizability on TCP");
      }
      rows.push_back(std::move(row));
    }

    // Open-loop rows on the TCP plane: one per offered rate.
    for (const double rate : rates) {
      net::ClusterOptions copt;
      copt.counter = name;
      copt.min_processors = n;
      copt.nodes = nodes;
      copt.ops = static_cast<std::int64_t>(ops);
      copt.warmup = warmup;
      copt.seed = seed;
      copt.open_rate = rate;
      copt.shape = shape;
      copt.period_s = period;
      copt.amplitude = amplitude;
      copt.duty = duty;
      copt.duration_s = duration;
      copt.slo_us = slo_us;
      copt.exact_cap = exact_cap;
      NetRow row = from_cluster(net::run_cluster(copt), "tcp-open", 1);
      row.rate = rate;
      rows.push_back(std::move(row));
    }
  }

  for (const NetRow& row : rows) {
    const net::ClusterResult& r = row.r;
    table.row()
        .add(r.counter)
        .add(row.mode)
        .add(static_cast<std::int64_t>(row.pipeline))
        .add(static_cast<std::int64_t>(r.n))
        .add(static_cast<std::int64_t>(row.parallelism))
        .add(static_cast<std::int64_t>(r.ops))
        .add(r.ops_per_sec, 0)
        .add(r.p50_us, 1)
        .add(r.p99_us, 1)
        .add(r.total_messages)
        .add(r.max_load)
        .add(r.wire_msgs_sent)
        .add(bytes_per_write(r), 1)
        .add(r.retransmissions)
        .add(r.lin_checked ? (r.linearizable ? "y" : "NO") : "-")
        .add(r.lin_violations);
  }
  table.print(std::cout,
              "NET: in-process runtime vs multi-process socket cluster "
              "(every run verified exact)");

  JsonWriter json(out);
  json.field("bench", "net");
  json.field("n", n);
  json.field("nodes", nodes);
  json.field("ops_factor", ops_factor);
  json.field("concurrency", concurrency);
  json.field("drop", drop, 3);
  json.field("warmup", warmup);
  json.field("seed", seed);
  json.field("hardware_threads", default_thread_count());
  json.begin_array("runs");
  for (const NetRow& row : rows) {
    const net::ClusterResult& r = row.r;
    json.begin_object();
    json.field("counter", r.counter);
    json.field("mode", row.mode);
    json.field("pipeline", row.pipeline);
    json.field("n", r.n);
    json.field("parallelism", row.parallelism);
    json.field("ops", r.ops);
    json.field("wall_seconds", r.wall_seconds, 4);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("mean_us", r.mean_us, 2);
    json.field("p50_us", r.p50_us, 2);
    json.field("p99_us", r.p99_us, 2);
    if (row.mode == "tcp-open") {
      json.field("rate", row.rate, 1);
      json.field("shape", shape);
      json.field("p999_us", r.p999_us, 2);
      json.field("p9999_us", r.p9999_us, 2);
      json.field("max_us", r.max_us, 2);
      json.field("slo_us", slo_us, 1);
      json.field("slo_attainment", r.slo_attainment, 6);
      json.field("hdr_recorder", r.hdr_recorder ? 1 : 0);
    }
    if (row.mode == "tcp-conc") {
      json.field("inflight", row.inflight);
      json.field("window", row.inflight * concurrency);
    }
    json.field("lin_checked", r.lin_checked ? 1 : 0);
    json.field("linearizable", r.linearizable ? 1 : 0);
    json.field("lin_violations", r.lin_violations);
    json.field("total_messages", r.total_messages);
    json.field("max_load", r.max_load);
    json.field("wire_msgs", r.wire_msgs_sent);
    json.field("wire_bytes", r.wire_bytes_sent);
    json.field("write_syscalls", r.wire_write_syscalls);
    json.field("bytes_per_write", bytes_per_write(r), 1);
    json.field("injected_drops", r.injected_drops);
    json.field("retransmissions", r.retransmissions);
    json.end_object();
  }
  json.end_array();
  return 0;
}
