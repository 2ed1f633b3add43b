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
// The in-process baseline is a few milliseconds of work, so one run's
// inc/s is mostly scheduler noise: it runs 5 times (a constant, not a
// flag) and its row is the run with the median inc/s.
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
//
// The table and the JSON "runs" array come from the same rows through
// one column list (bench_util.hpp's emit); the tcp-open and tcp-conc
// columns appear in the JSON of those rows only.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/thread_pool.hpp"

using namespace dcnt;

namespace {

/// In-process baseline runs per counter; the row reports the median.
constexpr int kInprocRuns = 5;

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

  std::vector<ClusterRow> rows;
  for (const std::string& name : counters) {
    const CounterKind kind = counter_kind_from_string(name);
    auto probe = make_counter(kind, n);
    if (!probe->shard_safe()) {
      std::cout << "skip: " << probe->name() << " (not shard-safe)\n";
      continue;
    }
    const auto ops =
        static_cast<std::size_t>(ops_factor) * probe->num_processors();
    net::ClusterOptions base;
    base.counter = name;
    base.min_processors = n;
    base.nodes = nodes;
    base.ops = ops;
    base.concurrency = concurrency;
    base.warmup = warmup;
    base.seed = seed;
    const auto run = [&](const std::string& mode,
                         const net::ClusterOptions& copt) {
      rows.push_back({mode, copt.nodes, copt, net::run_cluster(copt)});
    };

    // In-process baseline: worker count matched to the cluster's
    // process count, so both runtimes get the same parallelism budget.
    // One run is a few milliseconds, so its inc/s is mostly scheduler
    // noise: the row reports the median-inc/s run of kInprocRuns.
    ThroughputOptions topt;
    static_cast<LoadOptions&>(topt) = base;
    topt.workers = nodes;
    std::vector<ThroughputResult> inproc;
    for (int i = 0; i < kInprocRuns; ++i) {
      inproc.push_back(run_throughput(make_counter(kind, n), topt));
    }
    const auto median = inproc.begin() + kInprocRuns / 2;
    std::nth_element(inproc.begin(), median, inproc.end(),
                     [](const ThroughputResult& a, const ThroughputResult& b) {
                       return a.ops_per_sec < b.ops_per_sec;
                     });
    ClusterRow row{"inproc", median->workers, base, {}};
    static_cast<HarnessResult&>(row.result) = *median;
    row.result.counter = name;  // cluster rows carry the flag name; match it
    rows.push_back(std::move(row));

    for (const std::int64_t depth : pipelines) {
      net::ClusterOptions copt = base;
      copt.inflight = static_cast<std::size_t>(depth > 0 ? depth : 1);
      run("tcp", copt);

      copt.udp = true;
      run("udp", copt);

      if (drop > 0.0) {
        copt.drop_probability = drop;
        // Faster retransmission clock: at the default 200us tick the
        // first retry would wait ~3ms of wall time per lost datagram.
        copt.tick_us = 100;
        copt.retry.ack_timeout = 8;
        copt.retry.max_timeout = 64;
        copt.retry.max_attempts = 30;
        run("udp-lossy", copt);
      }
    }

    // Concurrency-plane rows on the TCP plane: each client slot keeps F
    // ops outstanding; the op count is scaled so every window refills a
    // few times, and the linearizability verdict comes from the real
    // socket history (serializing counters must pass at every F).
    for (const std::int64_t f : inflight_list) {
      net::ClusterOptions copt = base;
      copt.inflight = static_cast<std::size_t>(f > 0 ? f : 1);
      copt.ops = std::max(ops, 4 * concurrency * copt.inflight);
      run("tcp-conc", copt);
      const net::ClusterResult& r = rows.back().result;
      DCNT_CHECK_MSG(r.lin_checked, "tcp-conc row without a lin verdict");
      if (expected_linearizable(kind)) {
        DCNT_CHECK_MSG(r.linearizable,
                       "serializing counter failed linearizability on TCP");
      }
    }

    // Open-loop rows on the TCP plane: one per offered rate.
    for (const double rate : rates) {
      net::ClusterOptions copt = base;
      copt.open_rate = rate;
      copt.shape = shape;
      copt.period_s = period;
      copt.amplitude = amplitude;
      copt.duty = duty;
      copt.duration_s = duration;
      copt.slo_us = slo_us;
      copt.exact_cap = exact_cap;
      run("tcp-open", copt);
    }
  }

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
  using C = Columns<ClusterRow>;
  using R = net::ClusterResult;
  const auto mode_is = [](const char* mode) {
    return [mode](const ClusterRow& r) { return r.mode == mode; };
  };
  emit(json, "runs",
       "NET: in-process runtime vs multi-process socket cluster "
       "(every run verified exact)",
       harness_columns<ClusterRow>({
           C::load("pipeline", "pipe", &net::ClusterOptions::inflight),
           C::result("wire_msgs", "wire_msgs", &R::wire_msgs_sent),
           C::result("wire_bytes", "", &R::wire_bytes_sent),
           C::result("write_syscalls", "", &R::wire_write_syscalls),
           // Wire bytes per kernel write(): how much frame coalescing the
           // deferred-flush event loop achieved (0 for in-process rows).
           {"bytes_per_write", "wr_B", 1,
            [](const ClusterRow& r) {
              const R& c = r.result;
              return to_cell(c.wire_write_syscalls == 0
                                 ? 0.0
                                 : static_cast<double>(c.wire_bytes_sent) /
                                       c.wire_write_syscalls);
            }},
           C::result("injected_drops", "", &R::injected_drops),
           C::result("retransmissions", "retx", &R::retransmissions),
       }),
       {{"counter* mode* pipeline* n* parallelism* ops* wall_seconds "
         "ops_per_sec* mean_us p50_us* p99_us*"},
        {"rate shape p999_us p9999_us max_us slo_us slo_attainment "
         "hdr_recorder",
         mode_is("tcp-open")},
        {"inflight window", mode_is("tcp-conc")},
        {"lin_checked linearizable lin* lin_violations* total_messages* "
         "max_load* wire_msgs* wire_bytes write_syscalls bytes_per_write* "
         "injected_drops retransmissions*"}},
       rows);
  return 0;
}
