// THRU — wall-clock throughput of unmodified protocols on real cores.
//
// The simulator measures the paper's quantity (messages through the
// bottleneck); this bench measures what the bottleneck costs in wall
// time. Each selected counter runs the workload driver against the
// threaded runtime at every worker count in --workers_list, and we
// report increments/second plus client-observed latency percentiles.
// The runtime verifies exactness as it goes: the returned values must
// be a permutation of 0..m-1 and the protocol must pass its own
// quiescence audit, so a row in this table is also a correctness run.
//
// Counters that decline sharded execution (shard_safe() == false) are
// skipped at W > 1 rather than run unsoundly.
//
// Emits a JSON baseline (default BENCH_throughput.json; the checked-in
// copy at the repo root is the reference measurement).
//
// Each run starts with --warmup unrecorded operations (run to
// quiescence, metrics reset after) so thread wakeups, buffer growth and
// page faults do not land in the measured percentiles — that cold-start
// was the old workers=1 p99 = 1795µs artifact. The table ends with a
// per-counter scaling line (ops/s at the largest worker count vs 1),
// also emitted to the JSON, so a scaling regression is visible right in
// the baseline trajectory.
//
// Open-loop traffic-engine rows (--rates non-empty): each counter runs
// the open-loop generator at every rate in --rates, on a deterministic
// arrival timeline (--shape=constant|burst|diurnal), with latency
// measured from each op's *scheduled* arrival — coordinated omission
// cannot hide a backlog. Rows report p50..p99.99 + max plus SLO
// attainment (--slo_us; the table prints "—" when it is unset) and land
// in an "open_loop" JSON array. Large runs (> --exact_cap ops) record
// into the O(buckets) HDR histogram.
// --open_ops_list sweeps run length at fixed rate: at a rate above
// capacity, p99 growing with run length is the open-loop saturation
// signature the closed loop structurally cannot show.
//
// Concurrency-plane rows (CONC, --inflight_list non-empty): closed-loop
// runs where every client slot keeps --inflight ops outstanding (window
// = concurrency * inflight), the per-op (invoke, response, value)
// history is captured live, and check_linearizable runs over it after
// quiescence. The table re-ranks the counters as the overlap deepens
// and reports each row's linearizability verdict: serializing counters
// (tree, central, combining) must show zero violations at every depth
// (enforced — the row aborts otherwise), while the diffracting tree is
// only quiescently consistent and MAY invert real-time order. The
// section ends with elastic-tree rows: a scripted k=2 -> k=3 migration
// fires mid-run and the run completing proves value exactness across
// the resize (resz column = completed migrations, enforced >= 1).
//
// Flags: --counters=tree,central,combining,diffracting
//        --workers_list=1,2,4,8 (0 = auto: --threads, DCNT_THREADS, or
//        all cores) --n=16 --ops_factor=16 --concurrency=16
//        --warmup=256 --dist=roundrobin|uniform|zipf --zipf_s=0.9
//        --open_rate=0 --seed=7 --out=BENCH_throughput.json
//        --rates= --open_ops_list=1000000 --open_workers=0
//        --open_counters= (default: --counters; the checked-in baseline
//        restricts open rows to central, whose cost per outstanding op
//        is flat — a tree hit with a 10^5-op backlog thrashes, which is
//        a finding, not a baseline)
//        --shape=constant --period=1 --amplitude=0.5 --duty=0.5
//        --duration=0 --slo_us=0 --exact_cap=65536
//        --quick (tiny closed+open sweep for the ctest smoke)
//
// SHM re-ranking rows (--shm_threads_list non-empty, the default): the
// silicon side of the same question. The shared-memory counters
// (src/shm/: shm-atomic, shm-flat, shm-funnel, shm-sharded) sweep
// threads x F x placement next to the message-passing protocols
// (--shm_msg_counters) at the SAME F, closed and open loop, pinned
// (--placement compact) and unpinned — the EXPERIMENTS.md SHM table.
// Every shm row's live history is checked (ticket criterion, or the
// inc/read criterion for shm-sharded) and ENFORCED linearizable; a
// placement that cannot pin on this host reports pin=0 rather than
// failing. --counters also accepts shm-* names directly (closed sweep,
// placement from --placement/--pin), e.g.
//   bench_throughput --counters=shm-atomic,shm-flat --pin
// Flags: --shm_counters=shm-atomic,shm-flat,shm-funnel,shm-sharded
//        --shm_threads_list=1,2,4 --shm_inflight_list=1,64
//        --shm_placements=none,compact --shm_msg_counters=tree,central,
//        combining --shm_ops=32768 --shm_rate=200000
//        --placement=none|compact|scatter|tree --pin (= compact)
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "traffic/recorder.hpp"

#include "bench_util.hpp"
#include "concurrent/elastic_tree.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "shm/shm_harness.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace dcnt;

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "THRU: wall-clock inc throughput on the threaded runtime",
      {"amplitude", "conc_counters", "conc_workers", "concurrency",
       "counters", "dist", "duration", "duty", "exact_cap", "inflight_list",
       "n", "open_counters", "open_ops_list", "open_rate", "open_workers",
       "ops_factor", "out", "period", "pin", "placement", "quick", "rates",
       "seed", "shape", "shm_counters", "shm_inflight_list",
       "shm_msg_counters", "shm_ops", "shm_placements", "shm_rate",
       "shm_threads_list", "slo_us", "threads", "warmup", "workers_list",
       "zipf_s"});
  const bool quick = flags.get_bool("quick", false);
  const auto counters = parse_string_list(flags.get_string(
      "counters", quick ? "tree,central" : "tree,central,combining,diffracting"));
  const auto workers_list = parse_int_list(
      flags.get_string("workers_list", quick ? "1,2" : "1,2,4,8"));
  const std::int64_t n = flags.get_int("n", quick ? 8 : 16);
  const std::int64_t ops_factor = flags.get_int("ops_factor", quick ? 2 : 16);
  const auto concurrency =
      static_cast<std::size_t>(flags.get_int("concurrency", quick ? 8 : 16));
  const std::string dist = flags.get_string("dist", "roundrobin");
  const double zipf_s = flags.get_double("zipf_s", 0.9);
  const double open_rate = flags.get_double("open_rate", 0.0);
  const auto warmup =
      static_cast<std::size_t>(flags.get_int("warmup", quick ? 64 : 256));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::string out = flags.get_string("out", "BENCH_throughput.json");
  // Open-loop traffic-engine sweep. --quick exercises the whole path —
  // constant and burst shapes, SLO accounting, and the HDR recorder
  // (exact_cap forced under the op count) — in well under a second.
  const auto rates = parse_double_list(
      flags.get_string("rates", quick ? "20000" : ""));
  // Open rows may target a subset of the closed-sweep counters: the
  // over-saturation series needs a counter whose per-outstanding-op
  // cost is flat (central), while the closed sweep keeps them all.
  const auto open_counters = parse_string_list(
      flags.get_string("open_counters", flags.get_string(
          "counters", quick ? "tree,central"
                            : "tree,central,combining,diffracting")));
  const auto open_ops_list = parse_int_list(
      flags.get_string("open_ops_list", quick ? "4000" : "1000000"));
  const auto open_workers =
      static_cast<std::size_t>(flags.get_int("open_workers", 0));
  const std::string shape = flags.get_string("shape", "constant");
  const double period = flags.get_double("period", 1.0);
  const double amplitude = flags.get_double("amplitude", 0.5);
  const double duty = flags.get_double("duty", 0.5);
  const double duration = flags.get_double("duration", 0.0);
  const double slo_us = flags.get_double("slo_us", quick ? 1000.0 : 0.0);
  const auto exact_cap = static_cast<std::size_t>(flags.get_int(
      "exact_cap",
      quick ? 1024
            : static_cast<std::int64_t>(
                  dcnt::traffic::TailRecorder::kDefaultExactCap)));
  // CONC sweep: in-flight depths per closed-loop slot. Empty disables
  // the section.
  const auto inflight_list = parse_int_list(flags.get_string(
      "inflight_list", quick ? "1,8" : "1,8,64,256"));
  const auto conc_counters = parse_string_list(flags.get_string(
      "conc_counters", quick ? "tree,central,diffracting"
                             : "tree,central,combining,diffracting"));
  const auto conc_workers =
      static_cast<std::size_t>(flags.get_int("conc_workers", quick ? 2 : 4));
  // SHM re-ranking sweep: --pin is shorthand for --placement compact;
  // an explicit --placement wins.
  const Placement placement = placement_from_string(flags.get_string(
      "placement", flags.get_bool("pin", false) ? "compact" : "none"));
  const auto shm_counters = parse_string_list(flags.get_string(
      "shm_counters", "shm-atomic,shm-flat,shm-funnel,shm-sharded"));
  const auto shm_threads_list = parse_int_list(
      flags.get_string("shm_threads_list", quick ? "1,2" : "1,2,4"));
  const auto shm_inflight_list =
      parse_int_list(flags.get_string("shm_inflight_list", "1,64"));
  const auto shm_placements = parse_string_list(
      flags.get_string("shm_placements", "none,compact"));
  const auto shm_msg_counters = parse_string_list(flags.get_string(
      "shm_msg_counters", quick ? "tree,central" : "tree,central,combining"));
  const auto shm_ops = static_cast<std::size_t>(
      flags.get_int("shm_ops", quick ? 2048 : 32768));
  const double shm_rate =
      flags.get_double("shm_rate", quick ? 20000.0 : 200000.0);

  // Every message-passing row's options: the shared load fields, then
  // whatever the row sets on top.
  const auto throughput_options = [&](std::size_t workers, std::size_t ops,
                                      std::size_t inflight) {
    ThroughputOptions options;
    options.workers = workers;
    options.ops = ops;
    options.concurrency = concurrency;
    options.inflight = inflight;
    options.initiators = dist;
    options.zipf_s = zipf_s;
    options.seed = seed;
    options.warmup = warmup;
    return options;
  };

  Table table({"counter", "n", "W", "ops", "inc/s", "p50_us", "p95_us",
               "p99_us", "max_load", "total_msgs"});
  std::vector<ThroughputResult> results;
  for (const std::string& name : counters) {
    if (shm::is_shm_counter_name(name)) {
      // Shared-memory counters ride the same closed sweep: W means
      // driving threads, coherence messages are invisible to Metrics so
      // max_load/total_msgs report 0.
      const shm::ShmKind kind = shm::shm_kind_from_string(name);
      for (const std::int64_t w : workers_list) {
        shm::ShmOptions options;
        options.threads =
            w == 0 ? threads_from_flags(flags) : static_cast<std::size_t>(w);
        options.ops = shm_ops;
        options.warmup = warmup;
        options.seed = seed;
        options.placement = placement;
        const ThroughputResult res = run_shm_throughput(kind, options);
        DCNT_CHECK_MSG(res.lin_checked && res.linearizable,
                       "shm counter produced a non-linearizable history");
        results.push_back(res);
        table.row()
            .add(res.counter)
            .add(static_cast<std::int64_t>(res.n))
            .add(static_cast<std::int64_t>(res.workers))
            .add(static_cast<std::int64_t>(res.ops))
            .add(res.ops_per_sec, 0)
            .add(res.p50_us, 1)
            .add(res.p95_us, 1)
            .add(res.p99_us, 1)
            .add(res.max_load)
            .add(res.total_messages);
      }
      continue;
    }
    const CounterKind kind = counter_kind_from_string(name);
    for (const std::int64_t w : workers_list) {
      // 0 = the shared process-wide knob (--threads / DCNT_THREADS).
      const std::size_t workers =
          w == 0 ? threads_from_flags(flags) : static_cast<std::size_t>(w);
      auto protocol = make_counter(kind, n);
      if (workers > 1 && !protocol->shard_safe()) {
        std::cout << "skip: " << protocol->name() << " at W=" << workers
                  << " (not shard-safe)\n";
        continue;
      }
      ThroughputOptions options = throughput_options(
          workers,
          static_cast<std::size_t>(ops_factor) * protocol->num_processors(),
          1);
      options.open_rate = open_rate;
      const ThroughputResult res = run_throughput(std::move(protocol), options);
      results.push_back(res);
      table.row()
          .add(res.counter)
          .add(static_cast<std::int64_t>(res.n))
          .add(static_cast<std::int64_t>(res.workers))
          .add(static_cast<std::int64_t>(res.ops))
          .add(res.ops_per_sec, 0)
          .add(res.p50_us, 1)
          .add(res.p95_us, 1)
          .add(res.p99_us, 1)
          .add(res.max_load)
          .add(res.total_messages);
    }
  }
  table.print(std::cout,
              "THRU: closed-loop increments/second on real threads (" + dist +
                  " initiators; every run verified exact)");

  // Scaling check: ops/s at the largest measured worker count relative
  // to one worker. >= 1.0 means adding workers does not cost throughput
  // (the acceptance bar on this box); the old runtime sat well below it.
  struct ScalingRow {
    std::size_t w_lo{0}, w_hi{0};
    double lo{0.0}, hi{0.0};
  };
  std::map<std::string, ScalingRow> scaling;
  for (const ThroughputResult& r : results) {
    ScalingRow& row = scaling[r.counter];
    if (row.w_lo == 0 || r.workers < row.w_lo) {
      row.w_lo = r.workers;
      row.lo = r.ops_per_sec;
    }
    if (r.workers > row.w_hi) {
      row.w_hi = r.workers;
      row.hi = r.ops_per_sec;
    }
  }
  for (const auto& [counter, row] : scaling) {
    if (row.w_hi <= row.w_lo || row.lo <= 0.0) continue;
    std::cout << "scaling " << counter << ": W=" << row.w_hi << " / W="
              << row.w_lo << " = " << row.hi / row.lo << "x\n";
  }

  // CONC: the concurrency plane. Each row keeps concurrency * F incs
  // outstanding, captures the live (invoke, response, value) history,
  // and runs check_linearizable over it after quiescence. Serializing
  // counters are *enforced* linearizable at every depth; the
  // diffracting tree is only quiescently consistent, so its verdict is
  // reported, not asserted. The final rows run the elastic tree with a
  // scripted k=2 -> k=3 migration; resz >= 1 is enforced, and the
  // permutation check inside run_throughput proves the values stayed
  // exact across the resize.
  struct ConcRow {
    ThroughputResult res;
    std::size_t inflight{0};
    std::size_t window{0};
    bool must_linearize{false};
  };
  std::vector<ConcRow> conc_rows;
  if (!inflight_list.empty()) {
    Table conc_table({"counter", "F", "window", "ops", "inc/s", "p50_us",
                      "p99_us", "lin", "viol", "resz"});
    const auto run_conc = [&](std::unique_ptr<CounterProtocol> protocol,
                              std::size_t inflight, bool must_linearize) {
      const std::size_t window = concurrency * inflight;
      // Enough ops that the window is the steady state, not the run.
      const ThroughputOptions options = throughput_options(
          conc_workers,
          std::max<std::size_t>(
              static_cast<std::size_t>(ops_factor) * protocol->num_processors(),
              4 * window),
          inflight);
      const ThroughputResult res = run_throughput(std::move(protocol), options);
      DCNT_CHECK_MSG(res.lin_checked, "CONC row skipped its history check");
      if (must_linearize) {
        DCNT_CHECK_MSG(res.linearizable,
                       "serializing counter produced a non-linearizable "
                       "history");
      }
      conc_rows.push_back(ConcRow{res, inflight, window, must_linearize});
      conc_table.row()
          .add(res.counter)
          .add(static_cast<std::int64_t>(inflight))
          .add(static_cast<std::int64_t>(window))
          .add(static_cast<std::int64_t>(res.ops))
          .add(res.ops_per_sec, 0)
          .add(res.p50_us, 1)
          .add(res.p99_us, 1)
          .add(res.linearizable ? "y" : "N")
          .add(res.lin_violations)
          .add(static_cast<std::int64_t>(res.elastic_resizes));
    };
    for (const std::string& name : conc_counters) {
      const CounterKind kind = counter_kind_from_string(name);
      for (const std::int64_t f : inflight_list) {
        auto protocol = make_counter(kind, n);
        if (conc_workers > 1 && !protocol->shard_safe()) continue;
        run_conc(std::move(protocol), static_cast<std::size_t>(f),
                 expected_linearizable(kind));
      }
    }
    for (const std::int64_t f : inflight_list) {
      concurrent::ElasticTreeParams params;
      params.initial_k = 2;
      params.min_k = 2;
      params.max_k = 3;
      // Low threshold so a round-robin schedule crosses it early: the
      // first processor to issue 16 ops into epoch 0 triggers the
      // scripted step.
      params.resize_period = 16;
      params.plan = {concurrent::ElasticStep{3, 0}};
      auto protocol = std::make_unique<concurrent::ElasticTreeCounter>(params);
      // The demo needs the migration threshold crossed well before the
      // run drains: every processor sees resize_period ops after
      // n * resize_period round-robin issues.
      const std::size_t floor_ops = 2 * protocol->num_processors() * 16;
      const ThroughputOptions options = throughput_options(
          conc_workers,
          std::max<std::size_t>(4 * concurrency * static_cast<std::size_t>(f),
                                floor_ops),
          static_cast<std::size_t>(f));
      const ThroughputResult res = run_throughput(std::move(protocol), options);
      DCNT_CHECK_MSG(res.lin_checked && res.linearizable,
                     "elastic tree produced a non-linearizable history");
      DCNT_CHECK_MSG(res.elastic_resizes >= 1,
                     "elastic demo row completed no migration");
      conc_rows.push_back(ConcRow{res, static_cast<std::size_t>(f),
                                  concurrency * static_cast<std::size_t>(f),
                                  true});
      conc_table.row()
          .add(res.counter)
          .add(f)
          .add(static_cast<std::int64_t>(concurrency *
                                         static_cast<std::size_t>(f)))
          .add(static_cast<std::int64_t>(res.ops))
          .add(res.ops_per_sec, 0)
          .add(res.p50_us, 1)
          .add(res.p99_us, 1)
          .add(res.linearizable ? "y" : "N")
          .add(res.lin_violations)
          .add(static_cast<std::int64_t>(res.elastic_resizes));
    }
    conc_table.print(
        std::cout,
        "CONC: overlapping in-flight incs (window = concurrency * F), "
        "check_linearizable over every measured history");
  }

  // SHM: the silicon re-ranking table. Shared-memory counters sweep
  // threads x F x placement; the message-passing protocols run at the
  // SAME F (and placements) through the threaded runtime, so one table
  // ranks a contended fetch_add against the paper's tree on the same
  // host. Closed-loop rows first, then one open-loop row per shm
  // counter at --shm_rate. Every shm row's live history is enforced
  // linearizable — the ticket criterion for the value-returning
  // counters, the inc/read criterion for shm-sharded (the paper's
  // theorem: exact sharding is only possible because incs return no
  // ticket).
  struct ShmRow {
    ThroughputResult res;
    std::string mode;  ///< "shm" or "msg"
    std::string loop;  ///< "closed" or "open"
    std::size_t inflight{0};
    double rate{0.0};
  };
  std::vector<ShmRow> shm_rows;
  if (!shm_threads_list.empty()) {
    Table shm_table({"counter", "mode", "loop", "T", "F", "place", "pin",
                     "ops", "inc/s", "p50_us", "p99_us", "lin", "viol"});
    const auto add_shm_row = [&](const ThroughputResult& res,
                                 const std::string& mode,
                                 const std::string& loop, std::size_t inflight,
                                 double rate) {
      shm_rows.push_back(ShmRow{res, mode, loop, inflight, rate});
      shm_table.row()
          .add(res.counter)
          .add(mode)
          .add(loop)
          .add(static_cast<std::int64_t>(res.workers))
          .add(static_cast<std::int64_t>(inflight))
          .add(res.placement)
          .add(static_cast<std::int64_t>(res.pinned_workers))
          .add(static_cast<std::int64_t>(res.ops))
          .add(res.ops_per_sec, 0)
          .add(res.p50_us, 1)
          .add(res.p99_us, 1)
          .add(res.linearizable ? "y" : "N")
          .add(res.lin_violations);
    };
    for (const std::string& name : shm_counters) {
      const shm::ShmKind kind = shm::shm_kind_from_string(name);
      for (const std::string& place : shm_placements) {
        const Placement policy = placement_from_string(place);
        for (const std::int64_t t : shm_threads_list) {
          for (const std::int64_t f : shm_inflight_list) {
            shm::ShmOptions options;
            options.threads = static_cast<std::size_t>(t);
            options.ops = shm_ops;
            options.inflight = static_cast<std::size_t>(f);
            options.warmup = warmup;
            options.seed = seed;
            options.placement = policy;
            const ThroughputResult res = run_shm_throughput(kind, options);
            DCNT_CHECK_MSG(
                res.lin_checked && res.linearizable,
                "shm counter produced a non-linearizable history");
            add_shm_row(res, "shm", "closed",
                        static_cast<std::size_t>(f), 0.0);
          }
        }
        // One open-loop row per (counter, placement) at the sweep's
        // largest thread count: does the ranking hold under scheduled
        // arrivals too?
        if (shm_rate > 0.0 && !shm_threads_list.empty()) {
          shm::ShmOptions options;
          options.threads =
              static_cast<std::size_t>(shm_threads_list.back());
          options.ops = std::min<std::size_t>(shm_ops, quick ? 1024 : 16384);
          options.open_rate = shm_rate;
          options.warmup = warmup;
          options.seed = seed;
          options.placement = policy;
          const ThroughputResult res = run_shm_throughput(kind, options);
          DCNT_CHECK_MSG(res.lin_checked && res.linearizable,
                         "shm counter produced a non-linearizable history");
          add_shm_row(res, "shm", "open", 1, shm_rate);
        }
      }
    }
    // The message-passing side of the ranking: same F, same placements,
    // driven through the threaded runtime. Serializing protocols are
    // enforced linearizable exactly as in CONC.
    for (const std::string& name : shm_msg_counters) {
      const CounterKind kind = counter_kind_from_string(name);
      for (const std::string& place : shm_placements) {
        for (const std::int64_t f : shm_inflight_list) {
          auto protocol = make_counter(kind, n);
          if (conc_workers > 1 && !protocol->shard_safe()) continue;
          const std::size_t window =
              concurrency * static_cast<std::size_t>(f);
          ThroughputOptions options = throughput_options(
              conc_workers,
              std::max<std::size_t>(static_cast<std::size_t>(ops_factor) *
                                        protocol->num_processors(),
                                    4 * window),
              static_cast<std::size_t>(f));
          options.placement = placement_from_string(place);
          const ThroughputResult res =
              run_throughput(std::move(protocol), options);
          DCNT_CHECK_MSG(res.lin_checked, "SHM msg row skipped its check");
          if (expected_linearizable(kind)) {
            DCNT_CHECK_MSG(res.linearizable,
                           "serializing counter produced a non-linearizable "
                           "history");
          }
          add_shm_row(res, "msg", "closed", static_cast<std::size_t>(f),
                      0.0);
        }
      }
    }
    shm_table.print(
        std::cout,
        "SHM: silicon re-ranking — shared-memory counters vs "
        "message-passing protocols, pinned and unpinned (every shm row's "
        "history enforced linearizable)");
  }

  // Open-loop traffic-engine rows: every (counter, rate, op-budget)
  // triple runs the scheduled-arrival generator; --quick adds a burst
  // row so both modulated shapes stay exercised in the smoke.
  struct OpenRow {
    ThroughputResult res;
    double rate{0.0};
    std::string shape;
    std::size_t requested{0};
  };
  std::vector<OpenRow> open_rows;
  if (!rates.empty()) {
    Table open_table({"counter", "rate/s", "shape", "ops", "inc/s", "p50_us",
                      "p99_us", "p999_us", "p9999_us", "max_us", "slo%",
                      "hdr"});
    std::vector<std::string> shapes{shape};
    if (quick && shape == "constant") shapes.push_back("burst");
    for (const std::string& name : open_counters) {
      const CounterKind kind = counter_kind_from_string(name);
      for (const double rate : rates) {
        for (const std::int64_t open_ops : open_ops_list) {
          for (const std::string& shape_name : shapes) {
            auto protocol = make_counter(kind, n);
            if (open_workers > 1 && !protocol->shard_safe()) continue;
            ThroughputOptions options = throughput_options(
                open_workers, static_cast<std::size_t>(open_ops), 1);
            options.open_rate = rate;
            options.shape = shape_name;
            options.period_s = period;
            options.amplitude = amplitude;
            options.duty = duty;
            options.duration_s = duration;
            options.slo_us = slo_us;
            options.exact_cap = exact_cap;
            const ThroughputResult res =
                run_throughput(std::move(protocol), options);
            open_rows.push_back(OpenRow{res, rate, shape_name,
                                        static_cast<std::size_t>(open_ops)});
            open_table.row()
                .add(res.counter)
                .add(rate, 0)
                .add(shape_name)
                .add(static_cast<std::int64_t>(res.ops))
                .add(res.ops_per_sec, 0)
                .add(res.p50_us, 1)
                .add(res.p99_us, 1)
                .add(res.p999_us, 1)
                .add(res.p9999_us, 1)
                .add(res.max_us, 1)
                .add(res.slo_us > 0.0
                         ? format_double(100.0 * res.slo_attainment, 2)
                         : std::string("—"))
                .add(res.hdr_recorder ? "y" : "n");
          }
        }
      }
    }
    open_table.print(
        std::cout,
        "THRU-OPEN: open-loop tails, latency from scheduled arrival "
        "(coordinated-omission-free; every run verified exact)");
  }

  JsonWriter json(out);
  json.field("bench", "throughput");
  json.field("dist", dist);
  json.field("ops_factor", ops_factor);
  json.field("concurrency", concurrency);
  json.field("open_rate", open_rate, 1);
  json.field("warmup", warmup);
  json.field("seed", seed);
  json.field("hardware_threads", default_thread_count());
  json.begin_array("throughput");
  for (const ThroughputResult& r : results) {
    json.begin_object();
    json.field("counter", r.counter);
    json.field("n", r.n);
    json.field("workers", r.workers);
    json.field("ops", r.ops);
    json.field("wall_seconds", r.wall_seconds, 4);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("mean_us", r.mean_us, 2);
    json.field("p50_us", r.p50_us, 2);
    json.field("p95_us", r.p95_us, 2);
    json.field("p99_us", r.p99_us, 2);
    json.field("total_messages", r.total_messages);
    json.field("max_load", r.max_load);
    json.field("bottleneck", r.bottleneck);
    json.end_object();
  }
  json.end_array();
  json.begin_array("open_loop");
  for (const OpenRow& row : open_rows) {
    const ThroughputResult& r = row.res;
    json.begin_object();
    json.field("counter", r.counter);
    json.field("n", r.n);
    json.field("workers", r.workers);
    json.field("rate", row.rate, 1);
    json.field("shape", row.shape);
    json.field("ops_requested", row.requested);
    json.field("ops", r.ops);
    json.field("wall_seconds", r.wall_seconds, 4);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("mean_us", r.mean_us, 2);
    json.field("p50_us", r.p50_us, 2);
    json.field("p95_us", r.p95_us, 2);
    json.field("p99_us", r.p99_us, 2);
    json.field("p999_us", r.p999_us, 2);
    json.field("p9999_us", r.p9999_us, 2);
    json.field("max_us", r.max_us, 2);
    json.field("slo_us", r.slo_us, 1);
    json.field("slo_ok", r.slo_ok);
    json.field("slo_den", r.slo_den);
    json.field("slo_attainment", r.slo_attainment, 6);
    json.field("hdr_recorder", r.hdr_recorder ? 1 : 0);
    json.field("hdr_overflow", r.hdr_overflow);
    json.field("record_threads", r.record_threads);
    json.field("total_messages", r.total_messages);
    json.field("max_load", r.max_load);
    json.end_object();
  }
  json.end_array();
  json.begin_array("concurrent");
  for (const ConcRow& row : conc_rows) {
    const ThroughputResult& r = row.res;
    json.begin_object();
    json.field("counter", r.counter);
    json.field("n", r.n);
    json.field("workers", r.workers);
    json.field("inflight", row.inflight);
    json.field("window", row.window);
    json.field("ops", r.ops);
    json.field("wall_seconds", r.wall_seconds, 4);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("mean_us", r.mean_us, 2);
    json.field("p50_us", r.p50_us, 2);
    json.field("p99_us", r.p99_us, 2);
    json.field("p999_us", r.p999_us, 2);
    json.field("expected_linearizable", row.must_linearize ? 1 : 0);
    json.field("linearizable", r.linearizable ? 1 : 0);
    json.field("lin_violations", r.lin_violations);
    json.field("elastic_resizes", r.elastic_resizes);
    json.field("elastic_epochs", r.elastic_epochs);
    json.field("elastic_final_k", r.elastic_final_k);
    json.field("total_messages", r.total_messages);
    json.field("max_load", r.max_load);
    json.end_object();
  }
  json.end_array();
  json.begin_array("shm");
  for (const ShmRow& row : shm_rows) {
    const ThroughputResult& r = row.res;
    json.begin_object();
    json.field("counter", r.counter);
    json.field("mode", row.mode);
    json.field("loop", row.loop);
    json.field("threads", r.workers);
    json.field("inflight", row.inflight);
    json.field("placement", r.placement);
    json.field("pinned_workers", r.pinned_workers);
    json.field("placement_supported", r.placement_supported ? 1 : 0);
    json.field("rate", row.rate, 1);
    json.field("ops", r.ops);
    json.field("wall_seconds", r.wall_seconds, 4);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("mean_us", r.mean_us, 2);
    json.field("p50_us", r.p50_us, 2);
    json.field("p99_us", r.p99_us, 2);
    json.field("linearizable", r.linearizable ? 1 : 0);
    json.field("lin_violations", r.lin_violations);
    json.field("record_threads", r.record_threads);
    json.end_object();
  }
  json.end_array();
  json.begin_array("scaling");
  for (const auto& [counter, row] : scaling) {
    if (row.w_hi <= row.w_lo || row.lo <= 0.0) continue;
    json.begin_object();
    json.field("counter", counter);
    json.field("workers_lo", row.w_lo);
    json.field("workers_hi", row.w_hi);
    json.field("ratio", row.hi / row.lo, 3);
    json.end_object();
  }
  json.end_array();
  return 0;
}
