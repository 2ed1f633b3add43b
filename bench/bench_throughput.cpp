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
// copy at the repo root is the reference measurement). The sections run
// in the file's order — throughput, open_loop, concurrent, shm — and
// each prints its table and writes its JSON array from the same rows
// through one column list (bench_util.hpp's emit); the scaling section
// is derived from the throughput rows.
//
// Each run starts with --warmup unrecorded operations (run to
// quiescence, metrics reset after) so thread wakeups, buffer growth and
// page faults do not land in the measured percentiles. The last table
// is the per-counter scaling ratio (ops/s at the largest worker count
// over the smallest), also in the JSON, so a scaling regression is
// visible right in the baseline trajectory.
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
// only quiescently consistent and MAY invert real-time order.
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
// placement from --placement), e.g.
//   bench_throughput --counters=shm-atomic,shm-flat --placement=compact
// Flags: --shm_counters=shm-atomic,shm-flat,shm-funnel,shm-sharded
//        --shm_threads_list=1,2,4 --shm_inflight_list=1,64
//        --shm_placements=none,compact --shm_msg_counters=tree,central,
//        combining --shm_ops=32768 --shm_rate=200000
//        --placement=none|compact
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "traffic/recorder.hpp"

#include "bench_util.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "shm/shm_harness.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/thread_pool.hpp"

using namespace dcnt;

using ThruRow = BenchRow<LoadOptions, ThroughputResult>;

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "THRU: wall-clock inc throughput on the threaded runtime",
      {"amplitude", "conc_counters", "conc_workers", "concurrency",
       "counters", "dist", "duration", "duty", "exact_cap", "inflight_list",
       "n", "open_counters", "open_ops_list", "open_rate", "open_workers",
       "ops_factor", "out", "period", "placement", "quick", "rates",
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
  const Placement placement =
      placement_from_string(flags.get_string("placement", "none"));
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
  // Message-passing rows run on the threaded runtime (mode "msg").
  const auto run_msg = [&](const std::string& name,
                           const ThroughputOptions& options) {
    ThroughputResult res = run_throughput(
        make_counter(counter_kind_from_string(name), n), options);
    return ThruRow{"msg", res.workers, options, std::move(res)};
  };
  // Every shm row's live history is enforced linearizable — the ticket
  // criterion for the value-returning counters, the inc/read criterion
  // for shm-sharded.
  const auto run_shm = [](shm::ShmKind kind, const shm::ShmOptions& options) {
    ThruRow row{"shm", options.threads, {}, run_shm_throughput(kind, options)};
    DCNT_CHECK_MSG(row.result.lin_checked && row.result.linearizable,
                   "shm counter produced a non-linearizable history");
    row.load.ops = options.ops;
    row.load.inflight = options.inflight;
    row.load.warmup = options.warmup;
    row.load.open_rate = options.open_rate;
    row.load.seed = options.seed;
    return row;
  };
  // The columns only THRU reports; the shared ones come from
  // harness_columns. CONC rows record whether their counter must
  // linearize, keyed by the protocol name the result carries.
  std::map<std::string, bool> must_linearize;
  using C = Columns<ThruRow>;
  using T = ThroughputResult;
  const auto columns = harness_columns<ThruRow>({
      C::result("workers", "W", &T::workers),
      C::result("threads", "T", &T::workers),
      {"loop", "loop", 0,
       [](const ThruRow& r) {
         return to_cell(r.load.open_rate > 0.0 ? "open" : "closed");
       }},
      C::result("placement", "place", &T::placement),
      C::result("pinned_workers", "pin", &T::pinned_workers),
      C::result("placement_supported", "", &T::placement_supported),
      C::load("ops_requested", "", &LoadOptions::ops),
      {"expected_linearizable", "", 0,
       [&must_linearize](const ThruRow& r) {
         return to_cell(must_linearize.at(r.result.counter));
       }},
  });

  JsonWriter json(out);
  json.field("bench", "throughput");
  json.field("dist", dist);
  json.field("ops_factor", ops_factor);
  json.field("concurrency", concurrency);
  json.field("open_rate", open_rate, 1);
  json.field("warmup", warmup);
  json.field("seed", seed);
  json.field("hardware_threads", default_thread_count());

  // An empty sweep list disables its section: its counters run nothing.
  const std::vector<std::string> no_counters;
  std::vector<ThruRow> closed;
  for (const std::string& name : counters) {
    const bool is_shm = shm::is_shm_counter_name(name);
    const auto probe =
        is_shm ? nullptr : make_counter(counter_kind_from_string(name), n);
    for (const std::int64_t w : workers_list) {
      // 0 = the shared process-wide knob (--threads / DCNT_THREADS).
      const std::size_t workers =
          w == 0 ? threads_from_flags(flags) : static_cast<std::size_t>(w);
      if (is_shm) {
        // Shared-memory counters ride the same closed sweep: W means
        // driving threads, coherence messages are invisible to Metrics
        // so max_load/total_msgs report 0.
        shm::ShmOptions options;
        options.threads = workers;
        options.ops = shm_ops;
        options.warmup = warmup;
        options.seed = seed;
        options.placement = placement;
        closed.push_back(run_shm(shm::shm_kind_from_string(name), options));
        continue;
      }
      if (workers > 1 && !probe->shard_safe()) {
        std::cout << "skip: " << probe->name() << " at W=" << workers
                  << " (not shard-safe)\n";
        continue;
      }
      ThroughputOptions options = throughput_options(
          workers,
          static_cast<std::size_t>(ops_factor) * probe->num_processors(), 1);
      options.open_rate = open_rate;
      closed.push_back(run_msg(name, options));
    }
  }
  emit(json, "throughput",
       "THRU: closed-loop increments/second on real threads (" + dist +
           " initiators; every run verified exact)",
       columns,
       {{"counter* n* workers* ops* wall_seconds ops_per_sec* mean_us "
         "p50_us* p95_us* p99_us* total_messages* max_load* bottleneck"}},
       closed);

  // Scaling check: ops/s at the largest measured worker count relative
  // to the smallest. >= 1.0 means adding workers does not cost
  // throughput.
  using Span = std::pair<const ThroughputResult*, const ThroughputResult*>;
  std::map<std::string, Span> spans;
  for (const ThruRow& row : closed) {
    const ThroughputResult* r = &row.result;
    auto& [lo, hi] = spans.try_emplace(r->counter, r, r).first->second;
    if (r->workers < lo->workers) lo = r;
    if (r->workers > hi->workers) hi = r;
  }
  std::vector<Span> scaling;
  for (const auto& [counter, span] : spans) {
    const auto& [lo, hi] = span;
    if (hi->workers > lo->workers && lo->ops_per_sec > 0.0) {
      scaling.push_back(span);
    }
  }

  // Open-loop traffic-engine rows: every (counter, rate, op-budget)
  // triple runs the scheduled-arrival generator; --quick adds a burst
  // row so both modulated shapes stay exercised in the smoke.
  std::vector<ThruRow> open_rows;
  std::vector<std::string> shapes{shape};
  if (quick && shape == "constant") shapes.push_back("burst");
  // Without --rates the open counters are never parsed (they default to
  // --counters, which may name shm counters).
  for (const std::string& name : rates.empty() ? no_counters : open_counters) {
    const auto probe = make_counter(counter_kind_from_string(name), n);
    if (open_workers > 1 && !probe->shard_safe()) continue;
    for (const double rate : rates) {
      for (const std::int64_t open_ops : open_ops_list) {
        for (const std::string& shape_name : shapes) {
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
          open_rows.push_back(run_msg(name, options));
        }
      }
    }
  }
  emit(json, "open_loop",
       "THRU-OPEN: open-loop tails, latency from scheduled arrival "
       "(coordinated-omission-free; every run verified exact)",
       columns,
       {{"counter* n workers rate* shape* ops_requested ops* wall_seconds "
         "ops_per_sec* mean_us p50_us* p95_us p99_us* p999_us* p9999_us* "
         "max_us* slo_us slo_ok slo_den slo_attainment slo%* hdr_recorder "
         "hdr* hdr_overflow record_threads total_messages max_load"}},
       open_rows);

  // CONC: the concurrency plane. Each row keeps concurrency * F incs
  // outstanding, captures the live (invoke, response, value) history,
  // and runs check_linearizable over it after quiescence. Serializing
  // counters are *enforced* linearizable at every depth; the
  // diffracting tree is only quiescently consistent, so its verdict is
  // reported, not asserted.
  const auto run_window = [&](const std::string& name, std::int64_t f,
                              Placement policy) {
    const CounterKind kind = counter_kind_from_string(name);
    const auto inflight = static_cast<std::size_t>(f);
    // Enough ops that the window is the steady state, not the run.
    ThroughputOptions options = throughput_options(
        conc_workers,
        std::max<std::size_t>(static_cast<std::size_t>(ops_factor) *
                                  make_counter(kind, n)->num_processors(),
                              4 * concurrency * inflight),
        inflight);
    options.placement = policy;
    ThruRow row = run_msg(name, options);
    DCNT_CHECK_MSG(row.result.lin_checked,
                   "message-passing row skipped its history check");
    if (expected_linearizable(kind)) {
      DCNT_CHECK_MSG(row.result.linearizable,
                     "serializing counter produced a non-linearizable "
                     "history");
    }
    return row;
  };
  std::vector<ThruRow> conc_rows;
  for (const std::string& name :
       inflight_list.empty() ? no_counters : conc_counters) {
    const CounterKind kind = counter_kind_from_string(name);
    const auto probe = make_counter(kind, n);
    if (conc_workers > 1 && !probe->shard_safe()) continue;
    must_linearize[probe->name()] = expected_linearizable(kind);
    for (const std::int64_t f : inflight_list) {
      conc_rows.push_back(run_window(name, f, Placement::kNone));
    }
  }
  emit(json, "concurrent",
       "CONC: overlapping in-flight incs (window = concurrency * F), "
       "check_linearizable over every measured history",
       columns,
       {{"counter* n workers inflight* window* ops* wall_seconds "
         "ops_per_sec* mean_us p50_us* p99_us* p999_us expected_linearizable "
         "linearizable lin* lin_violations* total_messages max_load"}},
       conc_rows);

  // SHM: the silicon re-ranking table. Shared-memory counters sweep
  // threads x F x placement; the message-passing protocols run at the
  // SAME F (and placements) through the threaded runtime, so one table
  // ranks a contended fetch_add against the paper's tree on the same
  // host. Closed-loop rows first, then one open-loop row per shm
  // counter at --shm_rate.
  std::vector<ThruRow> shm_rows;
  for (const std::string& name :
       shm_threads_list.empty() ? no_counters : shm_counters) {
    const shm::ShmKind kind = shm::shm_kind_from_string(name);
    for (const std::string& place : shm_placements) {
      shm::ShmOptions options;
      options.warmup = warmup;
      options.seed = seed;
      options.placement = placement_from_string(place);
      for (const std::int64_t t : shm_threads_list) {
        for (const std::int64_t f : shm_inflight_list) {
          options.threads = static_cast<std::size_t>(t);
          options.ops = shm_ops;
          options.inflight = static_cast<std::size_t>(f);
          shm_rows.push_back(run_shm(kind, options));
        }
      }
      // One open-loop row per (counter, placement) at the sweep's
      // largest thread count: does the ranking hold under scheduled
      // arrivals too?
      if (shm_rate > 0.0) {
        options.threads = static_cast<std::size_t>(shm_threads_list.back());
        options.ops = std::min<std::size_t>(shm_ops, quick ? 1024 : 16384);
        options.inflight = 1;
        options.open_rate = shm_rate;
        shm_rows.push_back(run_shm(kind, options));
      }
    }
  }
  // The message-passing side of the ranking: same F, same placements,
  // driven through the threaded runtime. Serializing protocols are
  // enforced linearizable exactly as in CONC.
  for (const std::string& name :
       shm_threads_list.empty() ? no_counters : shm_msg_counters) {
    const auto probe = make_counter(counter_kind_from_string(name), n);
    if (conc_workers > 1 && !probe->shard_safe()) continue;
    for (const std::string& place : shm_placements) {
      for (const std::int64_t f : shm_inflight_list) {
        shm_rows.push_back(run_window(name, f, placement_from_string(place)));
      }
    }
  }
  emit(json, "shm",
       "SHM: silicon re-ranking — shared-memory counters vs "
       "message-passing protocols, pinned and unpinned (every shm row's "
       "history enforced linearizable)",
       columns,
       {{"counter* mode* loop* threads* inflight* placement* pinned_workers* "
         "placement_supported rate ops* wall_seconds ops_per_sec* mean_us "
         "p50_us* p99_us* linearizable lin* lin_violations* record_threads"}},
       shm_rows);

  emit(json, "scaling",
       "scaling: inc/s at the most workers over the fewest",
       std::vector<Column<Span>>{
           {"counter", "counter", 0,
            [](const Span& s) { return to_cell(s.first->counter); }},
           {"workers_lo", "W_lo", 0,
            [](const Span& s) { return to_cell(s.first->workers); }},
           {"workers_hi", "W_hi", 0,
            [](const Span& s) { return to_cell(s.second->workers); }},
           {"ratio", "ratio", 3,
            [](const Span& s) {
              return to_cell(s.second->ops_per_sec / s.first->ops_per_sec);
            }}},
       {{"counter* workers_lo* workers_hi* ratio*"}}, scaling);
  return 0;
}
