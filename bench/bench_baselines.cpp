// CMP — the landscape the paper's introduction motivates: the
// message-optimal centralized counter "does not scale — the single
// processor handling the counter value will be a bottleneck", while
// the related-work structures (combining trees, counting networks,
// diffracting trees, quorums) spread the load in different ways, and
// the paper's tree counter achieves the optimal O(k).
//
// For each counter and each n we run one inc per processor
// (sequentially, the paper's model) and report bottleneck load, mean
// load, and total messages. Expected shape:
//   central / static-tree / diffracting root : bottleneck Theta(n)
//   counting network                         : Theta(n / width)
//   quorum counters                          : Theta(sqrt(n)..n)
//   tree (paper)                             : Theta(k) = Theta(log n / log log n)
//
// A second table re-runs everything under *concurrent* batches to show
// what combining/diffraction buy in the dimension the paper
// deliberately excludes (contention in time), without changing the
// sequential-model conclusion.
//
// Flags: --sizes=64,256,1024 --seed=5 --batch=32
#include <iostream>

#include "bench_util.hpp"
#include "analysis/report.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace dcnt;

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "CMP: bottleneck landscape across counter implementations",
      {"batch", "seed", "sizes"});
  const auto sizes = parse_int_list(flags.get_string("sizes", "64,256,1024"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 32));

  Table table({"counter", "n", "k(n)", "max_load", "max/k", "mean_load",
               "p99", "total_msgs", "mean latency"});
  for (const std::int64_t n : sizes) {
    for (const CounterKind kind : all_counter_kinds()) {
      SimConfig cfg;
      cfg.seed = seed;
      cfg.delay = DelayModel::uniform(1, 8);
      Simulator sim(make_counter(kind, n), cfg);
      const auto actual_n = static_cast<std::int64_t>(sim.num_processors());
      const RunResult run = run_sequential(sim, schedule_sequential(actual_n));
      const LoadReport report = make_load_report(sim);
      table.row()
          .add(to_string(kind))
          .add(actual_n)
          .add(report.paper_k, 2)
          .add(report.max_load)
          .add(report.load_per_k, 1)
          .add(report.mean_load, 2)
          .add(report.p99)
          .add(report.total_messages)
          .add(run.mean_us, 1);
    }
  }
  table.print(std::cout,
              "CMP: one inc per processor, sequential (the paper's model) — "
              "bottleneck by design");

  Table conc({"counter", "n", "max_load(seq)", "max_load(conc)",
              "total_msgs(conc)"});
  const std::int64_t n = sizes.back();
  for (const CounterKind kind : all_counter_kinds()) {
    if (!supports_concurrency(kind)) continue;
    SimConfig cfg;
    cfg.seed = seed;
    cfg.delay = DelayModel::uniform(1, 8);
    Simulator seq(make_counter(kind, n), cfg);
    const auto actual_n = static_cast<std::int64_t>(seq.num_processors());
    run_sequential(seq, schedule_sequential(actual_n));
    Simulator par(make_counter(kind, n), cfg);
    run_concurrent(par, schedule_sequential(actual_n), batch);
    conc.row()
        .add(to_string(kind))
        .add(actual_n)
        .add(seq.metrics().max_load())
        .add(par.metrics().max_load())
        .add(par.metrics().total_messages());
  }
  conc.print(std::cout,
             "CMP (extension): concurrent batches — combining/diffraction "
             "attack contention in time, orthogonal to the paper's "
             "aggregate-load bound");
  return 0;
}
