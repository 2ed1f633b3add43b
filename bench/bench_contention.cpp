// CONC — load concentration across implementations, in the spirit of
// Dwork, Herlihy & Waarts' contention framework [DHW93] (paper, Related
// Work). The bottleneck (max load) is the paper's measure; Gini and
// top-share describe how the *rest* of the traffic is spread. Expected
// shape: the central counter concentrates ~half of all message handling
// on one processor (Gini -> 1); the tree counter spreads it almost
// uniformly (Gini small, top-1% share ~ its population share).
//
// Flags: --sizes=81,256,1024 --seed=6
#include <iostream>

#include "bench_util.hpp"
#include "analysis/concentration.hpp"
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
      "CONC: load concentration across counter implementations",
      {"seed", "sizes"});
  const auto sizes = parse_int_list(flags.get_string("sizes", "81,256,1024"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6));

  Table table({"counter", "n", "max_load", "max/mean", "gini", "top1%",
               "top10%"});
  for (const std::int64_t n : sizes) {
    for (const CounterKind kind : all_counter_kinds()) {
      SimConfig cfg;
      cfg.seed = seed;
      cfg.delay = DelayModel::uniform(1, 8);
      Simulator sim(make_counter(kind, n), cfg);
      const auto actual_n = static_cast<std::int64_t>(sim.num_processors());
      run_sequential(sim, schedule_sequential(actual_n));
      const auto report = concentration(sim.metrics());
      table.row()
          .add(to_string(kind))
          .add(actual_n)
          .add(sim.metrics().max_load())
          .add(report.max_over_mean, 1)
          .add(report.gini, 3)
          .add(report.top1_share, 3)
          .add(report.top10_share, 3);
    }
  }
  table.print(std::cout,
              "CONC: message-load concentration (one inc per processor, "
              "sequential)");
  std::cout << "\nshape: central gini -> 1 (one processor does ~half of all "
               "handling);\ntree stays near-uniform while still meeting the "
               "Omega(k) floor.\n";
  return 0;
}
