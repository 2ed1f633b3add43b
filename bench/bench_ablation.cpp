// ABL-THRESH / ABL-FANOUT — design-choice ablations for the paper's
// counter (DESIGN.md §6).
//
// 1. Retirement age threshold. The paper retires at Theta(k). We sweep
//    the threshold from the minimal *stable* value k+2 (thresholds
//    <= k+1 diverge: each retirement ages k+1 neighbours by 1, so the
//    cascade's reproduction factor (k+1)/T reaches 1 — a "retirement
//    storm") through 2k, 4k (our default), 8k, and infinity (the
//    static tree). Small thresholds buy nothing and wrap pools; huge
//    thresholds collapse to the Theta(n) hot spot. The sweet spot is
//    Theta(k), as the paper chose.
//
// 2. Fan-out at fixed n. The paper couples fan-out and depth through
//    k^(k+1) = n. We build trees with fan-out f != k over the same
//    processor count (rounding n as needed) to show k is the right
//    balance between path length (messages per op ~ depth) and
//    per-node traffic (~ fan-out).
//
// 3. Handover-in-age accounting variant.
//
// Flags: --k=4 --seed=3
#include <iostream>
#include <limits>

#include "bench_util.hpp"
#include "analysis/report.hpp"
#include "baselines/combining_tree.hpp"
#include "core/bound.hpp"
#include "core/tree_counter.hpp"
#include "harness/runner.hpp"
#include <algorithm>
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace dcnt;

namespace {

LoadReport run_tree(TreeCounterParams params, std::uint64_t seed,
                    TreeCounterStats* stats_out) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.delay = DelayModel::uniform(1, 8);
  Simulator sim(std::make_unique<TreeCounter>(params), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  run_sequential(sim, schedule_sequential(n));
  if (stats_out != nullptr) {
    *stats_out = dynamic_cast<const TreeCounter&>(sim.counter()).stats();
  }
  return make_load_report(sim);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "ABL-THRESH / ABL-FANOUT: tree design-choice ablations (retirement threshold, fanout)",
      {"k", "seed"});
  const int k = static_cast<int>(flags.get_int("k", 4));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));

  {
    Table table({"threshold", "max_load", "mean_load", "total_msgs",
                 "retirements", "pool_wraps"});
    std::vector<std::pair<std::string, std::int64_t>> thresholds = {
        {"k+2 (min stable)", k + 2},
        {"2k (paper)", 2 * k},
        {"4k (default)", 4 * k},
        {"8k", 8 * k},
        {"16k", 16 * k},
        {"inf (static)", std::numeric_limits<std::int64_t>::max()},
    };
    for (const auto& [label, threshold] : thresholds) {
      TreeCounterParams params;
      params.k = k;
      params.age_threshold = threshold;
      TreeCounterStats stats;
      const LoadReport report = run_tree(params, seed, &stats);
      table.row()
          .add(label)
          .add(report.max_load)
          .add(report.mean_load, 2)
          .add(report.total_messages)
          .add(stats.retirements_total)
          .add(stats.pool_wraps);
    }
    table.print(std::cout,
                "ABL-THRESH: retirement age threshold at k=" +
                    std::to_string(k) +
                    " (n=" + std::to_string(tree_size_for_k(k)) +
                    "); thresholds <= k+1 diverge and are omitted");
  }

  {
    // Fan-out sweep near the paper's optimum: same (order of) n, vary f.
    Table table({"fanout f", "n (=f^(f+1) rounded)", "depth", "max_load",
                 "mean_load", "max/k(n)"});
    for (int f = 2; f <= 6; ++f) {
      TreeCounterParams params;
      params.k = f;
      TreeCounterStats stats;
      const LoadReport report = run_tree(params, seed, &stats);
      table.row()
          .add(f)
          .add(report.n)
          .add(f + 1)
          .add(report.max_load)
          .add(report.mean_load, 2)
          .add(report.load_per_k, 2);
    }
    table.print(std::cout,
                "ABL-FANOUT: the paper's coupling f = k(n) keeps max/k(n) "
                "constant across scales — fan-out is not a free parameter "
                "but the solution of f^(f+1) = n");
  }

  {
    Table table({"variant", "max_load", "retirements", "total_msgs"});
    for (const bool in_age : {false, true}) {
      TreeCounterParams params;
      params.k = k;
      params.count_handover_in_age = in_age;
      TreeCounterStats stats;
      const LoadReport report = run_tree(params, seed, &stats);
      table.row()
          .add(in_age ? "handover ages successor" : "handover free (paper)")
          .add(report.max_load)
          .add(stats.retirements_total)
          .add(report.total_messages);
    }
    table.print(std::cout, "ABL: handover accounting variant at k=" +
                               std::to_string(k));
  }

  {
    // Combining-window ablation (combining tree, concurrent batch):
    // window 0 only merges requests stuck behind an in-flight one —
    // with fan-in 2 and a one-shot workload that never happens, so the
    // root still sees ~n requests. A short window collapses the batch.
    const std::int64_t n = 256;
    Table table({"window", "combined (merged)", "root-ish max_load",
                 "total_msgs", "drain time"});
    for (const SimTime window : {0, 2, 8, 32, 128}) {
      CombiningTreeParams params;
      params.n = n;
      params.fanout = 2;
      params.window = window;
      SimConfig cfg;
      cfg.seed = seed;
      cfg.delay = DelayModel::uniform(1, 8);
      Simulator sim(std::make_unique<CombiningTreeCounter>(params), cfg);
      run_concurrent(sim, schedule_sequential(n),
                     static_cast<std::size_t>(n));
      const auto& tree =
          dynamic_cast<const CombiningTreeCounter&>(sim.counter());
      SimTime drain = 0;
      for (OpId op = 0; op < static_cast<OpId>(sim.ops_completed()); ++op) {
        drain = std::max(drain, sim.op_responded_at(op));
      }
      table.row()
          .add(static_cast<std::int64_t>(window))
          .add(tree.combined_requests())
          .add(sim.metrics().load(tree.node_pid(tree.root_node())))
          .add(sim.metrics().total_messages())
          .add(static_cast<std::int64_t>(drain));
    }
    table.print(std::cout,
                "ABL-WINDOW: combining window under one concurrent batch "
                "(n=256, fan-in 2) — merging trades latency for root "
                "relief");
  }
  return 0;
}
