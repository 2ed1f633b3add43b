// DIFF — steady-state behaviour of the diffracting tree, after Shavit,
// Upfal & Zemach's analysis [SUZ96] (paper, Related Work): prism size
// and patience trade diffraction probability against added latency.
//
// Under one big concurrent batch we sweep prism slots and patience and
// report the diffraction rate (pairs removed from the toggle path), the
// root toggle's load, and the simulated drain time. Expected shape:
// more slots / more patience => more diffraction => lighter toggles,
// until excess patience just delays lone tokens.
//
// Flags: --n=256 --width=4 --seed=14
#include <iostream>
#include <algorithm>
#include <memory>

#include "bench_util.hpp"
#include "baselines/diffracting_tree.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace dcnt;

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "DIFF: diffracting-tree steady state vs width",
      {"n", "seed", "width"});
  const std::int64_t n = flags.get_int("n", 256);
  const int width = static_cast<int>(flags.get_int("width", 4));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 14));

  Table table({"slots", "patience", "diffracted pairs", "toggle passes",
               "root toggle load", "max_load", "drain time"});
  for (const int slots : {1, 2, 4, 8, 16}) {
    for (const SimTime patience : {2, 8, 32, 128}) {
      DiffractingTreeParams params;
      params.n = n;
      params.width = width;
      params.prism_slots = slots;
      params.patience = patience;
      SimConfig cfg;
      cfg.seed = seed;
      cfg.delay = DelayModel::uniform(1, 4);
      Simulator sim(std::make_unique<DiffractingTreeCounter>(params), cfg);
      run_concurrent(sim, schedule_sequential(n),
                     static_cast<std::size_t>(n));
      const auto& tree =
          dynamic_cast<const DiffractingTreeCounter&>(sim.counter());
      // Drain = last op completion (quiescence additionally waits for
      // stale prism timeouts, which is not user-visible latency).
      SimTime drain = 0;
      for (OpId op = 0; op < static_cast<OpId>(sim.ops_completed()); ++op) {
        drain = std::max(drain, sim.op_responded_at(op));
      }
      table.row()
          .add(slots)
          .add(static_cast<std::int64_t>(patience))
          .add(tree.diffracted_pairs())
          .add(tree.toggle_passes())
          .add(sim.metrics().load(tree.toggle_pid(0)))
          .add(sim.metrics().max_load())
          .add(static_cast<std::int64_t>(drain));
    }
  }
  table.print(std::cout,
              "DIFF: prism size / patience sweep, one batch of n=" +
                  std::to_string(n) + " concurrent incs (width " +
                  std::to_string(width) + ")");
  std::cout << "\nshape [SUZ96]: diffraction rises with slots and patience, "
               "offloading the toggles;\npast the sweet spot extra patience "
               "only stretches drain time.\n";
  return 0;
}
