#include "analysis/explore.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace dcnt {

namespace {

/// Validates one quiescent path and returns its op values in OpId order
/// (shared by the serial and parallel explorers).
std::vector<Value> collect_path_values(const Simulator& sim,
                                       bool check_counter_semantics) {
  std::vector<Value> values;
  for (OpId op = 0; op < static_cast<OpId>(sim.ops_started()); ++op) {
    const auto result = sim.result(op);
    DCNT_CHECK_MSG(result.has_value(),
                   "schedule explorer: op incomplete at quiescence");
    values.push_back(*result);
  }
  if (check_counter_semantics) {
    std::vector<Value> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      DCNT_CHECK_MSG(sorted[i] == static_cast<Value>(i),
                     "schedule explorer: values are not 0..m-1");
    }
    sim.counter().check_quiescent(sim.ops_completed());
  }
  return values;
}

struct ExploreState {
  const ExploreOptions* options;
  std::int64_t base_deliveries{0};
  ExploreResult result;
  std::set<std::vector<Value>> outcomes;
};

void check_path_end(const Simulator& sim, ExploreState& state) {
  ++state.result.paths;
  state.result.max_depth = std::max(
      state.result.max_depth, sim.deliveries() - state.base_deliveries);
  std::vector<Value> values =
      collect_path_values(sim, state.options->check_counter_semantics);
  if (state.options->on_path_end) state.options->on_path_end(sim);
  state.outcomes.insert(std::move(values));
}

void dfs(const Simulator& sim, ExploreState& state) {
  if (state.result.truncated) return;
  if (sim.quiescent()) {
    check_path_end(sim, state);
    if (state.result.paths >= state.options->max_paths) {
      state.result.truncated = true;
    }
    return;
  }
  const std::size_t pending = sim.pending_messages();
  for (std::size_t i = 0; i < pending && !state.result.truncated; ++i) {
    Simulator branch(sim);
    branch.step_specific(i);
    dfs(branch, state);
  }
}

// ---- Parallel exploration -------------------------------------------
//
// Each top-level pending message becomes one branch task; a branch runs
// the same depth-first walk and records its paths *in DFS order*. The
// concatenation of the branch lists in branch order is therefore
// exactly the serial explorer's path order, so the serial merge below
// reproduces paths / max_depth / distinct_outcomes — and the precise
// point where a max_paths truncation lands — bit for bit.

struct PathRecord {
  std::vector<Value> values;
  std::int64_t depth{0};
};

struct BranchCollector {
  const ExploreOptions* options;
  std::int64_t base_deliveries{0};
  std::vector<PathRecord> paths;
  bool truncated{false};
};

void dfs_collect(const Simulator& sim, BranchCollector& out) {
  if (out.truncated) return;
  if (sim.quiescent()) {
    PathRecord rec;
    rec.depth = sim.deliveries() - out.base_deliveries;
    rec.values =
        collect_path_values(sim, out.options->check_counter_semantics);
    out.paths.push_back(std::move(rec));
    // A single branch can never contribute more than the global cap.
    if (static_cast<std::int64_t>(out.paths.size()) >=
        out.options->max_paths) {
      out.truncated = true;
    }
    return;
  }
  const std::size_t pending = sim.pending_messages();
  for (std::size_t i = 0; i < pending && !out.truncated; ++i) {
    Simulator branch(sim);
    branch.step_specific(i);
    dfs_collect(branch, out);
  }
}

ExploreResult run(Simulator sim, ExploreState state) {
  const std::size_t pending = sim.pending_messages();
  const std::size_t threads = resolve_thread_count(state.options->threads);
  if (threads <= 1 || pending < 2 || state.options->on_path_end) {
    dfs(sim, state);
  } else {
    ThreadPool tp(threads);
    const std::vector<BranchCollector> branches =
        tp.parallel_map<BranchCollector>(
            pending, [&](std::size_t, std::size_t i) {
              BranchCollector out;
              out.options = state.options;
              out.base_deliveries = state.base_deliveries;
              Simulator branch(sim);
              branch.step_specific(i);
              dfs_collect(branch, out);
              return out;
            });
    for (const BranchCollector& branch : branches) {
      for (const PathRecord& rec : branch.paths) {
        ++state.result.paths;
        state.result.max_depth = std::max(state.result.max_depth, rec.depth);
        state.outcomes.insert(rec.values);
        if (state.result.paths >= state.options->max_paths) {
          state.result.truncated = true;
          break;
        }
      }
      if (state.result.truncated) break;
    }
  }
  state.result.distinct_outcomes =
      static_cast<std::int64_t>(state.outcomes.size());
  return state.result;
}

}  // namespace

ExploreResult explore_schedules(const Simulator& base,
                                const std::vector<ProcessorId>& ops,
                                const ExploreOptions& options) {
  DCNT_CHECK_MSG(!base.config().fifo_channels,
                 "exploration enumerates orders; disable fifo_channels");
  DCNT_CHECK(options.max_paths > 0);
  Simulator sim(base);
  for (const ProcessorId origin : ops) sim.begin_inc(origin);
  ExploreState state;
  state.options = &options;
  state.base_deliveries = base.deliveries();
  return run(std::move(sim), std::move(state));
}

ExploreResult explore_schedules_args(
    const Simulator& base,
    const std::vector<std::pair<ProcessorId, std::vector<std::int64_t>>>& ops,
    const ExploreOptions& options) {
  DCNT_CHECK_MSG(!base.config().fifo_channels,
                 "exploration enumerates orders; disable fifo_channels");
  DCNT_CHECK(options.max_paths > 0);
  Simulator sim(base);
  for (const auto& [origin, args] : ops) {
    sim.begin_op(origin, MessageArgs(args));
  }
  ExploreState state;
  state.options = &options;
  state.base_deliveries = base.deliveries();
  return run(std::move(sim), std::move(state));
}

}  // namespace dcnt
