// Drives operation schedules through a Simulator and verifies counter
// semantics, as one more port of the shared load driver
// (traffic/driver.hpp).
//
// Sequential mode is the paper's model: "enough time elapses in between
// any two inc requests to make sure that the preceding inc operation is
// finished before the next one starts" — the driver settles after every
// op (quiesce_between_ops) and the runner asserts that the i-th
// operation returned exactly i-1... i.e. value i for 0-based op i means
// returned values are 0,1,2,... in initiation order.
//
// Concurrent mode (settled batches of simultaneous initiations) and
// closed windows (run_load) are out-of-model extensions; there the
// verifier only requires the returned values to be a permutation of
// 0..m-1. Runs stay a pure function of (protocol, seed): run_load
// rejects the open loop and the duration cut, which read the clock.
#pragma once

#include <cstdint>
#include <vector>

#include "concurrent/history.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"
#include "traffic/driver.hpp"

namespace dcnt {

struct RunResult {
  std::vector<Value> values;  ///< from the run's first op id (warmup first)
  std::int64_t max_load{0};
  ProcessorId bottleneck{kNoProcessor};
  std::int64_t total_messages{0};
  double mean_load{0.0};
  bool values_ok{false};
};

struct RunOptions {
  /// Call protocol->check_quiescent() whenever the run settles. Cheap;
  /// on by default.
  bool check_each_op{true};
  /// Abort the simulation if this many deliveries pass without an op
  /// completing, or if one settle needs more.
  std::int64_t max_steps_per_op{10'000'000};
};

/// The simulator's load-driver entry: runs `order` (a begin_inc per
/// entry, warmup first) in units of `unit` under the closed-loop policy
/// `load`, and aborts unless the run's values are a permutation. Op ids
/// and values count on from the ops `sim` had already run.
RunResult run_load(Simulator& sim, const std::vector<ProcessorId>& order,
                   const traffic::DriverOptions& load, std::size_t unit = 1,
                   const RunOptions& options = {});

/// Sequential driver (the paper's model). Aborts on any semantic
/// violation (values must come back 0,1,2,... in initiation order).
RunResult run_sequential(Simulator& sim, const std::vector<ProcessorId>& order,
                         const RunOptions& options = {});

/// Concurrent driver: initiates `order` in batches of `width` at once
/// (the last one may be short), settling after each. Values must form a
/// permutation of 0..m-1 overall.
RunResult run_concurrent(Simulator& sim, const std::vector<ProcessorId>& order,
                         std::size_t width, const RunOptions& options = {});

/// Extracts the history of all completed ops from a simulator, in
/// simulated time, for check_linearizable.
std::vector<CounterOpRecord> counter_history(const Simulator& sim);

}  // namespace dcnt
