#include "harness/throughput.hpp"

#include <algorithm>
#include <memory>

#include "concurrent/history.hpp"
#include "harness/schedule.hpp"
#include "runtime/threaded_runtime.hpp"
#include "runtime/workload.hpp"
#include "service/multi_counter.hpp"
#include "support/check.hpp"

namespace dcnt {

ThroughputResult run_throughput(std::unique_ptr<CounterProtocol> protocol,
                                const ThroughputOptions& options) {
  DCNT_CHECK(protocol != nullptr);
  const auto n = static_cast<std::int64_t>(protocol->num_processors());
  const std::size_t ops =
      options.ops != 0 ? options.ops : static_cast<std::size_t>(8 * n);

  ThroughputResult out;
  out.n = static_cast<std::size_t>(n);
  out.warmup = options.warmup;
  out.placement = to_string(options.placement);
  WorkloadOptions wl;
  static_cast<traffic::DriverOptions&>(wl) = options.driver_options();
  const bool keyed = options.keys > 0;
  std::unique_ptr<concurrent::HistoryBuffer> history;
  if (keyed) {
    out.keys = options.keys;
    wl.keys = make_keys(options.key_dist, options.key_skew,
                        static_cast<std::int64_t>(options.keys),
                        static_cast<std::int64_t>(ops), options.seed);
    service::MultiCounterOptions mc;
    mc.seed = options.seed;
    mc.capacity = options.key_capacity;
    protocol =
        std::make_unique<service::MultiCounter>(std::move(protocol), mc);
  } else if (options.lin_check) {
    history =
        std::make_unique<concurrent::HistoryBuffer>(options.warmup + ops);
    wl.history = history.get();
  }
  out.counter = protocol->name();

  RuntimeConfig config;
  config.workers = options.workers;
  config.seed = options.seed;
  config.max_ops = options.warmup + ops;
  config.placement = options.placement;
  ThreadedRuntime rt(std::move(protocol), config);
  out.workers = rt.workers();

  const auto initiators =
      make_initiators(options.initiators, options.zipf_s, n,
                      static_cast<std::int64_t>(ops), options.seed);
  WorkloadResult run = run_workload(rt, initiators, wl);
  fill_run(out, run);

  // Warmup ops take part in the contract too (they consumed counter
  // values before the measured phase), so verify over the full range of
  // issued ops — a duration-cut run completes a prefix of the schedule,
  // and any completed prefix must still verify.
  const std::size_t total = options.warmup + run.ops;
  std::vector<Value> values(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto v = rt.result(static_cast<OpId>(i));
    DCNT_CHECK_MSG(v.has_value(), "operation never completed");
    values[i] = *v;
  }
  if (keyed) run.key_of_op.resize(total);
  verify_values(out, values, run.key_of_op);
  rt.protocol().check_quiescent(total);
  // Measured ops only: warmup slots never completed in the buffer.
  if (history) {
    fill_linearizability(out, check_linearizable(*history, options.warmup));
  }

  fill_loads(out, rt.merged_metrics());
  out.pinned_workers = rt.pinned_workers();
  out.placement_supported = rt.placement_supported();
  if (keyed) {
    const auto& fabric =
        static_cast<const service::MultiCounter&>(rt.protocol());
    const auto lru = fabric.lru_stats();
    out.lru_hits = lru.hits;
    out.lru_misses = lru.misses;
    out.lru_evicts = lru.evicts;
    out.lru_rehydrates = lru.rehydrates;
    out.live_instances = fabric.directory().live_instances();
  }
  return out;
}

RuntimeSequentialResult run_runtime_sequential(
    std::unique_ptr<CounterProtocol> protocol, std::size_t workers,
    const std::vector<ProcessorId>& order, std::uint64_t seed,
    std::size_t flush_batch) {
  DCNT_CHECK(protocol != nullptr);
  RuntimeConfig config;
  config.workers = workers;
  config.seed = seed;
  config.max_ops = std::max<std::size_t>(order.size(), 1);
  // Equivalence runs must not collapse to fewer shards on small hosts:
  // the whole point is to drive the cross-shard machinery.
  config.active_shards = workers;
  config.flush_batch = flush_batch;
  ThreadedRuntime rt(std::move(protocol), config);

  // The driver's settle mode checks the protocol quiescent after each op.
  WorkloadOptions wl;
  wl.quiesce_between_ops = true;
  run_workload(rt, order, wl);

  RuntimeSequentialResult out;
  out.values.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto v = rt.result(static_cast<OpId>(i));
    DCNT_CHECK_MSG(v.has_value(), "operation never completed");
    DCNT_CHECK_MSG(*v == static_cast<Value>(i),
                   "sequential semantics violated (value != op index)");
    out.values.push_back(*v);
  }
  out.metrics = rt.merged_metrics();
  return out;
}

}  // namespace dcnt
