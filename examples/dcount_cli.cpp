// Swiss-army experiment driver: pick a counter, a workload, a delivery
// regime and a topology from the command line; get the full report.
//
//   $ ./examples/dcount_cli --counter=tree --n=81 --workload=permutation
//   $ ./examples/dcount_cli --counter=central --n=256 --topology=ring
//   $ ./examples/dcount_cli --counter=counting-net --n=64 --workload=zipf
//         --zipf=0.9 --ops=500 --delay=heavy --seed=7
//
// Flags (all optional):
//   --counter=tree|static-tree|central|combining|counting-net|
//             diffracting|quorum-majority|quorum-grid        [tree]
//   --n=<min processors>                                      [81]
//   --workload=sequential|reverse|permutation|uniform|zipf|single [sequential]
//   --ops=<operations, for uniform/zipf/single>               [n]
//   --zipf=<skew>                                             [0.8]
//   --delay=fixed|uniform|heavy                               [uniform]
//   --delay_max=<max delay>                                   [8]
//   --fifo                                                    [off]
//   --topology=complete|ring|torus|hypercube                  [complete]
//   --seed=<seed>                                             [1]
//   --histogram                                               [off]
#include <cstdio>
#include <iostream>

#include "dcnt.hpp"

using namespace dcnt;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const CounterKind kind =
      counter_kind_from_string(flags.get_string("counter", "tree"));
  const std::int64_t min_n = flags.get_int("n", 81);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  SimConfig cfg;
  cfg.seed = seed;
  cfg.fifo_channels = flags.get_bool("fifo", false);
  const SimTime delay_max = flags.get_int("delay_max", 8);
  const std::string delay = flags.get_string("delay", "uniform");
  if (delay == "fixed") {
    cfg.delay = DelayModel::fixed_delay(delay_max);
  } else if (delay == "heavy") {
    cfg.delay = DelayModel::heavy_tail(1, 50 * delay_max);
  } else {
    cfg.delay = DelayModel::uniform(1, delay_max);
  }

  auto counter = make_counter(kind, min_n);
  const auto n = static_cast<std::int64_t>(counter->num_processors());

  const std::string topo = flags.get_string("topology", "complete");
  if (topo == "ring") {
    cfg.topology = std::make_shared<RingTopology>(n);
  } else if (topo == "torus") {
    cfg.topology = std::make_shared<TorusTopology>(n);
  } else if (topo == "hypercube") {
    if ((n & (n - 1)) != 0) {
      std::fprintf(stderr, "hypercube needs n to be a power of two (n=%lld)\n",
                   static_cast<long long>(n));
      return 2;
    }
    cfg.topology = std::make_shared<HypercubeTopology>(n);
  } else if (topo != "complete") {
    std::fprintf(stderr, "unknown topology: %s\n", topo.c_str());
    return 2;
  }

  Simulator sim(std::move(counter), cfg);
  const std::int64_t ops = flags.get_int("ops", n);
  Rng rng(seed + 1);
  const std::string workload = flags.get_string("workload", "sequential");
  std::vector<ProcessorId> order;
  if (workload == "sequential") {
    order = schedule_sequential(n);
  } else if (workload == "reverse") {
    order = schedule_reverse(n);
  } else if (workload == "permutation") {
    order = schedule_permutation(n, rng);
  } else if (workload == "uniform") {
    order = schedule_uniform(n, ops, rng);
  } else if (workload == "zipf") {
    order = schedule_zipf(n, ops, flags.get_double("zipf", 0.8), rng);
  } else if (workload == "single") {
    order = schedule_single_origin(0, ops);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 2;
  }

  std::printf("counter  : %s\n", sim.counter().name().c_str());
  std::printf("network  : %s, %s delay (max %lld)%s\n",
              cfg.topology ? cfg.topology->name().c_str() : "complete",
              delay.c_str(), static_cast<long long>(delay_max),
              cfg.fifo_channels ? ", fifo" : "");
  std::printf("workload : %s, %zu ops over n=%lld processors\n\n",
              workload.c_str(), order.size(), static_cast<long long>(n));

  const RunResult result = run_sequential(sim, order);
  const LoadReport report = make_load_report(sim);
  const ConcentrationReport conc = concentration(sim.metrics());

  std::printf("values ok        : %s (0..%zu, in order)\n",
              result.values_ok ? "yes" : "NO", order.size() - 1);
  std::printf("bottleneck       : processor %d with %lld messages\n",
              report.bottleneck, static_cast<long long>(report.max_load));
  std::printf("paper bound      : k(n) = %.2f  ->  max/k = %.1f\n",
              report.paper_k, report.load_per_k);
  std::printf("loads            : mean %.2f, p50 %lld, p99 %lld\n",
              report.mean_load, static_cast<long long>(report.p50),
              static_cast<long long>(report.p99));
  std::printf("concentration    : gini %.3f, top-1%% share %.3f\n", conc.gini,
              conc.top1_share);
  std::printf("latency (sim t)  : mean %.1f, p99 %lld\n", result.mean_us,
              static_cast<long long>(result.p99_us));
  std::printf("traffic          : %lld messages, %lld words\n",
              static_cast<long long>(report.total_messages),
              static_cast<long long>(report.total_words));

  if (const auto* tree = dynamic_cast<const TreeService*>(&sim.counter())) {
    std::printf("tree service     : %lld retirements, %lld pool wraps, "
                "%lld forwarded, %lld orphan stashes\n",
                static_cast<long long>(tree->stats().retirements_total),
                static_cast<long long>(tree->stats().pool_wraps),
                static_cast<long long>(tree->stats().forwarded_messages),
                static_cast<long long>(tree->stats().orphan_stashes));
  }
  if (flags.get_bool("histogram", false)) {
    const Summary loads = sim.metrics().load_summary();
    Histogram h(std::max<std::int64_t>(1, loads.max() / 16 + 1), 16);
    for (const auto l : loads.samples()) h.add(l);
    std::printf("\nload histogram:\n%s", h.to_string().c_str());
  }
  return 0;
}
