// KEYS — counter-as-a-service: the multi-key fabric (service/) over the
// threaded runtime and the socket cluster.
//
// The paper's bound is per counter: a single exact counter has a
// processor carrying m_p >= Omega(k) messages, no matter how it is
// implemented. The fabric multiplexes `keys` independent counters over
// one processor set, rotating each key's instance so distinct keys pin
// their bottleneck on distinct processors. This bench measures both
// halves of that claim at once:
//
//   - aggregate inc/s grows with the worker/shard count at large
//     keyspaces (the fabric scales),
//   - the hottest key's per-key max_p stays within a small constant
//     factor of the same counter run with keys=1 at equal ops — no
//     amount of keyspace sharding relaxes the per-key Omega(k) price.
//
// Every row verifies the per-key contract internally (each key's
// returned values are an exact permutation of 0..ops_k-1), so a row
// completing is itself a correctness check. The `inproc-lru` row caps
// the directory so the LRU cold tier does real work (evict to durable
// value, rehydrate on next touch); its counters are reported. The tcp
// rows run the real 4-process cluster: the controller coalesces every
// reactor round's keyed Starts into one kStartBatch per touched node,
// and each node returns one kCompleteBatch per drain round. The
// batch=1 and batch=--batch tcp rows run the same window (8 slots x
// --batch ops): batch=1 keeps --batch ops in flight per slot, so the
// pair prices the issuance unit alone.
//
// Every row is a ClusterRow (bench_util.hpp, shared with bench_net): a
// mode, the parallelism (workers or nodes) and one ClusterOptions value
// whose LoadOptions part, keyspace included, run_throughput and
// run_cluster both read. In-process rows run at --concurrency, tcp rows
// at 8 slots. The table and the JSON "runs" array come from the same
// rows through one column list; the open-loop columns appear in the
// JSON of open-loop rows only.
//
//   $ bench_keys [--counter=central] [--n=16] [--keys_list=1,1000,100000]
//                [--key_skews=0,0.99] [--workers_list=1,4] [--ops=0]
//                [--key_capacity=0] [--concurrency=16] [--warmup=64]
//                [--nodes=4] [--cluster_keys=256] [--batch=16] [--seed=7]
//                [--open_rate=0] [--shape=constant] [--slo_us=0]
//                [--quick] [--out=BENCH_keys.json]
//
// With --open_rate > 0 (on by default under --quick) an "inproc-open"
// row drives the fabric open-loop on the deterministic arrival
// timeline, with latency measured from scheduled arrival and SLO
// attainment at --slo_us — plus a "tcp-open" row doing the same against
// the real socket cluster (keyed Starts paced per op; the controller
// forces batch=1 in the open loop, so queueing in the mesh counts
// against the tail, coordinated-omission-free; starts that fall due
// between two reactor rounds still share a frame).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "support/flags.hpp"
#include "support/thread_pool.hpp"

using namespace dcnt;

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "KEYS: multi-key counter fabric — aggregate inc/s scales with shards "
      "while every key keeps paying the per-key bottleneck",
      {"batch", "cluster_keys", "concurrency", "counter", "key_capacity",
       "key_skews", "keys_list", "n", "nodes", "open_rate", "ops", "out",
       "quick", "seed", "shape", "slo_us", "warmup", "workers_list"});
  const bool quick = flags.get_bool("quick", false);
  const std::string counter = flags.get_string("counter", "central");
  const std::int64_t n = flags.get_int("n", quick ? 8 : 16);
  auto keys_list =
      parse_int_list(flags.get_string("keys_list", quick ? "1,64" : "1,1000,100000"));
  auto key_skews =
      parse_double_list(flags.get_string("key_skews", quick ? "0.99" : "0,0.99"));
  auto workers_list =
      parse_int_list(flags.get_string("workers_list", quick ? "2" : "1,4"));
  const std::int64_t ops_flag = flags.get_int("ops", 0);
  const auto key_capacity =
      static_cast<std::size_t>(flags.get_int("key_capacity", 0));
  const auto concurrency =
      static_cast<std::size_t>(flags.get_int("concurrency", 16));
  const auto warmup =
      static_cast<std::size_t>(flags.get_int("warmup", quick ? 16 : 64));
  const auto nodes =
      static_cast<std::uint32_t>(flags.get_int("nodes", quick ? 2 : 4));
  const auto cluster_keys =
      static_cast<std::size_t>(flags.get_int("cluster_keys", quick ? 16 : 256));
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 16));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  // Open-loop keyed row: the traffic engine against the fabric, latency
  // from scheduled arrival. --quick keeps it in the smoke path.
  const double open_rate =
      flags.get_double("open_rate", quick ? 20000.0 : 0.0);
  const std::string shape = flags.get_string("shape", "constant");
  const double slo_us = flags.get_double("slo_us", quick ? 1000.0 : 0.0);
  const std::string out = flags.get_string("out", "BENCH_keys.json");

  const CounterKind kind = counter_kind_from_string(counter);
  const std::size_t procs = make_counter(kind, n)->num_processors();
  // Ops per row: enough to touch a large keyspace several times over,
  // bounded so the 100k-key row stays seconds, not minutes.
  const auto ops_for = [&](std::size_t keys) {
    if (ops_flag > 0) return static_cast<std::size_t>(ops_flag);
    const std::size_t floor_ops = (quick ? 4 : 16) * procs;
    const std::size_t by_keys = std::min<std::size_t>(4 * keys, 200000);
    return std::max(floor_ops, by_keys);
  };
  const auto max_keys = static_cast<std::size_t>(
      *std::max_element(keys_list.begin(), keys_list.end()));
  const auto last_workers = static_cast<std::size_t>(
      workers_list.back() > 0 ? workers_list.back() : 1);

  // The fields every row shares; each row then sets its own.
  const auto keyed_load = [&](std::size_t keys, double skew,
                              std::size_t ops) {
    net::ClusterOptions load;
    load.ops = ops;
    load.concurrency = concurrency;
    load.warmup = warmup;
    load.seed = seed;
    load.keys = keys;
    load.key_dist = skew > 0.0 ? "zipf" : "uniform";
    load.key_skew = skew;
    return load;
  };
  std::vector<ClusterRow> rows;
  // A row names its mode, parallelism (workers in process, nodes on
  // tcp) and load; tcp rows run the real cluster, the rest in process.
  const auto run_row = [&](const std::string& mode, std::size_t parallelism,
                           const net::ClusterOptions& load) {
    ClusterRow row{mode, parallelism, load, {}};
    row.load.counter = counter;
    row.load.min_processors = n;
    if (row.mode.rfind("tcp", 0) == 0) {
      row.load.nodes = static_cast<std::uint32_t>(row.parallelism);
      row.result = net::run_cluster(row.load);
    } else {
      // active_shards stays adaptive (min(workers, cores)) like the
      // other wall-clock benches: on a small host W > 1 degrades
      // gracefully instead of paying forced cross-shard hops.
      ThroughputOptions topt;
      static_cast<LoadOptions&>(topt) = row.load;
      topt.workers = row.parallelism;
      static_cast<HarnessResult&>(row.result) =
          run_throughput(make_counter(kind, n), topt);
    }
    rows.push_back(std::move(row));
  };

  for (const std::int64_t keys64 : keys_list) {
    const auto keys = static_cast<std::size_t>(keys64 > 0 ? keys64 : 1);
    for (const double skew : key_skews) {
      for (const std::int64_t w : workers_list) {
        net::ClusterOptions load = keyed_load(keys, skew, ops_for(keys));
        load.key_capacity = key_capacity;
        run_row("inproc", static_cast<std::size_t>(w > 0 ? w : 1), load);
      }
    }
  }

  // LRU cold tier at work: cap the directory well below the largest
  // keyspace so the skewed stream keeps evicting cold keys to their
  // durable values and rehydrating them on the next touch.
  if (max_keys > 1) {
    net::ClusterOptions load =
        keyed_load(max_keys, key_skews.back(), ops_for(max_keys));
    load.key_capacity = std::max<std::size_t>(16, max_keys / 8);
    run_row("inproc-lru", last_workers, load);
  }

  // Open-loop keyed row: the fabric under offered load at the largest
  // swept keyspace, tails measured from scheduled arrival.
  if (open_rate > 0.0) {
    net::ClusterOptions load =
        keyed_load(max_keys, key_skews.back(), ops_for(max_keys));
    load.open_rate = open_rate;
    load.shape = shape;
    load.slo_us = slo_us;
    run_row("inproc-open", last_workers, load);
  }

  // The real cluster: keyed Starts out, coalesced completions back,
  // per-key values verified as exact permutations across 4 processes,
  // per-key loads merged from chunked kKeyedStats reports. Framing is
  // per reactor round whatever --batch is, so the batch rows price the
  // driver's issuance unit (reissue once a unit's worth of slots has
  // freed), not frames. The batch=1 rows keep --batch ops in flight per
  // slot instead, so both rows run the same window of 8 * batch ops.
  std::vector<std::size_t> cluster_batches{1};
  if (batch > 1) cluster_batches.push_back(batch);
  std::vector<std::size_t> cluster_keyspaces{1};
  if (cluster_keys > 1) cluster_keyspaces.push_back(cluster_keys);
  const auto cluster_load = [&](std::size_t keys, std::size_t ops) {
    net::ClusterOptions load = keyed_load(keys, 0.99, ops);
    load.concurrency = 8;
    return load;
  };
  for (const std::size_t b : cluster_batches) {
    for (const std::size_t keys : cluster_keyspaces) {
      if (b == 1 && keys == 1) continue;  // covered by the batch sweep
      net::ClusterOptions load = cluster_load(
          keys, std::min<std::size_t>(std::max<std::size_t>(4 * keys, 256),
                                      quick ? 256 : 2048));
      load.batch = b;
      load.inflight = b == 1 ? batch : 1;
      run_row("tcp", nodes, load);
    }
  }

  // Open-loop keyed row on the real cluster: same arrival timeline as
  // the inproc-open row, but the Starts cross actual sockets. Batch is
  // forced to 1 by the controller (pacing is per op), so the comparison
  // against the closed-loop tcp rows prices open-loop pacing: the
  // arrivals due between two reactor rounds share a frame, as a closed
  // loop's completion burst does.
  if (open_rate > 0.0) {
    net::ClusterOptions load = cluster_load(cluster_keys, quick ? 256 : 2048);
    load.open_rate = open_rate;
    load.shape = shape;
    load.slo_us = slo_us;
    run_row("tcp-open", nodes, load);
  }

  JsonWriter json(out);
  json.field("bench", "keys");
  json.field("counter", counter);
  json.field("n", n);
  json.field("concurrency", concurrency);
  json.field("warmup", warmup);
  json.field("nodes", nodes);
  json.field("batch", batch);
  json.field("seed", seed);
  json.field("hardware_threads", default_thread_count());
  using C = Columns<ClusterRow>;
  emit(json, "runs",
       "KEYS: multi-key fabric — aggregate scales, every key still pays "
       "its own bottleneck (all rows verified per key)",
       harness_columns<ClusterRow>({
           C::load("key_dist", "dist", &net::ClusterOptions::key_dist),
           C::load("key_skew", "", &net::ClusterOptions::key_skew, 2),
           C::load("batch", "batch", &net::ClusterOptions::batch),
           C::load("key_capacity", "cap", &net::ClusterOptions::key_capacity),
           // The normalized per-key bottleneck: the hot key's max_p per
           // op. The paper's claim is that this stays Omega(1) per op (a
           // constant for central) however many other keys share the
           // fabric.
           {"hot_key_load_per_op", "hk/op", 3,
            [](const ClusterRow& r) {
              const HarnessResult& h = r.result;
              return to_cell(h.hot_key_ops == 0
                                 ? 0.0
                                 : static_cast<double>(h.hot_key_max_load) /
                                       static_cast<double>(h.hot_key_ops));
            }},
           C::result("wire_msgs", "", &net::ClusterResult::wire_msgs_sent),
       }),
       {{"mode* keys* key_dist* key_skew parallelism* batch* ops* "
         "key_capacity* ops_per_sec* p50_us p99_us*"},
        {"rate shape p999_us max_us slo_us slo_attainment hdr_recorder",
         [](const ClusterRow& r) { return r.load.open_rate > 0.0; }},
        {"total_messages max_load* hot_key hot_key_ops* hot_key_max_load* "
         "hot_key_load_per_op* keys_touched* live_instances lru_hits "
         "lru_misses lru_evicts* lru_rehydrates* wire_msgs"}},
       rows);
  return 0;
}
