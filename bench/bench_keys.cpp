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
// and each node returns one kCompleteBatch per drain round.
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
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace dcnt;

namespace {

/// One row: the run's result plus what only the row knows. In-process
/// rows fill just the HarnessResult part; wire_msgs_sent stays zero.
struct KeyRow {
  net::ClusterResult r;
  std::string mode;  ///< "inproc", "inproc-lru", "inproc-open", "tcp", "tcp-open"
  std::string key_dist;
  double key_skew{0.0};
  std::size_t parallelism{0};  ///< workers (inproc) or nodes (tcp)
  std::size_t batch{1};        ///< tcp rows: schedule entries per issuance unit
  std::size_t key_capacity{0};
  double rate{0.0};  ///< open-loop rows: offered rate
};

KeyRow from_keyed_throughput(const ThroughputResult& r,
                             const std::string& key_dist, double skew,
                             std::size_t capacity, const std::string& mode) {
  KeyRow row;
  static_cast<HarnessResult&>(row.r) = r;
  row.mode = mode;
  row.key_dist = key_dist;
  row.key_skew = skew;
  row.parallelism = r.workers;
  row.key_capacity = capacity;
  return row;
}

KeyRow from_cluster(net::ClusterResult r, const std::string& key_dist,
                    double skew, std::size_t batch, std::size_t capacity) {
  KeyRow row;
  row.parallelism = r.nodes;
  row.r = std::move(r);
  row.mode = "tcp";
  row.key_dist = key_dist;
  row.key_skew = skew;
  row.batch = batch;
  row.key_capacity = capacity;
  return row;
}

/// The normalized per-key bottleneck: the hot key's max_p divided by
/// its op count. The paper's claim is that this stays Omega(1) per op
/// (a constant for central) regardless of how many other keys share
/// the fabric.
double hot_key_load_per_op(const HarnessResult& r) {
  if (r.hot_key_ops == 0) return 0.0;
  return static_cast<double>(r.hot_key_max_load) /
         static_cast<double>(r.hot_key_ops);
}

}  // namespace

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
  const auto dist_for = [](double skew) {
    return skew > 0.0 ? std::string("zipf") : std::string("uniform");
  };

  std::vector<KeyRow> rows;
  for (const std::int64_t keys64 : keys_list) {
    const auto keys = static_cast<std::size_t>(keys64 > 0 ? keys64 : 1);
    for (const double skew : key_skews) {
      for (const std::int64_t w : workers_list) {
        ThroughputOptions topt;
        topt.workers = static_cast<std::size_t>(w > 0 ? w : 1);
        topt.ops = ops_for(keys);
        topt.concurrency = concurrency;
        topt.warmup = warmup;
        topt.seed = seed;
        // active_shards stays adaptive (min(workers, cores)) like the
        // other wall-clock benches: on a small host W > 1 degrades
        // gracefully instead of paying forced cross-shard hops; the
        // keyed tests pin it instead.
        KeyedOptions kopt;
        kopt.keys = keys;
        kopt.key_dist = dist_for(skew);
        kopt.key_skew = skew;
        kopt.key_capacity = key_capacity;
        rows.push_back(from_keyed_throughput(
            run_keyed_throughput(make_counter(kind, n), topt, kopt),
            kopt.key_dist, skew, key_capacity, "inproc"));
      }
    }
  }

  // LRU cold tier at work: cap the directory well below the largest
  // keyspace so the skewed stream keeps evicting cold keys to their
  // durable values and rehydrating them on the next touch.
  {
    const auto keys =
        static_cast<std::size_t>(*std::max_element(keys_list.begin(), keys_list.end()));
    if (keys > 1) {
      const double skew = key_skews.back();
      const std::size_t capacity = std::max<std::size_t>(16, keys / 8);
      ThroughputOptions topt;
      topt.workers =
          static_cast<std::size_t>(workers_list.back() > 0 ? workers_list.back() : 1);
      topt.ops = ops_for(keys);
      topt.concurrency = concurrency;
      topt.warmup = warmup;
      topt.seed = seed;
      KeyedOptions kopt;
      kopt.keys = keys;
      kopt.key_dist = dist_for(skew);
      kopt.key_skew = skew;
      kopt.key_capacity = capacity;
      rows.push_back(from_keyed_throughput(
          run_keyed_throughput(make_counter(kind, n), topt, kopt),
          kopt.key_dist, skew, capacity, "inproc-lru"));
    }
  }

  // Open-loop keyed row: the fabric under offered load at the largest
  // swept keyspace, tails measured from scheduled arrival.
  if (open_rate > 0.0) {
    const auto keys = static_cast<std::size_t>(
        *std::max_element(keys_list.begin(), keys_list.end()));
    const double skew = key_skews.back();
    ThroughputOptions topt;
    topt.workers = static_cast<std::size_t>(
        workers_list.back() > 0 ? workers_list.back() : 1);
    topt.ops = ops_for(keys);
    topt.warmup = warmup;
    topt.seed = seed;
    topt.open_rate = open_rate;
    topt.shape = shape;
    topt.slo_us = slo_us;
    KeyedOptions kopt;
    kopt.keys = keys;
    kopt.key_dist = dist_for(skew);
    kopt.key_skew = skew;
    KeyRow row = from_keyed_throughput(
        run_keyed_throughput(make_counter(kind, n), topt, kopt),
        kopt.key_dist, skew, 0, "inproc-open");
    row.rate = open_rate;
    rows.push_back(std::move(row));
  }

  // The real cluster: keyed Starts out, coalesced completions back,
  // per-key values verified as exact permutations across 4 processes,
  // per-key loads merged from chunked kKeyedStats reports. Framing is
  // per reactor round whatever --batch is, so the batch rows price the
  // driver's issuance unit (reissue once a unit's worth of slots has
  // freed), not frames.
  std::vector<std::size_t> cluster_batches{1};
  if (batch > 1) cluster_batches.push_back(batch);
  std::vector<std::size_t> cluster_keyspaces{1};
  if (cluster_keys > 1) cluster_keyspaces.push_back(cluster_keys);
  for (const std::size_t b : cluster_batches) {
    for (const std::size_t keys : cluster_keyspaces) {
      if (b == 1 && keys == 1) continue;  // covered by the batch sweep
      net::ClusterOptions copt;
      copt.counter = counter;
      copt.min_processors = n;
      copt.nodes = nodes;
      copt.ops = std::min<std::size_t>(std::max<std::size_t>(4 * keys, 256),
                                       quick ? 256 : 2048);
      copt.concurrency = 8;
      copt.warmup = warmup;
      copt.seed = seed;
      copt.keys = keys;
      copt.key_dist = "zipf";
      copt.key_skew = 0.99;
      copt.batch = b;
      rows.push_back(
          from_cluster(net::run_cluster(copt), "zipf", 0.99, b, 0));
    }
  }

  // Open-loop keyed row on the real cluster: same arrival timeline as
  // the inproc-open row, but the Starts cross actual sockets. Batch is
  // forced to 1 by the controller (pacing is per op), so the comparison
  // against the closed-loop tcp rows prices open-loop pacing: the
  // arrivals due between two reactor rounds share a frame, as a closed
  // loop's completion burst does.
  if (open_rate > 0.0) {
    net::ClusterOptions copt;
    copt.counter = counter;
    copt.min_processors = n;
    copt.nodes = nodes;
    copt.ops = quick ? 256 : 2048;
    copt.warmup = warmup;
    copt.seed = seed;
    copt.keys = cluster_keys;
    copt.key_dist = "zipf";
    copt.key_skew = 0.99;
    copt.open_rate = open_rate;
    copt.shape = shape;
    copt.slo_us = slo_us;
    KeyRow row = from_cluster(net::run_cluster(copt), "zipf", 0.99, 1, 0);
    row.mode = "tcp-open";
    row.rate = open_rate;
    rows.push_back(std::move(row));
  }

  Table table({"mode", "keys", "dist", "par", "batch", "ops", "cap", "inc/s",
               "p99_us", "max_load", "hot_ops", "hk_max", "hk/op", "touched",
               "evict", "rehyd"});
  for (const KeyRow& row : rows) {
    const net::ClusterResult& r = row.r;
    table.row()
        .add(row.mode)
        .add(static_cast<std::int64_t>(r.keys))
        .add(row.key_dist)
        .add(static_cast<std::int64_t>(row.parallelism))
        .add(static_cast<std::int64_t>(row.batch))
        .add(static_cast<std::int64_t>(r.ops))
        .add(static_cast<std::int64_t>(row.key_capacity))
        .add(r.ops_per_sec, 0)
        .add(r.p99_us, 1)
        .add(r.max_load)
        .add(r.hot_key_ops)
        .add(r.hot_key_max_load)
        .add(hot_key_load_per_op(r), 2)
        .add(static_cast<std::int64_t>(r.keys_touched))
        .add(r.lru_evicts)
        .add(r.lru_rehydrates);
  }
  table.print(std::cout,
              "KEYS: multi-key fabric — aggregate scales, every key still "
              "pays its own bottleneck (all rows verified per key)");

  JsonWriter json(out);
  json.field("bench", "keys");
  json.field("counter", counter);
  json.field("n", n);
  json.field("concurrency", concurrency);
  json.field("warmup", warmup);
  json.field("nodes", nodes);
  json.field("batch", batch);
  json.field("seed", seed);
  json.begin_array("runs");
  for (const KeyRow& row : rows) {
    const net::ClusterResult& r = row.r;
    json.begin_object();
    json.field("mode", row.mode);
    json.field("keys", r.keys);
    json.field("key_dist", row.key_dist);
    json.field("key_skew", row.key_skew, 2);
    json.field("parallelism", row.parallelism);
    json.field("batch", row.batch);
    json.field("ops", r.ops);
    json.field("key_capacity", row.key_capacity);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("p50_us", r.p50_us, 2);
    json.field("p99_us", r.p99_us, 2);
    if (row.mode == "inproc-open" || row.mode == "tcp-open") {
      json.field("rate", row.rate, 1);
      json.field("shape", shape);
      json.field("p999_us", r.p999_us, 2);
      json.field("max_us", r.max_us, 2);
      json.field("slo_us", slo_us, 1);
      json.field("slo_attainment", r.slo_attainment, 6);
      json.field("hdr_recorder", r.hdr_recorder ? 1 : 0);
    }
    json.field("total_messages", r.total_messages);
    json.field("max_load", r.max_load);
    json.field("hot_key", r.hot_key);
    json.field("hot_key_ops", r.hot_key_ops);
    json.field("hot_key_max_load", r.hot_key_max_load);
    json.field("hot_key_load_per_op", hot_key_load_per_op(r), 3);
    json.field("keys_touched", r.keys_touched);
    json.field("live_instances", r.live_instances);
    json.field("lru_hits", r.lru_hits);
    json.field("lru_misses", r.lru_misses);
    json.field("lru_evicts", r.lru_evicts);
    json.field("lru_rehydrates", r.lru_rehydrates);
    json.field("wire_msgs", r.wire_msgs_sent);
    json.end_object();
  }
  json.end_array();
  return 0;
}
