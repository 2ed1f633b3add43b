// dcnt_node: one process of the socket cluster.
//
// Normally spawned by the cluster harness (harness/cluster.hpp), which
// passes the controller's port and this node's identity; runnable by
// hand for debugging a single shard. See README.md ("Running the
// counter as a real cluster").
#include <cstdio>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "support/flags.hpp"

namespace {

constexpr const char* kUsage = R"(dcnt_node: one shard of the socket-cluster counter runtime.

Usage: dcnt_node --ctrl_port=P --node=I --nodes=N [options]

  --ctrl_port=P     controller's TCP port on 127.0.0.1 (required)
  --node=I          this node's id, 0 <= I < N        (default 0)
  --nodes=N         cluster size                      (default 1)
  --counter=KIND    tree|central|combining|diffracting|... (default tree)
  --n=P             minimum number of processors      (default 16)
  --seed=S          deterministic seed                (default 1)
  --transport=T     tcp | udp                         (default tcp)
  --drop=F          datagram loss probability, udp    (default 0)
  --tick_us=U       wall microseconds per logical tick (default 200)
  --ack_timeout=T   reliable-transport first timeout  (default 16 ticks)
  --max_timeout=T   reliable-transport backoff cap    (default 256 ticks)
  --max_attempts=A  transmissions before giving up    (default 12)
  --max_ops=M       operation-table capacity hint     (default 65536)
  --keys=K          multi-key mode: K-counter service fabric
                    over the shard (0 = single counter) (default 0)
  --key_capacity=C  LRU cap on live per-key instances;
                    0 = unbounded (multi-key mode)     (default 0)

Any other flag is an error (exit 2).
)";

const std::vector<std::string> kKnownFlags = {
    "ack_timeout", "counter", "ctrl_port", "drop", "key_capacity", "keys",
    "max_attempts", "max_ops", "max_timeout", "n", "node", "nodes", "seed",
    "tick_us", "transport"};

}  // namespace

int main(int argc, char** argv) {
  const dcnt::Flags flags =
      dcnt::parse_known_flags(argc, argv, kKnownFlags, kUsage);
  dcnt::net::NodeConfig cfg;
  cfg.node_id = static_cast<std::uint32_t>(flags.get_int("node", 0));
  cfg.num_nodes = static_cast<std::uint32_t>(flags.get_int("nodes", 1));
  cfg.counter = flags.get_string("counter", "tree");
  cfg.min_processors = flags.get_int("n", 16);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  cfg.ctrl_port = static_cast<std::uint16_t>(flags.get_int("ctrl_port", 0));
  const std::string transport = flags.get_string("transport", "tcp");
  if (transport == "udp") {
    cfg.udp = true;
  } else if (transport != "tcp") {
    std::fprintf(stderr, "dcnt_node: unknown --transport=%s (tcp|udp)\n",
                 transport.c_str());
    return 2;
  }
  cfg.drop_probability = flags.get_double("drop", 0.0);
  cfg.tick_us = flags.get_int("tick_us", 200);
  cfg.retry.ack_timeout = flags.get_int("ack_timeout", cfg.retry.ack_timeout);
  cfg.retry.max_timeout = flags.get_int("max_timeout", cfg.retry.max_timeout);
  cfg.retry.max_attempts =
      static_cast<int>(flags.get_int("max_attempts", cfg.retry.max_attempts));
  cfg.max_ops = flags.get_int("max_ops", 0);
  cfg.keys = flags.get_int("keys", 0);
  cfg.key_capacity = flags.get_int("key_capacity", 0);
  return dcnt::net::run_node(cfg);
}
