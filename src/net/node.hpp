// One process of the socket cluster: hosts a shard of processors of an
// unmodified CounterProtocol and exchanges Messages with its peers over
// real kernel sockets.
//
// Sharding is the threaded runtime's, across processes instead of
// threads: processor p lives on node p % num_nodes, a node runs
// handlers only for its own processors, and the only channel between
// shards is Context::send — exactly the state-slicing contract
// Protocol::shard_safe() documents. Because shards are separate
// *processes*, the contract is enforced by construction: a handler
// physically cannot read another node's memory, and each node's copy of
// the protocol object only ever mutates its own processors' slices
// (remote slices stay at their initial state and are never consulted).
// Protocol-global conveniences (RelaxedCounter stats, debug logs) are
// per-process and therefore partial; correctness state must live in
// per-processor slices, which is what shard_safe() promises.
// check_quiescent() is NOT run per node — it audits whole-object state
// that no single node holds; the cluster harness verifies the
// observable contract (value permutation) instead.
//
// Two data planes:
//   - tcp (default): a full TCP mesh with TCP_NODELAY; the kernel's
//     byte stream gives reliable FIFO channels, matching the paper's
//     reliable asynchronous model directly.
//   - udp: datagrams plus a seeded Bernoulli loss shim at the sender,
//     with the protocol wrapped in ReliableTransport (faults/retry.hpp)
//     inside each node — the PROTOCOL.md ack/seq/backoff framing doing
//     real work over an actually-lossy medium. Kernel-level losses
//     (ENOBUFS, buffer overflow) are absorbed by the same machinery.
// A frame its decoder rejects is dropped and counted on the udp plane
// (StatsFrame::frames_rejected), where the transport retransmits the
// message; on a tcp link or the control connection nothing can replace
// it, so the node aborts naming the frame type.
//
// Time: a Context::send_local delay d >= 1 becomes a wall-clock timer
// due `d * tick_us` microseconds after it was armed — a distributed
// node cannot detect global idleness to jump its clock, so timeouts are
// honest durations here — and delay 0 runs at the shard's dry point,
// which waits only for the node's current busy period, never for wall
// clock. The only shortcut is the controller's: once the whole cluster
// is idle except for armed timers it sends kTimeJump, and the node
// makes every timer armed at that instant due at once
// (ThreadedRuntime::expire_timers), so the next drain round fires them.
//
// Threading: one thread per node. It runs the epoll reactor and, in
// the same loop, drives the node's single protocol shard inline
// (ThreadedRuntime with RuntimeConfig::hosting,
// runtime/threaded_runtime.hpp) — the paper's model of a processor
// handling its messages one at a time. Each round decodes what the sockets delivered, injects it into
// the shard, and runs the shard until dry; handler output goes straight
// into the reactor's per-peer outbound queues and leaves coalesced at
// the next round boundary, and the round's completions leave as one
// kCompleteBatch frame (split only past kBatchEntryCap entries). Stats
// requests, metric resets and Shutdown are handled at a dry point of
// the same thread (staged events injected, the shard driven until dry,
// outbound queues flushed), so a stats reply or the load report counts
// only fully processed messages; the timers a time jump makes due fire
// in the next drain round. Nothing is shared between threads, so there are no
// atomics, fences or cross-thread queues here. More shards or reactor
// threads per node were measured and lost to this layout (DESIGN.md
// §12).
#pragma once

#include <cstdint>
#include <string>

#include "faults/retry.hpp"

namespace dcnt::net {

struct NodeConfig {
  std::uint32_t node_id{0};
  std::uint32_t num_nodes{1};
  /// Counter kind accepted by harness/factory.hpp.
  std::string counter{"tree"};
  std::int64_t min_processors{16};
  std::uint64_t seed{1};
  /// Controller's TCP port on 127.0.0.1 (required).
  std::uint16_t ctrl_port{0};
  /// Data plane: false = TCP mesh, true = lossy UDP + ReliableTransport.
  bool udp{false};
  /// Sender-side Bernoulli datagram loss (UDP mode), seeded.
  double drop_probability{0.0};
  /// Wall-clock microseconds per SimTime tick for send_local delays.
  std::int64_t tick_us{200};
  /// Retransmission knobs (UDP mode).
  RetryParams retry{};
  /// Upper bound on operation ids the controller will issue (capacity
  /// hint for the runtime's completion tables; 0 = default 1<<16).
  std::int64_t max_ops{0};
  /// > 0: multi-key mode — wrap the counter in a service/MultiCounter
  /// fabric of this many keys. Every kStartBatch entry then carries a
  /// key (kNoKey otherwise), messages between peers travel as kKeyedMsg
  /// frames, and the load report that answers kShutdown adds per-key
  /// rows and the LRU counters. The fabric's routing seed is the shared
  /// `seed`, identical on every node, so key -> rotation agrees
  /// cluster-wide.
  std::int64_t keys{0};
  /// LRU capacity for live per-key instances (multi-key mode;
  /// 0 = unbounded). Requires a service-evictable inner counter.
  std::int64_t key_capacity{0};
};

/// Runs the node until the controller sends Shutdown. Returns the
/// process exit code (0 on orderly shutdown).
int run_node(const NodeConfig& config);

}  // namespace dcnt::net
