// Protocol interface.
//
// A Protocol object holds the *entire* distributed state of an algorithm
// (every processor's local memory) as one value. This is a simulation
// convenience, not shared memory: the only channel through which
// knowledge may move between processors is Context::send(). Protocols
// must be written so that a handler for processor p reads and writes
// only p's slice of the state; the tests enforce the observable
// consequence (delivery-order invariance of all results and loads).
//
// Value semantics (CounterProtocol::clone_counter()) are load-bearing:
// the lower-bound adversary (§3 of the paper) snapshots the whole
// system to dry-run candidate operations before committing to the one
// with the longest communication list.
//
// There is no clock in the model (§2): a handler sends messages, which
// count, and computes locally for free. Context::send_local is the one
// way to schedule local work, either after a delay (a timer) or at the
// processor's next dry point (delay 0).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <typeinfo>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace dcnt {

/// Interface handed to protocol handlers for interacting with the world.
class Context {
 public:
  virtual ~Context() = default;

  /// Send a network message from msg.src to msg.dst. Must have
  /// 0 <= src,dst < num_processors. Counted in all load metrics. The
  /// context takes ownership of the message and moves it onward, so a
  /// message costs no copy between the handler and the queue it lands
  /// in; a sender that keeps the message (a retransmission buffer)
  /// passes an explicit copy, send(Message(kept)).
  virtual void send(Message&& msg) = 0;

  /// Deliver a free local message (local=true: no load, no delay draw)
  /// to p at p's first dry point at least `delay` >= 0 ticks from now;
  /// delay 0 means p's next dry point, which lets a handler batch what
  /// arrives in one burst. A tick is one simulated time unit (the
  /// simulator), one handled event of p's shard (the in-process
  /// threaded runtime), or tick_us of wall clock (a cluster node). A
  /// dry point is where p has nothing else to run: in the simulator,
  /// after the events already due at the current time; in the runtime,
  /// once p's shard has no mail and no ready event left. The order
  /// between a delay-0 message and a timer due at the same dry point is
  /// not specified (the runtime runs delay-0 messages first, the
  /// simulator runs both in arming order). p is the processor whose
  /// handler is running: local work stays at its processor (the
  /// threaded runtime checks it).
  virtual void send_local(ProcessorId p, std::int32_t tag, MessageArgs args,
                          SimTime delay) = 0;

  /// Report that operation `op` completed with `value` at its initiator.
  virtual void complete(OpId op, Value value) = 0;

  /// Per-simulation random stream (cloned with the simulator).
  virtual class Rng& rng() = 0;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::size_t num_processors() const = 0;

  /// Deliver one message to its destination processor.
  virtual void on_message(Context& ctx, const Message& msg) = 0;

  /// In-place state copy from a same-type protocol, reusing this
  /// object's already-allocated buffers — the cheap half of the
  /// simulator's snapshot/restore fast path. Returns false when
  /// `other`'s dynamic type is not this one's (the caller then falls
  /// back to CounterProtocol::clone_counter()). Implement via
  /// dcnt::protocol_assign; the default declines so value-semantic
  /// correctness never depends on it.
  virtual bool try_assign_from(const Protocol& other) {
    (void)other;
    return false;
  }

  /// Failure-detector hook: a transport layer (faults/retry.hpp) calls
  /// this at processor `self` after exhausting retransmissions toward
  /// `peer`. `self` may react by sending messages (it is inside a
  /// handler). Suspicion is only as good as the timeout behind it —
  /// in a truly asynchronous system a slow peer is indistinguishable
  /// from a dead one — so implementations must make re-suspicion and
  /// duplicate reactions idempotent. Default: ignore.
  virtual void on_peer_unreachable(Context& ctx, ProcessorId self,
                                   ProcessorId peer) {
    (void)ctx;
    (void)self;
    (void)peer;
  }

  /// Shard-execution contract. The threaded runtime (src/runtime/) may
  /// run handlers for *different* processors of this one object
  /// concurrently, one thread per shard of the processor set. That is
  /// safe exactly when the protocol upholds the state-slicing invariant
  /// above in the strong, memory-level sense:
  ///   - a handler running at processor p writes only state owned by p,
  ///     and ownership moves between processors only via messages, so
  ///     any two conflicting accesses are ordered by a message chain
  ///     (the runtime turns every delivery into a happens-before edge);
  ///   - topology/wiring tables fixed at construction may be read from
  ///     anywhere;
  ///   - protocol-global counters (stats, live-work gauges) use
  ///     RelaxedCounter (support/relaxed.hpp), never plain integers;
  ///   - all randomness comes from ctx.rng(), which the runtime hands
  ///     out per worker.
  /// Protocols keeping other cross-processor mutable aids (global logs,
  /// lazily built caches) must shard them, switch them off in
  /// on_shard_start(), or decline here. Default: decline — single-shard
  /// execution is always allowed.
  virtual bool shard_safe() const { return false; }

  /// Called once by the threaded runtime, after construction and before
  /// any handler runs, when the protocol is about to execute across
  /// `workers` shards. Protocols use it to disable optional
  /// cross-processor debug structures (e.g. the tree's retirement
  /// log). Never called for simulator execution.
  virtual void on_shard_start(std::size_t workers) { (void)workers; }

  /// Human-readable short name ("tree(k=3)", "central", ...).
  virtual std::string name() const = 0;

  /// Hook for protocol-internal sanity checks at quiescence; the harness
  /// calls this between operations. Default: nothing to check.
  virtual void check_quiescent(std::size_t /*ops_completed*/) const {}

  /// Service-fabric hooks (src/service/multi_counter.hpp). A protocol is
  /// *evictable* when, at any quiescent-per-key moment, its entire
  /// durable state collapses to one Value — so the fabric's LRU tier may
  /// destroy the instance and later rebuild it from service_value() via
  /// service_rehydrate(). That requires all non-value state to be
  /// strictly per-op scratch (nothing parked between ops at any
  /// processor). Central qualifies; the tree's shape and the combining
  /// funnel's residue do not. Default: not evictable — the fabric then
  /// keeps every touched instance resident.
  virtual bool service_evictable() const { return false; }
  /// Durable value for eviction. Only meaningful if service_evictable().
  virtual Value service_value() const { return 0; }
  /// Seed a freshly constructed instance with a previously evicted
  /// value. Only meaningful if service_evictable().
  virtual void service_rehydrate(Value value) { (void)value; }
};

/// A distributed counter: the abstract data type of the paper (§2).
class CounterProtocol : public Protocol {
 public:
  /// Begin an inc initiated at processor `origin`. The implementation
  /// sends whatever messages the protocol requires and eventually calls
  /// ctx.complete(op, value) at the initiator. A counter whose value
  /// happens to live at the initiator may complete immediately with no
  /// messages (the paper's degenerate centralized case).
  virtual void start_inc(Context& ctx, ProcessorId origin, OpId op) = 0;

  /// Generic operation entry point for services richer than a counter
  /// (e.g. the tree priority queue takes {kind, key} arguments). The
  /// default ignores the arguments and treats the operation as an inc.
  virtual void start_op(Context& ctx, ProcessorId origin, OpId op,
                        std::span<const std::int64_t> args) {
    (void)args;
    start_inc(ctx, origin, op);
  }

  /// Deep-copy the entire distributed state.
  virtual std::unique_ptr<CounterProtocol> clone_counter() const = 0;
};

/// Canonical try_assign_from body: copy-assign when the dynamic types
/// match exactly (copy assignment of vectors-of-state reuses capacity,
/// which is the whole point). Derived must be a final class — an exact
/// typeid match on a non-final type would slice a further-derived
/// object's state.
template <class Derived>
bool protocol_assign(Derived& self, const Protocol& other) {
  static_assert(std::is_final_v<Derived>,
                "protocol_assign requires a final protocol type");
  if (typeid(other) != typeid(Derived)) return false;
  if (&other != &self) self = static_cast<const Derived&>(other);
  return true;
}

}  // namespace dcnt
