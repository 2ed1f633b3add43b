// MultiCounter: the counter-as-a-service fabric.
//
// One MultiCounter multiplexes a large keyspace of independent counters
// over a single processor set [0, n). Every key owns a lazily created
// instance of the configured inner protocol (any CounterProtocol; the
// cluster additionally requires shard_safe()), rotated per key so
// structurally identical instances pin their hot processor on different
// fabric processors: fabric processor p plays inner processor
// (p - offset(key)) mod n, with offset(key) = mix64(seed ^ key) mod n.
//
// The paper's theorem survives intact *per key*: each instance is the
// unmodified protocol over n processors, so a hot key's bottleneck
// processor carries the same m_p it would as the only counter in the
// system (test_perf_smoke pins this exactly for central). What the
// fabric buys is aggregate scale — distinct keys' bottlenecks land on
// distinct processors, so total inc/s grows with shards while every
// individual key still pays the inherent Ω(k) price. That is ROADMAP
// item 3's claim made executable.
//
// Translation happens only at the boundaries: start_op / on_message map
// fabric ids to inner ids before invoking the instance, and the wrapped
// Context maps sends back and stamps msg.key, so the inner protocol
// never learns it is rotated. Inner argument words are opaque — they
// round-trip within the same instance (same offset), including across
// nodes, because offset(key) is a pure function of (seed, key).
//
// Ops address a key by their first argument word:
//   runtime.begin_op(origin, {key}); a cluster node builds that word
//   from the key of a kStartBatch entry.
// A bare begin_inc (no args) counts on key 0.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/key_directory.hpp"
#include "sim/protocol.hpp"
#include "sim/types.hpp"

namespace dcnt::service {

struct MultiCounterOptions {
  /// Routing seed — must match across all nodes of a cluster.
  std::uint64_t seed{1};
  /// LRU capacity for live instances; 0 = unbounded. Nonzero requires
  /// the inner protocol to be service_evictable().
  std::size_t capacity{0};
};

class MultiCounter final : public CounterProtocol {
 public:
  /// `prototype` is a pristine instance of the inner protocol; per-key
  /// instances are cloned from it on first touch.
  MultiCounter(std::unique_ptr<CounterProtocol> prototype,
               MultiCounterOptions options);

  std::size_t num_processors() const override;
  void start_inc(Context& ctx, ProcessorId origin, OpId op) override;
  void start_op(Context& ctx, ProcessorId origin, OpId op,
                std::span<const std::int64_t> args) override;
  void on_message(Context& ctx, const Message& msg) override;
  std::unique_ptr<CounterProtocol> clone_counter() const override;
  std::string name() const override;
  /// The directory is internally synchronized (shared_mutex); sharding
  /// is safe exactly when the inner protocol's is.
  bool shard_safe() const override;
  void on_shard_start(std::size_t workers) override;
  /// Checks every live instance's own invariant against its completed
  /// count and that completions sum to ops_completed across live +
  /// evicted keys.
  void check_quiescent(std::size_t ops_completed) const override;

  const KeyDirectory& directory() const { return directory_; }
  KeyDirectoryStats lru_stats() const { return directory_.stats(); }
  std::vector<KeyDirectory::LogRecord> lru_log() const {
    return directory_.log();
  }
  /// Final per-key values (evictable inner only), sorted by key.
  std::vector<std::pair<KeyId, Value>> key_values() const {
    return directory_.key_values();
  }
  ProcessorId offset_of(KeyId key) const { return directory_.offset_of(key); }

  void start_keyed(Context& ctx, ProcessorId origin, OpId op, KeyId key);

 private:
  ProcessorId to_fabric(ProcessorId inner, ProcessorId offset) const {
    return static_cast<ProcessorId>((inner + offset) % n_);
  }
  ProcessorId to_inner(ProcessorId fabric, ProcessorId offset) const {
    return static_cast<ProcessorId>((fabric - offset + n_) % n_);
  }

  std::unique_ptr<CounterProtocol> prototype_;
  std::int64_t n_;
  MultiCounterOptions options_;
  KeyDirectory directory_;
};

}  // namespace dcnt::service
