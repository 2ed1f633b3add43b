// Per-processor message-load accounting.
//
// This is the quantity the paper's theorems are about: m_p, the number
// of messages processor p sends or receives over an operation sequence
// (§3, "Definitions"). The simulator updates these counters on every
// non-local message; protocols cannot forget to count. It is the one
// load ledger of every substrate: per-processor and per-key loads only.
//
// Cache-line audit (DESIGN.md §16): the counters here are plain int64
// vectors, not atomics, on purpose — every Metrics instance has exactly
// one writer (the simulator's single thread, or the one runtime shard
// that owns it; see ThreadedRuntime::Shard), and cross-shard totals are
// produced by merge_from AFTER quiescence. No two threads ever touch
// one instance concurrently, so there is no hot atomic pair to pad;
// adding alignas here would spend memory on a hazard the ownership
// model already rules out. Counters that genuinely cross shard
// boundaries inside protocols use support/relaxed.hpp instead.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"
#include "support/stats.hpp"

namespace dcnt {

/// Per-key slice of a processor's load: messages sent/received by one
/// processor on behalf of one counter key.
struct KeyLoad {
  std::int64_t sent{0};
  std::int64_t received{0};
  std::int64_t total() const { return sent + received; }
};

class Metrics {
 public:
  /// key -> (processor -> load slice). Sparse: only (key, processor)
  /// pairs that actually moved messages appear.
  using KeyLoadMap =
      std::unordered_map<KeyId, std::unordered_map<ProcessorId, KeyLoad>>;

  Metrics() = default;
  explicit Metrics(std::size_t num_processors);

  /// `key` attributes the message to one counter of the multi-key
  /// fabric; kNoKey (the default, and what all pre-fabric callers pass)
  /// keeps the global counters only.
  void on_send(ProcessorId p, std::size_t words, KeyId key = kNoKey);
  void on_receive(ProcessorId p, std::size_t words, KeyId key = kNoKey);

  std::size_t num_processors() const { return sent_.size(); }

  std::int64_t sent(ProcessorId p) const { return sent_.at(to_idx(p)); }
  std::int64_t received(ProcessorId p) const { return received_.at(to_idx(p)); }

  /// m_p: messages sent plus received by p (the paper's message load).
  std::int64_t load(ProcessorId p) const {
    return sent_.at(to_idx(p)) + received_.at(to_idx(p));
  }

  /// Word load of p: payload words sent plus received. The paper keeps
  /// messages at O(log n) bits, so for its protocols the word load is a
  /// constant multiple of m_p; services with fat root state (the tree
  /// priority queue) diverge — this is how that shows up per processor.
  std::int64_t word_load(ProcessorId p) const {
    return words_.at(to_idx(p));
  }
  /// max_p word_load(p) — the bottleneck in words rather than messages.
  std::int64_t max_word_load() const;
  /// Largest single message payload seen (words).
  std::int64_t max_message_words() const { return max_message_words_; }

  /// Total messages sent system-wide.
  std::int64_t total_messages() const { return total_messages_; }
  /// Total payload words sent (message-size accounting).
  std::int64_t total_words() const { return total_words_; }

  /// max_p m_p and its arg — the bottleneck processor b of §3.
  std::int64_t max_load() const;
  ProcessorId bottleneck() const;

  /// All loads as a Summary (for percentiles / histograms).
  Summary load_summary() const;

  /// Per-key per-processor loads (empty unless keyed traffic ran).
  const KeyLoadMap& key_loads() const { return key_loads_; }
  /// max_p m_p^k — the paper's bottleneck restricted to key k's traffic.
  /// Returns 0 for keys that never moved a message.
  std::int64_t key_max_load(KeyId key) const;
  /// Total messages attributed to key k.
  std::int64_t key_total_messages(KeyId key) const;

  /// Element-wise accumulation of another Metrics over the same
  /// processor set: the threaded runtime counts loads per worker shard
  /// and merges them here at quiescence, so reports read one Metrics
  /// whichever backend produced it.
  void merge_from(const Metrics& other);

  /// Adds a reported row (the cluster controller's merge): p's overall
  /// load (kNoKey), or its slice of `key`, already part of the former.
  void add_load(ProcessorId p, KeyLoad load, KeyId key = kNoKey);

  void reset();

 private:
  static std::size_t to_idx(ProcessorId p) { return static_cast<std::size_t>(p); }

  std::vector<std::int64_t> sent_;
  std::vector<std::int64_t> received_;
  std::vector<std::int64_t> words_;
  KeyLoadMap key_loads_;
  std::int64_t total_messages_{0};
  std::int64_t total_words_{0};
  std::int64_t max_message_words_{0};
};

}  // namespace dcnt
