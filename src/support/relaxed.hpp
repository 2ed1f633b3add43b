// A copyable counter with atomic mutation, for protocol bookkeeping
// that crosses processor boundaries.
//
// Protocol objects are values: clone_counter()/try_assign_from copy the
// whole distributed state, so raw std::atomic members are off the table
// (atomics are neither copyable nor assignable). At the same time the
// threaded runtime (src/runtime/) executes handlers for different
// processors concurrently, so any counter bumped from handlers at
// arbitrary processors — stats totals, live-work gauges — is a genuine
// cross-thread data race if it stays a plain int64.
//
// RelaxedCounter resolves both constraints: mutations are relaxed
// atomic RMWs (counters tolerate any interleaving; nobody reads them
// for synchronization), while copy construction/assignment transfer the
// plain value, keeping protocol_assign and vector-of-state copies
// working unchanged. Reads made after the runtime has quiesced (or in
// single-threaded simulator runs) see exact totals: quiescence is
// established through the runtime's acquire/release in-flight counter,
// which orders every handler's relaxed writes before the reader.
#pragma once

#include <atomic>
#include <cstdint>

namespace dcnt {

class RelaxedCounter {
 public:
  RelaxedCounter(std::int64_t v = 0) : v_(v) {}  // NOLINT: implicit on purpose
  RelaxedCounter(const RelaxedCounter& other) : v_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  std::int64_t load() const { return v_.load(std::memory_order_relaxed); }
  operator std::int64_t() const { return load(); }  // NOLINT: counter reads

  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator--() {
    v_.fetch_sub(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(std::int64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }

  /// Monotonic max: lock-free compare-exchange loop, so concurrent
  /// update_max calls never lose the largest candidate.
  void update_max(std::int64_t candidate) {
    std::int64_t cur = load();
    while (candidate > cur &&
           !v_.compare_exchange_weak(cur, candidate,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<std::int64_t> v_;
};

}  // namespace dcnt
