// MPSC mailbox: the only channel into a runtime worker.
//
// Each worker of the threaded runtime (threaded_runtime.hpp) owns one
// Mailbox. Any thread — another worker's handler doing a cross-shard
// Context::send, or a driver thread starting an operation — may push;
// only the owning worker drains. The mutex hand-off is what turns
// message delivery into a happens-before edge: everything the sender
// wrote before push()/push_all() is visible to the receiver after
// drain(), which is the memory-level backing of the protocol
// state-slicing invariant (see Protocol::shard_safe).
//
// Deliberately a mutex + vector, not a lock-free queue: the runtime
// delivers in batches at both ends — senders accumulate a whole drain
// cycle's worth of events per destination and hand them over with one
// push_all() (one lock, at most one wake), and the owner swaps out the
// entire backlog with one drain(). The lock is therefore taken O(1)
// times per batch of deliveries and never held across a handler.
//
// Idle policy (the other half of the hot path): a worker that runs dry
// does NOT park on the condvar immediately. Parking is a futex syscall
// and — worse — forces the next sender to pay a second syscall to wake
// it, which under cross-shard ping-pong turns every message hand-off
// into two context switches. Instead wait() spins on an atomic
// pending-count: a short pause-loop first (useful only when another
// core can be making progress concurrently, so it is skipped on
// single-core hosts), then a bounded stretch of sched_yields (the right
// primitive when workers outnumber cores: it donates the core to
// whichever runnable worker has the mail), and only then the condvar.
// Senders consult owner_waiting_ under the mutex and notify only a
// parked owner, so the notify-per-push storm is gone entirely.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace dcnt {

/// One unit of work for a worker: a delivered message or an operation
/// start. Local messages never cross shards (send_local keeps them at
/// the handler's own processor), so none travels as a mailbox event.
struct RuntimeEvent {
  enum class Kind : std::uint8_t {
    kMessage,  ///< deliver msg to msg.dst (network, self-addressed, local)
    kStart,    ///< run start_inc/start_op at msg.dst for msg.op
  };
  RuntimeEvent() = default;
  /// Lets a queue emplace an event straight from the message it
  /// carries, without relying on parenthesized aggregate init.
  RuntimeEvent(Kind k, Message&& m) : kind(k), msg(std::move(m)) {}

  Kind kind{Kind::kMessage};
  Message msg;
};

/// Bounded spin budget for Mailbox::wait, resolved once per process.
/// Pause-spinning can only observe progress another core makes, so the
/// pause phase collapses to zero on single-core hosts; the yield phase
/// stays, because donating the core to a runnable producer is exactly
/// how an oversubscribed box makes progress.
struct MailboxIdlePolicy {
  int pause_iters;
  int yield_iters;
  static const MailboxIdlePolicy& instance();
};

class Mailbox {
 public:
  /// Multi-producer enqueue of a single item. Prefer push_all for
  /// anything that can batch — this is one lock per item.
  void push(RuntimeEvent&& ev) {
    bool wake_owner;
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(ev));
      pending_.store(items_.size(), std::memory_order_release);
      wake_owner = owner_waiting_;
    }
    if (wake_owner) cv_.notify_one();
  }

  /// Multi-producer batched enqueue: moves every item out of `evs`
  /// under one lock acquisition and with at most one wake, then clears
  /// `evs` retaining its capacity so callers can reuse the buffer
  /// allocation-free across cycles. No-op on an empty batch.
  void push_all(std::vector<RuntimeEvent>& evs) {
    if (evs.empty()) return;
    bool wake_owner;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) {
        // The common hand-off: the owner drained everything last cycle,
        // so the whole batch can be swapped in wholesale. The sender
        // inherits the drained vector's capacity for its next batch.
        std::swap(items_, evs);
      } else {
        items_.insert(items_.end(), std::make_move_iterator(evs.begin()),
                      std::make_move_iterator(evs.end()));
      }
      pending_.store(items_.size(), std::memory_order_release);
      wake_owner = owner_waiting_;
    }
    evs.clear();
    if (wake_owner) cv_.notify_one();
  }

  /// Single-consumer batch drain: swaps the backlog into `out` (cleared
  /// first). Returns false if there was nothing.
  bool drain(std::vector<RuntimeEvent>& out) {
    out.clear();
    if (pending_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    std::swap(items_, out);
    pending_.store(0, std::memory_order_relaxed);
    return true;
  }

  /// Queued items, readable from any thread. A zero is trustworthy the
  /// way the quiescence machinery needs it to be: producers store the
  /// new size release-ordered after enqueueing, so a reader that
  /// observes 0 after the producer's other effects sees a genuinely
  /// drained queue.
  std::size_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

  /// Blocks until mail is present or `stop` becomes true, spinning per
  /// MailboxIdlePolicy before parking on the condvar. Returns true if
  /// mail is present (stop may also be set; the caller checks).
  bool wait(const std::atomic<bool>& stop) {
    const MailboxIdlePolicy& idle = MailboxIdlePolicy::instance();
    for (int i = 0; i < idle.pause_iters + idle.yield_iters; ++i) {
      if (pending_.load(std::memory_order_acquire) > 0) return true;
      if (stop.load(std::memory_order_acquire)) return false;
      if (i < idle.pause_iters) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      } else {
        std::this_thread::yield();
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    owner_waiting_ = true;
    cv_.wait(lock, [&] {
      return !items_.empty() || stop.load(std::memory_order_acquire);
    });
    owner_waiting_ = false;
    return !items_.empty();
  }

  /// Wakes a wait()-blocked owner so it can observe a stop flag. Takes
  /// the mutex so the wake cannot slip between the owner's predicate
  /// check and its sleep.
  void wake() {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RuntimeEvent> items_;
  /// items_.size(), maintained under mu_ but readable lock-free by the
  /// owner's spin loop and fast-path drain check.
  ///
  /// alignas: the owner's wait() pause-loop reads pending_ back to back
  /// while producers are mutating mu_/items_ right next to it — on a
  /// shared line every producer lock/push would invalidate the owner's
  /// spin read (the mailbox-head false sharing this isolates). Padded
  /// onto its own line with owner_waiting_, whose producer-side reads
  /// happen under mu_ anyway.
  alignas(64) std::atomic<std::size_t> pending_{0};
  /// True only while the owner is parked (or committing to park) inside
  /// wait(); guarded by mu_. Senders notify only when it is set.
  bool owner_waiting_{false};
};

inline const MailboxIdlePolicy& MailboxIdlePolicy::instance() {
  static const MailboxIdlePolicy policy = [] {
    const unsigned cores = std::thread::hardware_concurrency();
    MailboxIdlePolicy p;
    // ~a microsecond of pause-spin, but only where a second core can be
    // filling the mailbox meanwhile; a few yields catch work that is
    // one scheduler hand-off away. Both budgets are deliberately small:
    // an oversubscribed box (workers > cores) wants idle workers OFF
    // the run queue — a dry worker that keeps yielding is rescheduled
    // over and over and steals timeslices from the one worker that has
    // the mail. Parking is cheap here precisely because senders batch:
    // with push_all the wake is paid once per flushed batch, not per
    // message, and only when the owner is actually parked.
    p.pause_iters = cores > 1 ? 256 : 0;
    p.yield_iters = 64;
    return p;
  }();
  return policy;
}

}  // namespace dcnt
