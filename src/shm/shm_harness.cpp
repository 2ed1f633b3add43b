#include "shm/shm_harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "concurrent/history.hpp"
#include "support/check.hpp"
#include "traffic/recorder.hpp"
#include "traffic/shape.hpp"

namespace dcnt::shm {

namespace {

/// Non-ticket counters: concurrent read() samples the sampler thread
/// takes for the inc/read check.
constexpr std::size_t kReadSamples = 128;

/// Sense-reversing spin barrier separating the warmup and measured
/// phases. One crossing per run: main + workers (+ sampler) all arrive,
/// the last arrival flips the phase, and the acq_rel fetch_add chain
/// makes every warmup increment happen-before every measured-phase
/// access (so the sampler's first read() already covers all of warmup).
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties) : parties_(parties) {}

  void wait() {
    const std::uint64_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.fetch_add(1, std::memory_order_release);
    } else {
      while (phase_.load(std::memory_order_acquire) == phase) {
        std::this_thread::yield();
      }
    }
  }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
};

}  // namespace

ThroughputResult run_shm_throughput(ShmKind kind, const ShmOptions& options) {
  auto counter = make_shm_counter(kind);
  DCNT_CHECK(counter != nullptr);

  const std::size_t threads = options.threads > 0 ? options.threads : 1;
  const std::size_t ops = options.ops > 0 ? options.ops : 1;
  const std::size_t inflight = options.inflight > 0 ? options.inflight : 1;
  const std::size_t warmup = options.warmup;
  const bool tickets = counter->returns_value();
  const bool open_loop = options.open_rate > 0.0;
  // The sampler only makes sense for counters whose read() is itself
  // linearizable mid-run (the sharded reduction). Ticket counters prove
  // their ordering through the values; flat/funnel read() is only exact
  // at quiescence (it may lag a combiner's local tally), so sampling it
  // live would "detect" a violation the contract never promised away.
  const bool sample_reads = !tickets;

  counter->on_threads(threads);

  ThroughputResult out;
  out.counter = counter->name();
  out.n = threads;
  out.workers = threads;
  out.ops = ops;
  out.warmup = warmup;

  const PlacementPlan plan = plan_placement(options.placement, threads);
  out.placement = to_string(options.placement);
  out.placement_supported =
      options.placement == Placement::kNone || plan.supported;

  traffic::TailRecorder recorder(ops);

  // Open loop: the deterministic schedule, computed up front so workers
  // only claim-and-sleep on the hot path.
  std::vector<std::int64_t> offsets;
  if (open_loop) {
    traffic::RateShape rate_shape;
    rate_shape.rate = options.open_rate;
    traffic::ArrivalTimeline timeline(rate_shape);
    offsets.resize(ops);
    for (std::size_t i = 0; i < ops; ++i) offsets[i] = timeline.next_ns();
  }

  concurrent::HistoryBuffer history(ops);

  // One slot per measured op, written exactly once by the claiming
  // thread; the join orders main's reads.
  std::vector<Value> values(tickets ? ops : 0);

  std::atomic<std::size_t> warmup_cursor{0};
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::int64_t> start_ns{0};
  std::atomic<std::size_t> pinned{0};
  std::atomic<bool> sampler_done{false};
  SpinBarrier barrier(threads + 1 + (sample_reads ? 1 : 0));

  auto worker = [&](std::size_t t) {
    if (pin_thread_to_cpu(plan.cpu_for(t))) {
      pinned.fetch_add(1, std::memory_order_acq_rel);
    }
    // Warmup: same batched loop, nothing recorded.
    for (;;) {
      const std::size_t start =
          warmup_cursor.fetch_add(inflight, std::memory_order_relaxed);
      if (start >= warmup) break;
      counter->inc_batch(t, std::min(inflight, warmup - start));
    }
    barrier.wait();
    std::int64_t expected = 0;
    start_ns.compare_exchange_strong(expected, traffic::TailRecorder::now_ns(),
                                     std::memory_order_acq_rel);
    const std::int64_t epoch = start_ns.load(std::memory_order_acquire);

    if (!open_loop) {
      // Closed loop, F ops per batch: invoke all F, submit once,
      // respond all F — the batch linearizes inside every one of the F
      // windows, so the captured history is honest at any F.
      for (;;) {
        const std::size_t start =
            cursor.fetch_add(inflight, std::memory_order_relaxed);
        if (start >= ops) break;
        const std::size_t count = std::min(inflight, ops - start);
        const std::int64_t inv = traffic::TailRecorder::now_ns();
        for (std::size_t j = 0; j < count; ++j) {
          const auto op = static_cast<OpId>(start + j);
          recorder.on_issue(op, inv);
          history.on_invoke(op, inv);
        }
        const std::uint64_t base = counter->inc_batch(t, count);
        const std::int64_t resp = traffic::TailRecorder::now_ns();
        for (std::size_t j = 0; j < count; ++j) {
          const auto op = static_cast<OpId>(start + j);
          recorder.on_complete(op, resp);
          history.on_response(
              op, resp, tickets ? static_cast<Value>(base + j) : Value{0});
          if (tickets) values[start + j] = static_cast<Value>(base + j);
        }
      }
    } else {
      // Open loop: claim the next scheduled arrival, sleep to its
      // offset, issue one inc. Latency is charged from the scheduled
      // time; the history gets the actual call time.
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= ops) break;
        const std::int64_t scheduled = epoch + offsets[i];
        const auto deadline = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(scheduled));
        std::this_thread::sleep_until(deadline);
        const auto op = static_cast<OpId>(i);
        recorder.on_issue(op, scheduled);
        history.on_invoke(op, traffic::TailRecorder::now_ns());
        const std::uint64_t base = counter->inc_batch(t, 1);
        const std::int64_t resp = traffic::TailRecorder::now_ns();
        recorder.on_complete(op, resp);
        history.on_response(op, resp,
                            tickets ? static_cast<Value>(base) : Value{0});
        if (tickets) values[i] = static_cast<Value>(base);
      }
    }
  };

  // Sampler (sharded counter only): interleaves exact read()s with the
  // measured increments; its records feed check_inc_read_linearizable.
  std::vector<CounterOpRecord> reads;
  std::thread sampler;
  if (sample_reads) {
    sampler = std::thread([&] {
      barrier.wait();
      while (!sampler_done.load(std::memory_order_acquire)) {
        if (reads.size() < kReadSamples) {
          CounterOpRecord r;
          r.op = static_cast<OpId>(ops + reads.size());
          r.invoked = traffic::TailRecorder::now_ns();
          // The barrier ordered every warmup inc before this read, so
          // the sum covers warmup; subtract it to land in the measured
          // ops' value space the checker expects.
          r.value = static_cast<Value>(counter->read() - warmup);
          r.responded = traffic::TailRecorder::now_ns();
          reads.push_back(r);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  barrier.wait();
  std::int64_t expected = 0;
  start_ns.compare_exchange_strong(expected, traffic::TailRecorder::now_ns(),
                                   std::memory_order_acq_rel);
  for (auto& th : pool) th.join();
  // Join overhead lands in the wall clock (microseconds against
  // millisecond-scale runs) — acceptable for a rate denominator.
  const std::int64_t end_ns = traffic::TailRecorder::now_ns();
  if (sampler.joinable()) {
    sampler_done.store(true, std::memory_order_release);
    sampler.join();
  }

  out.wall_seconds =
      static_cast<double>(end_ns - start_ns.load(std::memory_order_acquire)) /
      1e9;
  out.ops_per_sec = out.wall_seconds > 0.0
                        ? static_cast<double>(ops) / out.wall_seconds
                        : 0.0;
  fill_traffic(out, recorder.stats());
  out.pinned_workers = pinned.load(std::memory_order_acquire);

  // Exactness: every counter lands on precisely warmup + ops.
  const std::uint64_t final_value = counter->read();
  DCNT_CHECK_MSG(final_value == warmup + ops,
                 "shm counter final value != warmup + ops");

  if (tickets) {
    // The measured tickets follow the warmup's.
    verify_values(out, values, {}, static_cast<Value>(warmup));
  } else {
    out.values_ok = true;  // the exact-final-value check above IS the claim
  }

  fill_linearizability(
      out, tickets ? check_linearizable(history)
                   : check_inc_read_linearizable(history.snapshot(), reads));
  return out;
}

}  // namespace dcnt::shm
