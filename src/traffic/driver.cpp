#include "traffic/driver.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dcnt::traffic {

LoadDriver::LoadDriver(LoadPort& port, const DriverOptions& options,
                       std::size_t ops, std::size_t unit)
    : port_(port),
      options_(options),
      total_(options.warmup + ops),
      unit_(std::max<std::size_t>(1, unit)),
      window_(options.quiesce_between_ops
                  ? 1
                  : std::max<std::size_t>(1, options.concurrency) *
                        std::max<std::size_t>(1, options.inflight)),
      // Sized by op id: the warmup slots simply stay empty.
      recorder_(total_, options.slo_ns, options.exact_cap) {
  DCNT_CHECK(ops > 0);
  DCNT_CHECK_MSG(
      options.history == nullptr || options.history->capacity() >= total_,
      "history buffer smaller than the op-id space");
  // Burst runs report SLO attainment split by the scheduled arrival's
  // duty phase.
  if (options_.shape.rate > 0.0 &&
      options_.shape.kind == RateShape::Kind::kBurst) {
    recorder_.enable_phases();
  }
}

DriverResult LoadDriver::run() {
  if (options_.warmup > 0) {
    // Warmup always runs closed-loop, even ahead of an open-loop
    // measured phase, at the measured window so steady-state buffer
    // sizes match what the run will need.
    run_phase(options_.warmup, /*measured=*/false, /*closed=*/true);
    port_.reset_metrics();
  }
  run_phase(total_, /*measured=*/true, /*closed=*/options_.shape.rate <= 0.0);

  DriverResult out;
  out.ops = issued() - options_.warmup;
  const std::int64_t last = last_completion_ns_.load();
  if (last > 0) {
    out.wall_seconds = static_cast<double>(last - first_issue_ns_) / 1e9;
  }
  if (out.wall_seconds > 0.0) {
    out.ops_per_sec = static_cast<double>(out.ops) / out.wall_seconds;
  }
  out.traffic = recorder_.stats();
  return out;
}

void LoadDriver::run_phase(std::size_t end, bool measured, bool closed) {
  // Quiescent here: every entry before the phase was issued.
  cursor_.store(issued());
  end_ = end;
  measured_ = measured;
  closed_ = closed;
  settled_ = false;
  credits_ = 0;
  no_more_.store(false);
  if (measured) {
    first_issue_ns_ = TailRecorder::now_ns();
    if (options_.duration_s > 0.0) {
      deadline_ns_ = first_issue_ns_ +
                     static_cast<std::int64_t>(options_.duration_s * 1e9);
    }
  }
  if (closed) {
    for (std::size_t i = 0; i < window_ && issue_unit_now(); ++i) {
    }
  } else {
    run_open_loop();
  }
  drain();
  // Let stragglers (stale timers, trailing maintenance traffic) settle
  // so the metrics and protocol state can be read.
  if (!settled_) port_.quiesce();
}

bool LoadDriver::issue_unit_now() {
  // One stamp serves the deadline check and the unit's send time, which
  // for a unit no completion waited for IS its scheduled time.
  const std::int64_t t = TailRecorder::now_ns();
  return issue_unit(t, t);
}

bool LoadDriver::issue_unit(std::int64_t scheduled_ns, std::int64_t sent_ns) {
  if (scheduled_ns >= deadline_ns_) {
    no_more_.store(true);
    return false;
  }
  const std::size_t first = cursor_.fetch_add(unit_);
  if (first >= end_) {
    no_more_.store(true);
    return false;
  }
  const std::size_t count = std::min(unit_, end_ - first);
  for (std::size_t i = 0; i < count; ++i) {
    const OpId op = port_.issue(first + i);
    if (measured_) stamp(op, scheduled_ns, sent_ns);
  }
  return true;
}

void LoadDriver::stamp(OpId op, std::int64_t scheduled_ns,
                       std::int64_t sent_ns) {
  if (recorder_.phases_enabled()) {
    recorder_.on_issue(op, scheduled_ns,
                       options_.shape.high_at(
                           static_cast<double>(scheduled_ns - first_issue_ns_) /
                           1e9));
  } else {
    recorder_.on_issue(op, scheduled_ns);
  }
  if (options_.history) options_.history->on_invoke(op, sent_ns);
}

void LoadDriver::run_open_loop() {
  ArrivalTimeline timeline(options_.shape);
  std::int64_t offset = timeline.next_ns();
  std::size_t entry = options_.warmup;
  const auto more = [&] {
    return entry < total_ && first_issue_ns_ + offset < deadline_ns_;
  };
  while (more()) {
    // Issue every arrival that is due — all at once if the driver fell
    // behind, never skipped: the scheduled-time stamp charges the
    // lateness to the op. The history gets the actual send time; a
    // backdated invoke would tighten intervals unsoundly.
    const std::int64_t now = TailRecorder::now_ns();
    for (; more() && first_issue_ns_ + offset <= now;
         offset = timeline.next_ns()) {
      cursor_.fetch_add(1);
      const std::int64_t sent = TailRecorder::now_ns();
      const OpId op = port_.issue(entry++);
      stamp(op, first_issue_ns_ + offset, sent);
    }
    if (more()) port_.wait(first_issue_ns_ + offset);
  }
  no_more_.store(true);
}

void LoadDriver::drain() {
  for (;;) {
    if (no_more_.load() && done_.load() == issued()) return;
    if (options_.quiesce_between_ops && closed_ && done_.load() == issued()) {
      // Sequential schedule: the op's entire message activity settles
      // before the next op starts.
      port_.quiesce();
      settled_ = true;
      if (issue_unit_now()) settled_ = false;
      continue;
    }
    port_.wait(LoadPort::kForever);
  }
}

bool LoadDriver::on_complete(std::span<const Completion> done) {
  if (done.empty()) return false;
  // Phases never overlap (each ends quiescent), so one op tells.
  const bool measured =
      static_cast<std::size_t>(done.front().op) >= options_.warmup;
  // One stamp for every response in the span, each at or after its
  // true response; it is also the scheduled time of every reissue.
  std::int64_t t = 0;
  if (measured) {
    t = TailRecorder::now_ns();
    for (const Completion& c : done) {
      recorder_.on_complete(c.op, t);
      if (options_.history) options_.history->on_response(c.op, t, c.value);
    }
  }
  const bool settle = options_.quiesce_between_ops && closed_;
  if (closed_ && !settle) {
    // Each completed client immediately issues its next unit. One more
    // read, before the first reissue reaches the port, is the invoke of
    // them all: at or before each true send, and after t so a client's
    // consecutive ops stay ordered in the history.
    const std::int64_t sent =
        measured ? std::max(TailRecorder::now_ns(), t + 1) : 0;
    for (std::size_t i = 0; i < done.size(); ++i) {
      // Wider units reissue once a whole unit's worth of slots has
      // freed, or when nothing else is in flight (the span's earlier
      // completions are not in done_ yet), so a short tail can never
      // strand credits.
      if (unit_ == 1) {
        issue_unit(t, sent);
      } else if (++credits_ >= unit_ || issued() == done_.load() + i + 1) {
        credits_ = 0;
        issue_unit(t, sent);
      }
    }
  }
  const std::size_t count = done_.fetch_add(done.size()) + done.size();
  if (count != issued()) return false;
  // Everything issued has completed: the last measured completion so
  // far, and the end of the phase once nothing more will be issued.
  if (measured) last_completion_ns_.store(t, std::memory_order_relaxed);
  return settle || no_more_.load();
}

}  // namespace dcnt::traffic
