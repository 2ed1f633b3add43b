#include "harness/cluster.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "concurrent/history.hpp"
#include "harness/factory.hpp"
#include "harness/schedule.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "support/check.hpp"
#include "traffic/recorder.hpp"
#include "traffic/shape.hpp"

namespace dcnt::net {

std::string find_node_binary(const std::string& override_path) {
  if (!override_path.empty()) return override_path;
  if (const char* env = std::getenv("DCNT_NODE_BIN")) return env;
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) {
    buf[len] = '\0';
    std::string dir(buf);
    const std::size_t slash = dir.find_last_of('/');
    if (slash != std::string::npos) dir.resize(slash);
    const std::string candidates[] = {
        dir + "/dcnt_node",          // alongside the caller
        dir + "/../src/dcnt_node",   // build/{tests,bench,examples} -> build/src
        dir + "/src/dcnt_node",      // build root
    };
    for (const std::string& cand : candidates) {
      if (::access(cand.c_str(), X_OK) == 0) return cand;
    }
  }
  DCNT_CHECK_MSG(false,
                 "cannot locate the dcnt_node binary (set DCNT_NODE_BIN or "
                 "ClusterOptions::node_binary)");
  return "";
}

namespace {

using WallClock = std::chrono::steady_clock;
using traffic::TailRecorder;

pid_t spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  DCNT_CHECK(pid >= 0);
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed; the controller sees the early exit
  }
  return pid;
}

/// Best-effort cleanup on error paths that unwind normally. (DCNT_CHECK
/// aborts without unwinding; orphaned nodes then exit on their own when
/// the controller's sockets close under them.)
struct ChildReaper {
  std::vector<pid_t> pids;
  ~ChildReaper() {
    for (pid_t pid : pids) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

class Controller {
 public:
  explicit Controller(const ClusterOptions& opt)
      : opt_(opt) {}
  ClusterResult run();

 private:
  enum class Phase { kHello, kReady, kRun, kQuiesce, kKeyedStats, kShutdown };

  /// Ops kept outstanding per closed-loop slot; quiesce_between_ops
  /// already forces a window of 1 at the call sites. `inflight` is the
  /// concurrency-plane alias and supersedes `pipeline` when set.
  std::size_t pipeline_depth() const {
    if (opt_.inflight > 0) return opt_.inflight;
    return opt_.pipeline > 0 ? opt_.pipeline : 1;
  }

  bool keyed() const { return opt_.keys > 0; }
  /// Schedule entries per issuance unit. Batching is a closed-loop
  /// multi-key construct: quiesce_between_ops needs one op in flight and
  /// the open-loop clock paces individual ops, so both force 1.
  std::size_t batch_size() const {
    if (!keyed() || opt_.quiesce_between_ops || opt_.open_rate > 0.0) return 1;
    return std::max<std::size_t>(1, opt_.batch);
  }

  void on_frame(int conn, const FrameView& frame);
  void issue_next(std::int64_t sched_ns = -1);
  void on_complete(OpId op, Value value);
  void maybe_issue_after_completion();
  void maybe_finish_run();
  void begin_keyed_stats();
  void on_keyed_stats(const KeyedStatsFrame& ks);
  void begin_measured_phase();
  void begin_stats_round();
  void on_stats_round_complete();
  bool rounds_stable() const;
  void check_deadline() const;
  int poll_timeout_ms() const;

  ClusterOptions opt_;
  EventLoop loop_;
  ChildReaper reaper_;
  std::int64_t n_{0};
  std::size_t ops_{0};      ///< measured ops
  std::size_t warmup_{0};   ///< unmeasured ops issued first
  std::size_t total_{0};    ///< warmup_ + ops_
  /// True from launch until the post-warmup metrics reset completes;
  /// while set, issuance stops at warmup_ so no measured op can slip in
  /// before the reset barrier.
  bool warming_up_{false};
  /// Reset acks still owed after a kMetricsReset broadcast; the
  /// measured phase starts when this drains to zero, so no measured
  /// frame can race a node's own reset (see node.cpp).
  std::size_t reset_acks_pending_{0};
  std::vector<ProcessorId> initiators_;
  /// Multi-key mode: which key each op (by id) addresses.
  std::vector<KeyId> keys_;
  /// Completions since the last batch issuance; a fresh batch goes out
  /// once a full batch's worth of slots has freed (see issue_next).
  std::size_t issue_credits_{0};
  /// Reused per-node kStartBatch staging (batched issuance).
  std::vector<StartBatchFrame> batch_scratch_;
  /// Keyed-stats collection (multi-key mode, after the final barrier):
  /// nodes whose last chunk is still outstanding, the hot key chosen
  /// from the measured schedule, and the merged per-key accounting.
  std::size_t keyed_stats_pending_{0};
  KeyId hot_key_{kNoKey};
  std::int64_t hot_key_ops_{0};
  std::vector<std::int64_t> hot_key_load_;  ///< per processor, hot key only
  std::int64_t hot_key_sent_{0};
  std::unordered_set<KeyId> keys_touched_;
  std::int64_t lru_hits_{0};
  std::int64_t lru_misses_{0};
  std::int64_t lru_evicts_{0};
  std::int64_t lru_rehydrates_{0};

  Phase phase_{Phase::kHello};
  WallClock::time_point deadline_;
  std::vector<int> conn_of_node_;
  std::vector<std::optional<HelloFrame>> hellos_;
  std::size_t hello_count_{0};
  std::size_t ready_count_{0};
  bool child_died_{false};

  std::size_t issued_{0};
  std::size_t completed_{0};
  std::vector<Value> values_;
  std::vector<bool> value_seen_;
  std::unique_ptr<TailRecorder> recorder_;
  /// Measured-op counting history for the post-run linearizability
  /// check (options.lin_check, single-key mode only). Warmup slots stay
  /// empty; snapshot(warmup_) skips them.
  std::unique_ptr<concurrent::HistoryBuffer> history_;
  /// Open-loop burst runs: the measured phase's shape, kept so each
  /// op's scheduled arrival can be classified high/low for the
  /// phase-split SLO (null otherwise).
  std::unique_ptr<traffic::RateShape> measured_shape_;
  std::int64_t t_first_issue_ns_{0};
  std::int64_t t_last_complete_ns_{0};
  std::int64_t open_t0_ns_{0};
  /// Open loop: the measured phase's deterministic arrival timeline and
  /// the next scheduled offset it handed out (not yet issued).
  std::unique_ptr<traffic::ArrivalTimeline> timeline_;
  std::int64_t next_arrival_off_{0};
  /// Measured-phase budget in ns (duration_s; INT64_MAX when unset) and
  /// the wall deadline the closed loop stops reissuing at.
  std::int64_t budget_ns_{0};
  std::int64_t run_deadline_ns_{0};
  /// Latched once nothing more will be issued (schedule exhausted or
  /// the duration budget hit); the run ends when completed_ == issued_.
  bool no_more_{false};

  int quiesce_rounds_{0};
  bool round_in_flight_{false};
  WallClock::time_point next_round_at_;
  std::vector<std::optional<StatsFrame>> round_;
  std::vector<std::optional<StatsFrame>> prev_round_;
  std::size_t stats_outstanding_{0};
};

void Controller::check_deadline() const {
  if (WallClock::now() < deadline_) return;
  // Say where the run was stuck; a budget abort is always a hang
  // diagnosis session and the phase/progress triple is the first
  // question.
  std::fprintf(stderr,
               "cluster budget exceeded: phase=%d issued=%zu completed=%zu "
               "warmup=%zu total=%zu round_in_flight=%d outstanding=%zu\n",
               static_cast<int>(phase_), issued_, completed_, warmup_, total_,
               round_in_flight_ ? 1 : 0, stats_outstanding_);
  DCNT_CHECK_MSG(false, "cluster run exceeded its wall-clock budget");
}

/// Issues one unit of work: a single op, or — multi-key batched mode —
/// up to batch_size() consecutive schedule entries partitioned by owning
/// node into one kStartBatch frame each. Latency is stamped at batch
/// send, so a deep batch's later entries include their queueing time.
/// `sched_ns` >= 0 (open loop) stamps that scheduled arrival time
/// instead of the send time, so backlog the controller accumulated
/// counts against the op — the coordinated-omission-free measurement.
void Controller::issue_next(std::int64_t sched_ns) {
  const std::size_t limit = warming_up_ ? warmup_ : total_;  // measured ops wait
  if (issued_ >= limit) {
    if (!warming_up_) no_more_ = true;
    return;
  }
  const std::int64_t t = TailRecorder::now_ns();
  // Closed-loop duration budget: past the deadline, decline instead of
  // reissuing (the open loop bounds itself by scheduled offsets).
  if (!warming_up_ && sched_ns < 0 && t >= run_deadline_ns_) {
    no_more_ = true;
    return;
  }
  const std::size_t count = std::min(batch_size(), limit - issued_);
  const auto stamp = [&](OpId op) {
    if (static_cast<std::size_t>(op) >= warmup_) {
      if (t_first_issue_ns_ == 0) t_first_issue_ns_ = t;
      const std::int64_t sched = sched_ns >= 0 ? sched_ns : t;
      if (measured_shape_) {
        recorder_->on_issue(
            op, sched,
            measured_shape_->high_at(
                static_cast<double>(sched - open_t0_ns_) / 1e9));
      } else {
        recorder_->on_issue(op, sched);
      }
      // The history's invoke stamp is the *actual* send time even in
      // the open loop: a backdated scheduled stamp would tighten
      // resp < inv intervals and could fabricate a violation.
      if (history_) history_->on_invoke(op, t);
    }
  };
  if (count == 1) {
    const OpId op = static_cast<OpId>(issued_++);
    const auto idx = static_cast<std::size_t>(op);
    const ProcessorId origin = initiators_[idx];
    const std::uint32_t node = static_cast<std::uint32_t>(origin) % opt_.nodes;
    stamp(op);
    // Keyed single-op issuance rides the plain Start frame with the key
    // as the op's one argument word.
    std::vector<std::int64_t> args;
    if (keyed()) args.push_back(keys_[idx]);
    loop_.send(conn_of_node_.at(node),
               encode_start(StartFrame{op, origin, std::move(args)}));
    return;
  }
  batch_scratch_.resize(opt_.nodes);
  for (StartBatchFrame& f : batch_scratch_) f.ops.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const OpId op = static_cast<OpId>(issued_++);
    const auto idx = static_cast<std::size_t>(op);
    const ProcessorId origin = initiators_[idx];
    const std::uint32_t node = static_cast<std::uint32_t>(origin) % opt_.nodes;
    stamp(op);
    batch_scratch_[node].ops.push_back(StartBatchEntry{op, origin, keys_[idx]});
  }
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    if (batch_scratch_[id].ops.empty()) continue;
    loop_.send(conn_of_node_.at(id), encode_start_batch(batch_scratch_[id]));
  }
}

/// Closed-loop reissue at batch granularity: one completion frees one
/// slot; a new batch goes out once a whole batch's worth has freed (or
/// immediately when nothing is left in flight, so a short tail can
/// never strand credits below the threshold).
void Controller::maybe_issue_after_completion() {
  ++issue_credits_;
  if (issue_credits_ >= batch_size() || issued_ == completed_) {
    issue_credits_ = 0;
    issue_next();
  }
}

void Controller::begin_measured_phase() {
  DCNT_CHECK(phase_ == Phase::kRun);
  issue_credits_ = 0;
  const std::int64_t now = TailRecorder::now_ns();
  run_deadline_ns_ = budget_ns_ == std::numeric_limits<std::int64_t>::max()
                         ? budget_ns_
                         : now + budget_ns_;
  if (opt_.open_rate > 0.0) {
    open_t0_ns_ = now;
    const traffic::RateShape shape = traffic::make_shape(
        opt_.shape, opt_.open_rate, opt_.period_s, opt_.amplitude, opt_.duty);
    if (shape.kind == traffic::RateShape::Kind::kBurst) {
      // Burst runs split SLO attainment per load phase; no measured op
      // has been stamped yet (warmup never touches the recorder).
      recorder_->enable_phases();
      measured_shape_ = std::make_unique<traffic::RateShape>(shape);
    }
    timeline_ = std::make_unique<traffic::ArrivalTimeline>(shape);
    next_arrival_off_ = timeline_->next_ns();
    return;
  }
  const std::size_t window =
      opt_.quiesce_between_ops
          ? 1
          : std::max<std::size_t>(
                1, std::min(opt_.concurrency * pipeline_depth(), ops_));
  for (std::size_t i = 0; i < window; ++i) issue_next();
  // A zero-length budget can decline the whole window; certify the
  // (empty) run through the barrier rather than hanging.
  maybe_finish_run();
}

/// End of the measured phase: nothing more will be issued and every
/// issued op completed — hand off to the quiescence barrier. Reissues
/// happen before this check in on_complete, so completed_ == issued_
/// means no measured work is in flight anywhere.
void Controller::maybe_finish_run() {
  if (phase_ != Phase::kRun || warming_up_) return;
  if (issued_ >= total_) no_more_ = true;
  if (no_more_ && completed_ == issued_) {
    phase_ = Phase::kQuiesce;
    begin_stats_round();
  }
}

void Controller::begin_stats_round() {
  round_.assign(opt_.nodes, std::nullopt);
  stats_outstanding_ = opt_.nodes;
  round_in_flight_ = true;
  ++quiesce_rounds_;
  const std::vector<std::uint8_t> frame = encode_stats_request();
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    loop_.send(conn_of_node_[id], frame);
  }
}

bool Controller::rounds_stable() const {
  if (prev_round_.empty()) return false;
  std::int64_t sent = 0;
  std::int64_t received = 0;
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    const StatsFrame& cur = *round_[id];
    const StatsFrame& prev = *prev_round_[id];
    if (cur.events_processed != prev.events_processed) return false;
    // An unacked envelope means a retransmission is coming.
    if (cur.unacked != 0) return false;
    sent += cur.wire_msgs_sent;
    received += cur.wire_msgs_received;
  }
  // On the reliable TCP plane every wire message eventually arrives, so
  // a sent/received mismatch means frames are still in flight. On lossy
  // UDP the counts legitimately differ (kernel drops are invisible to
  // both sides); stability plus zero pending work is the whole test.
  if (!opt_.udp && sent != received) return false;
  return true;
}

void Controller::on_stats_round_complete() {
  round_in_flight_ = false;
  if (rounds_stable()) {
    std::int64_t timers = 0;
    for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
      timers += round_[id]->timers_armed;
    }
    if (timers > 0) {
      // Idle except for armed timers — the distributed version of the
      // simulator's clock jump: tell the nodes to fire them now rather
      // than waiting out wall deadlines (a stale inc-retry or
      // retransmission timer can be tens of milliseconds away).
      const std::vector<std::uint8_t> jump = encode_time_jump();
      for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
        loop_.send(conn_of_node_[id], jump);
      }
      prev_round_ = round_;
      next_round_at_ = WallClock::now() + std::chrono::milliseconds(1);
      return;
    }
    if (warming_up_ && completed_ == warmup_) {
      // The warmup traffic has fully settled; tell every node to zero
      // its metrics and re-baseline its wire counters. Measured Starts
      // wait for every node's ack (begin_measured_phase): the reset is
      // ordered before the Starts on each control connection, but a
      // fast peer's first measured data frame is not ordered against a
      // slow node's reset, and a receive absorbed into a baseline
      // would skew the global sent/received balance for good.
      const std::vector<std::uint8_t> reset = encode_metrics_reset();
      for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
        loop_.send(conn_of_node_[id], reset);
      }
      reset_acks_pending_ = opt_.nodes;
      prev_round_.clear();
      phase_ = Phase::kRun;
      return;
    }
    if (opt_.quiesce_between_ops && completed_ < total_ && !no_more_) {
      // Mid-run barrier: the previous op's activity has fully settled;
      // resume the workload with the next one.
      prev_round_.clear();
      phase_ = Phase::kRun;
      issue_next();
      if (issued_ > completed_) return;
      // The reissue declined (duration budget hit): the settled barrier
      // we just ran doubles as the end-of-run barrier; fall through.
      phase_ = Phase::kQuiesce;
    }
    if (keyed()) {
      // One end-of-run collection pass: per-key loads and LRU counters
      // are a report, not part of the barrier, so they are fetched once
      // after the cluster is certified idle and before Shutdown.
      begin_keyed_stats();
      return;
    }
    phase_ = Phase::kShutdown;
    return;
  }
  prev_round_ = round_;
  // Give in-flight frames and stale timers a moment before re-asking;
  // the barrier converges on stability, not on asking faster.
  next_round_at_ = WallClock::now() + std::chrono::milliseconds(2);
}

void Controller::on_frame(int conn, const FrameView& frame) {
  switch (frame.type()) {
    case FrameType::kHello: {
      const HelloFrame hello = decode_hello(frame);
      DCNT_CHECK(hello.node_id < opt_.nodes);
      DCNT_CHECK_MSG(!hellos_[hello.node_id].has_value(),
                     "duplicate Hello from a node");
      hellos_[hello.node_id] = hello;
      conn_of_node_[hello.node_id] = conn;
      ++hello_count_;
      if (hello_count_ == opt_.nodes) {
        PeersFrame peers;
        peers.peers.reserve(opt_.nodes);
        for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
          const HelloFrame& h = *hellos_[id];
          peers.peers.push_back(PeerAddr{id, h.tcp_port, h.udp_port});
        }
        const std::vector<std::uint8_t> encoded = encode_peers(peers);
        for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
          loop_.send(conn_of_node_[id], encoded);
        }
        phase_ = Phase::kReady;
      }
      return;
    }
    case FrameType::kReady: {
      if (reset_acks_pending_ > 0) {
        // Reset ack (see kMetricsReset in node.cpp): this node has
        // re-baselined; once all have, measured traffic may flow.
        if (--reset_acks_pending_ == 0) {
          warming_up_ = false;
          begin_measured_phase();
        }
        return;
      }
      DCNT_CHECK(phase_ == Phase::kReady);
      ++ready_count_;
      if (ready_count_ == opt_.nodes) {
        phase_ = Phase::kRun;
        if (warming_up_) {
          // Warmup always runs closed-loop, even ahead of an open-loop
          // measured phase; the open-loop clock starts after the reset.
          const std::size_t window =
              opt_.quiesce_between_ops
                  ? 1
                  : std::max<std::size_t>(
                        1,
                        std::min(opt_.concurrency * pipeline_depth(), total_));
          for (std::size_t i = 0; i < window; ++i) issue_next();
        } else {
          begin_measured_phase();
        }
      }
      return;
    }
    case FrameType::kComplete: {
      const CompleteFrame done = decode_complete(frame);
      on_complete(done.op, done.value);
      return;
    }
    case FrameType::kCompleteBatch: {
      // Keyed nodes coalesce every completion of a drain round into one
      // frame. The control channel is our own node binary, so a
      // malformed batch is a bug, not corruption to survive.
      CompleteBatchFrame batch;
      DCNT_CHECK_MSG(decode_complete_batch(frame, &batch),
                     "malformed CompleteBatch at the controller");
      for (const CompleteBatchEntry& e : batch.completions) {
        on_complete(e.op, e.value);
      }
      return;
    }
    case FrameType::kKeyedStats: {
      KeyedStatsFrame ks;
      DCNT_CHECK_MSG(decode_keyed_stats(frame, &ks),
                     "malformed KeyedStats at the controller");
      on_keyed_stats(ks);
      return;
    }
    case FrameType::kStats: {
      const StatsFrame stats = decode_stats(frame);
      DCNT_CHECK(stats.node_id < opt_.nodes);
      DCNT_CHECK(round_in_flight_ && !round_[stats.node_id].has_value());
      round_[stats.node_id] = stats;
      if (--stats_outstanding_ == 0) on_stats_round_complete();
      return;
    }
    default:
      DCNT_CHECK_MSG(false, "unexpected frame type at the controller");
  }
}

void Controller::on_complete(OpId op, Value value) {
  DCNT_CHECK(phase_ == Phase::kRun);
  const auto idx = static_cast<std::size_t>(op);
  DCNT_CHECK(op >= 0 && idx < total_);
  DCNT_CHECK_MSG(!value_seen_[idx], "operation completed twice");
  value_seen_[idx] = true;
  values_[idx] = value;
  if (idx >= warmup_) {
    const std::int64_t t = TailRecorder::now_ns();
    recorder_->on_complete(op, t);
    if (history_) history_->on_response(op, t, value);
    t_last_complete_ns_ = t;
  }
  ++completed_;
  if (opt_.quiesce_between_ops) {
    phase_ = Phase::kQuiesce;
    begin_stats_round();
    return;
  }
  if (warming_up_) {
    // Keep the warmup window full; the last warmup completion
    // triggers the reset barrier instead of a new op.
    if (completed_ == warmup_) {
      phase_ = Phase::kQuiesce;
      begin_stats_round();
    } else {
      maybe_issue_after_completion();
    }
    return;
  }
  if (opt_.open_rate <= 0.0) maybe_issue_after_completion();
  maybe_finish_run();
}

void Controller::begin_keyed_stats() {
  phase_ = Phase::kKeyedStats;
  keyed_stats_pending_ = opt_.nodes;
  hot_key_load_.assign(static_cast<std::size_t>(n_), 0);
  // The hot key is a property of the measured schedule (ties to the
  // smallest id); the nodes' reports then fill in its message loads.
  std::unordered_map<KeyId, std::int64_t> ops_by_key;
  for (std::size_t i = warmup_; i < issued_; ++i) ++ops_by_key[keys_[i]];
  for (const auto& [key, count] : ops_by_key) {
    if (count > hot_key_ops_ || (count == hot_key_ops_ && key < hot_key_)) {
      hot_key_ = key;
      hot_key_ops_ = count;
    }
  }
  const std::vector<std::uint8_t> frame = encode_keyed_stats_request();
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    loop_.send(conn_of_node_[id], frame);
  }
}

void Controller::on_keyed_stats(const KeyedStatsFrame& ks) {
  DCNT_CHECK(phase_ == Phase::kKeyedStats);
  DCNT_CHECK(ks.node_id < opt_.nodes);
  DCNT_CHECK(keyed_stats_pending_ > 0);
  for (const KeyProcLoad& load : ks.loads) {
    // Each (key, processor) slice is reported by exactly one node — the
    // processor's owner — so accumulation is an exact merge.
    DCNT_CHECK(load.pid >= 0 && load.pid < n_);
    DCNT_CHECK(static_cast<std::uint32_t>(load.pid) % opt_.nodes ==
               ks.node_id);
    keys_touched_.insert(load.key);
    if (load.key == hot_key_) {
      hot_key_load_[static_cast<std::size_t>(load.pid)] +=
          load.sent + load.received;
      hot_key_sent_ += load.sent;
    }
  }
  if (ks.last) {
    // LRU counters ride in every chunk of a node's report; count them
    // once, from the last.
    lru_hits_ += ks.lru_hits;
    lru_misses_ += ks.lru_misses;
    lru_evicts_ += ks.lru_evicts;
    lru_rehydrates_ += ks.lru_rehydrates;
    if (--keyed_stats_pending_ == 0) phase_ = Phase::kShutdown;
  }
}

int Controller::poll_timeout_ms() const {
  if (phase_ == Phase::kRun && opt_.open_rate > 0.0) return 1;
  if (phase_ == Phase::kQuiesce && !round_in_flight_) return 1;
  return 50;
}

ClusterResult Controller::run() {
  DCNT_CHECK(opt_.nodes >= 1);
  DCNT_CHECK_MSG(opt_.loops == 1 && opt_.shards_per_node == 0,
                 "a node is one thread driving one shard: loops must be 1 "
                 "and shards_per_node 0");
  deadline_ = WallClock::now() +
              std::chrono::microseconds(
                  static_cast<std::int64_t>(opt_.timeout_seconds * 1e6));

  // Probe the protocol locally for its true size and shard contract —
  // friendlier to fail here than inside four child processes.
  {
    auto probe = make_counter(counter_kind_from_string(opt_.counter),
                              opt_.min_processors);
    n_ = static_cast<std::int64_t>(probe->num_processors());
    if (opt_.nodes > 1) {
      DCNT_CHECK_MSG(probe->shard_safe(),
                     "multi-node cluster requires a shard-safe protocol");
    }
    if (opt_.keys > 0 && opt_.key_capacity > 0) {
      DCNT_CHECK_MSG(probe->service_evictable(),
                     "key_capacity requires a service-evictable counter");
    }
  }
  ops_ = opt_.ops != 0 ? opt_.ops : static_cast<std::size_t>(8 * n_);
  DCNT_CHECK(ops_ > 0);
  warmup_ = opt_.warmup;
  total_ = warmup_ + ops_;
  warming_up_ = warmup_ > 0;
  initiators_ = make_initiators(opt_.initiators, opt_.zipf_s, n_,
                                static_cast<std::int64_t>(total_), opt_.seed);
  if (keyed()) {
    keys_ = make_keys(opt_.key_dist, opt_.key_skew,
                      static_cast<std::int64_t>(opt_.keys),
                      static_cast<std::int64_t>(total_), opt_.seed);
  }
  values_.assign(total_, -1);
  value_seen_.assign(total_, false);
  budget_ns_ = opt_.duration_s > 0.0
                   ? static_cast<std::int64_t>(opt_.duration_s * 1e9)
                   : std::numeric_limits<std::int64_t>::max();
  run_deadline_ns_ = std::numeric_limits<std::int64_t>::max();
  // Sized by op id; the warmup slots simply stay empty.
  recorder_ = std::make_unique<TailRecorder>(
      total_, static_cast<std::int64_t>(opt_.slo_us * 1e3), opt_.exact_cap);
  if (opt_.lin_check && !keyed()) {
    history_ = std::make_unique<concurrent::HistoryBuffer>(total_);
  }
  conn_of_node_.assign(opt_.nodes, -1);
  hellos_.assign(opt_.nodes, std::nullopt);

  std::uint16_t ctrl_port = 0;
  Socket listener = tcp_listen(&ctrl_port);
  loop_.add_listener(std::move(listener), [this](Socket accepted) {
    loop_.add_connection(
        std::move(accepted),
        [this](int conn, const FrameView& f) { on_frame(conn, f); },
        [this](int) {
          if (phase_ != Phase::kShutdown) child_died_ = true;
        });
  });

  const std::string binary = find_node_binary(opt_.node_binary);
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    std::vector<std::string> args = {
        binary,
        "--ctrl_port=" + std::to_string(ctrl_port),
        "--node=" + std::to_string(id),
        "--nodes=" + std::to_string(opt_.nodes),
        "--counter=" + opt_.counter,
        "--n=" + std::to_string(opt_.min_processors),
        "--seed=" + std::to_string(opt_.seed),
        "--transport=" + std::string(opt_.udp ? "udp" : "tcp"),
        "--drop=" + std::to_string(opt_.drop_probability),
        "--tick_us=" + std::to_string(opt_.tick_us),
        "--ack_timeout=" + std::to_string(opt_.retry.ack_timeout),
        "--max_timeout=" + std::to_string(opt_.retry.max_timeout),
        "--max_attempts=" + std::to_string(opt_.retry.max_attempts),
        // Exact op-table capacity: the controller knows the op count.
        "--max_ops=" + std::to_string(total_),
    };
    if (keyed()) {
      args.push_back("--keys=" + std::to_string(opt_.keys));
      args.push_back("--key_capacity=" + std::to_string(opt_.key_capacity));
    }
    reaper_.pids.push_back(spawn(args));
  }

  while (phase_ != Phase::kShutdown) {
    check_deadline();
    DCNT_CHECK_MSG(!child_died_, "a node process died mid-run");
    if (phase_ == Phase::kRun && !warming_up_ && opt_.open_rate > 0.0 &&
        !no_more_) {
      // Walk the arrival timeline: issue every arrival that is due (all
      // at once if the controller fell behind — never skipped; the
      // scheduled-time stamp charges the lateness to the op), stop at
      // the first one scheduled past the duration budget.
      const std::int64_t now = TailRecorder::now_ns();
      while (issued_ < total_) {
        if (next_arrival_off_ >= budget_ns_) {
          no_more_ = true;
          break;
        }
        if (now - open_t0_ns_ < next_arrival_off_) break;
        issue_next(open_t0_ns_ + next_arrival_off_);
        next_arrival_off_ = timeline_->next_ns();
      }
      maybe_finish_run();
    }
    if (phase_ == Phase::kQuiesce && !round_in_flight_ &&
        WallClock::now() >= next_round_at_) {
      begin_stats_round();
    }
    loop_.run_once(poll_timeout_ms());
  }

  // Orderly teardown: every node flushes and exits 0; the controller
  // insists on it so a crash shadowed by a successful run still fails.
  const std::vector<std::uint8_t> bye = encode_shutdown();
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    loop_.send(conn_of_node_[id], bye);
  }
  while (loop_.open_connections() > 0) {
    check_deadline();
    loop_.run_once(20);
  }
  for (pid_t& pid : reaper_.pids) {
    int status = 0;
    DCNT_CHECK(::waitpid(pid, &status, 0) == pid);
    DCNT_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                   "a node exited abnormally");
    pid = 0;  // reaped; the ChildReaper must not touch it
  }

  // Merge and verify. Ops are issued in id order, so a duration-cut run
  // completed exactly ids 0..issued_-1; everything below verifies and
  // reports over that prefix.
  values_.resize(issued_);
  ClusterResult out;
  out.counter = opt_.counter;
  out.n = static_cast<std::size_t>(n_);
  out.nodes = opt_.nodes;
  out.ops = issued_ - warmup_;
  out.warmup = warmup_;
  out.quiesce_rounds = quiesce_rounds_;
  out.load.assign(static_cast<std::size_t>(n_), 0);
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    const StatsFrame& s = *round_[id];
    out.wire_msgs_sent += s.wire_msgs_sent;
    out.wire_msgs_received += s.wire_msgs_received;
    out.wire_bytes_sent += s.wire_bytes_sent;
    out.wire_bytes_received += s.wire_bytes_received;
    out.injected_drops += s.injected_drops;
    out.retransmissions += s.retransmissions;
    out.duplicates_suppressed += s.duplicates_suppressed;
    out.messages_abandoned += s.messages_abandoned;
    out.wire_write_syscalls += s.wire_write_syscalls;
    for (const ProcLoad& load : s.loads) {
      DCNT_CHECK(load.pid >= 0 && load.pid < n_);
      DCNT_CHECK(static_cast<std::uint32_t>(load.pid) % opt_.nodes == id);
      out.load[static_cast<std::size_t>(load.pid)] =
          load.sent + load.received;
      out.total_messages += load.sent;
    }
  }
  for (ProcessorId p = 0; p < n_; ++p) {
    if (out.load[static_cast<std::size_t>(p)] > out.max_load) {
      out.max_load = out.load[static_cast<std::size_t>(p)];
      out.bottleneck = p;
    }
  }

  if (keyed()) {
    // Per-key contract (warmup ops included — they consumed that key's
    // low values): within each key, the returned values are an exact
    // permutation of 0..ops_k-1. The global permutation check does not
    // apply across independent counters.
    std::unordered_map<KeyId, std::vector<Value>> by_key;
    for (std::size_t i = 0; i < issued_; ++i) by_key[keys_[i]].push_back(values_[i]);
    out.values_ok = true;
    for (auto& [key, vals] : by_key) {
      std::sort(vals.begin(), vals.end());
      for (std::size_t i = 0; i < vals.size(); ++i) {
        if (vals[i] != static_cast<Value>(i)) out.values_ok = false;
      }
    }
    DCNT_CHECK_MSG(out.values_ok,
                   "some key's values are not a permutation of 0..ops_k-1");
  } else {
    std::vector<Value> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    out.values_ok = true;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (sorted[i] != static_cast<Value>(i)) {
        out.values_ok = false;
        break;
      }
    }
    DCNT_CHECK_MSG(out.values_ok,
                   "cluster values are not a permutation of 0..ops-1");
  }
  out.values = std::move(values_);
  if (keyed()) {
    out.keys = opt_.keys;
    keys_.resize(issued_);
    out.key_of_op = std::move(keys_);
    out.hot_key = hot_key_;
    out.hot_key_ops = hot_key_ops_;
    for (const std::int64_t load : hot_key_load_) {
      out.hot_key_max_load = std::max(out.hot_key_max_load, load);
    }
    out.hot_key_messages = hot_key_sent_;
    out.keys_touched = keys_touched_.size();
    out.lru_hits = lru_hits_;
    out.lru_misses = lru_misses_;
    out.lru_evicts = lru_evicts_;
    out.lru_rehydrates = lru_rehydrates_;
  }

  out.wall_seconds =
      static_cast<double>(t_last_complete_ns_ - t_first_issue_ns_) / 1e9;
  if (out.wall_seconds > 0.0) {
    out.ops_per_sec = static_cast<double>(out.ops) / out.wall_seconds;
  }
  const traffic::TrafficStats lat = recorder_->stats();
  out.mean_us = lat.mean_us;
  out.p50_us = lat.p50_us;
  out.p95_us = lat.p95_us;
  out.p99_us = lat.p99_us;
  out.p999_us = lat.p999_us;
  out.p9999_us = lat.p9999_us;
  out.max_us = lat.max_us;
  out.slo_us = static_cast<double>(lat.slo_ns) / 1e3;
  out.slo_den = lat.count;
  out.slo_ok = lat.slo_ok;
  out.slo_attainment = lat.slo_attainment;
  out.hdr_recorder = !lat.exact;
  out.hdr_overflow = lat.hdr_overflow;
  if (lat.phases) {
    out.slo_phases = true;
    out.slo_high_den = lat.high_count;
    out.slo_high_ok = lat.high_slo_ok;
    out.slo_high_attainment = lat.high_attainment;
    out.slo_low_den = lat.low_count;
    out.slo_low_ok = lat.low_slo_ok;
    out.slo_low_attainment = lat.low_attainment;
  }
  if (history_) {
    const LinearizabilityReport report =
        check_linearizable(history_->snapshot(warmup_));
    out.lin_checked = true;
    out.linearizable = report.linearizable;
    out.lin_violations = report.violations;
  }
  return out;
}

}  // namespace

ClusterResult run_cluster(const ClusterOptions& options) {
  Controller controller(options);
  return controller.run();
}

}  // namespace dcnt::net
