#include "harness/cluster.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "concurrent/history.hpp"
#include "harness/factory.hpp"
#include "harness/schedule.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "sim/metrics.hpp"
#include "support/check.hpp"
#include "traffic/driver.hpp"

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

/// The controller: the mesh handshake and teardown, and the load
/// driver's port onto the cluster.
class Controller final : public traffic::LoadPort {
 public:
  explicit Controller(const ClusterOptions& opt) : opt_(opt) {}
  ClusterResult run();

  OpId issue(std::size_t entry) override;
  void wait(std::int64_t until_ns) override;
  void quiesce() override;
  void reset_metrics() override;

 private:
  enum class Phase { kHandshake, kLoad, kShutdown };

  bool keyed() const { return opt_.keys > 0; }
  /// Schedule entries per driver issuance unit (framing does not depend
  /// on it). Batching is a closed-loop multi-key construct:
  /// quiesce_between_ops needs one op in flight and the open-loop clock
  /// paces individual ops, so both force 1.
  std::size_t batch_size() const {
    if (!keyed() || opt_.quiesce_between_ops || opt_.open_rate > 0.0) return 1;
    return std::max<std::size_t>(1, opt_.batch);
  }

  /// One reactor round, failing fast on the run budget or a dead node.
  /// The starts staged since the previous round leave first.
  void pump(int timeout_ms);
  /// Sends every staged start: one kStartBatch per touched node, more
  /// only past kBatchEntryCap.
  void flush_starts();
  bool starts_staged() const;
  void on_frame(int conn, const FrameView& frame);
  /// One decoded kCompleteBatch: checks each entry, then hands the
  /// frame to the driver as one span.
  void on_complete(std::span<const Completion> done);
  void broadcast(const std::vector<std::uint8_t>& frame) {
    // A control frame must not overtake a start the driver already
    // issued; every caller broadcasts with nothing in flight.
    DCNT_CHECK_MSG(!starts_staged(), "broadcast with starts still staged");
    for (const int conn : conn_of_node_) loop_.send(conn, frame);
  }
  /// One chunk of a node's load report, merged into the ledger.
  void on_loads(const LoadsFrame& report);
  bool rounds_stable() const;
  void check_deadline() const;

  ClusterOptions opt_;
  EventLoop loop_;
  ChildReaper reaper_;
  traffic::LoadDriver* driver_{nullptr};
  /// Filled as the run goes.
  ClusterResult out_;
  std::int64_t n_{0};
  std::size_t warmup_{0};   ///< unmeasured ops issued first
  std::size_t total_{0};    ///< warmup_ + measured ops
  /// Reset acks still owed after a kMetricsReset broadcast.
  std::size_t reset_acks_pending_{0};
  /// The measured schedule (ops entries; warmup cycles through it, see
  /// traffic::schedule_slot).
  std::vector<ProcessorId> initiators_;
  std::vector<KeyId> keys_;
  /// Multi-key mode: which key each issued op (by id) addressed.
  std::vector<KeyId> key_of_op_;
  /// Per node, the starts issued since the previous reactor round, and
  /// the buffer each kStartBatch frame is encoded into.
  std::vector<std::vector<StartBatchEntry>> batch_scratch_;
  std::vector<std::uint8_t> start_scratch_;
  /// Reused by every kCompleteBatch decode.
  CompleteBatchFrame complete_scratch_;
  /// Nodes whose load report has not yet ended in a last chunk.
  std::size_t reports_pending_{0};
  /// The cluster's load ledger: every node's report rows, each
  /// reported by the processor's one owner, so accumulating them is an
  /// exact merge.
  Metrics ledger_;

  Phase phase_{Phase::kHandshake};
  WallClock::time_point deadline_;
  std::vector<int> conn_of_node_;
  std::vector<std::optional<HelloFrame>> hellos_;
  std::size_t hello_count_{0};
  std::size_t ready_count_{0};
  bool child_died_{false};

  std::size_t issued_{0};
  std::size_t completed_{0};
  std::vector<Value> values_;  ///< by op id; -1 until completed

  std::vector<std::optional<StatsFrame>> round_;
  std::vector<std::optional<StatsFrame>> prev_round_;
  std::size_t stats_outstanding_{0};
};

void Controller::check_deadline() const {
  if (WallClock::now() < deadline_) return;
  // Say where the run was stuck: the first question of any hang.
  std::fprintf(stderr,
               "cluster budget exceeded: phase=%d issued=%zu completed=%zu "
               "warmup=%zu total=%zu outstanding=%zu\n",
               static_cast<int>(phase_), issued_, completed_, warmup_, total_,
               stats_outstanding_);
  DCNT_CHECK_MSG(false, "cluster run exceeded its wall-clock budget");
}

void Controller::pump(int timeout_ms) {
  check_deadline();
  DCNT_CHECK_MSG(!child_died_, "a node process died mid-run");
  flush_starts();
  loop_.run_once(timeout_ms);
}

void Controller::flush_starts() {
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    if (batch_scratch_[id].empty()) continue;
    start_scratch_.clear();
    out_.start_frames += static_cast<std::int64_t>(
        append_start_batches(start_scratch_, batch_scratch_[id]));
    loop_.send(conn_of_node_[id], start_scratch_);
    batch_scratch_[id].clear();
  }
}

bool Controller::starts_staged() const {
  return std::any_of(batch_scratch_.begin(), batch_scratch_.end(),
                     [](const auto& ops) { return !ops.empty(); });
}

/// Stages entry `entry` for its origin's node. Whatever the driver
/// issues between two reactor rounds (a completion burst, the window
/// fill, an open-loop catch-up) leaves together at the next pump(). The
/// driver's issue stamp, taken before this call, stays the op's start.
OpId Controller::issue(std::size_t entry) {
  DCNT_CHECK(entry == issued_);
  ++issued_;
  const auto op = static_cast<OpId>(entry);
  const std::size_t slot =
      traffic::schedule_slot(entry, warmup_, initiators_.size());
  const ProcessorId origin = initiators_[slot];
  KeyId key = kNoKey;
  if (keyed()) {
    key = keys_[slot];
    key_of_op_[entry] = key;
  }
  batch_scratch_[static_cast<std::uint32_t>(origin) % opt_.nodes].push_back(
      StartBatchEntry{op, origin, key});
  return op;
}

void Controller::wait(std::int64_t until_ns) {
  const std::int64_t left_ns =
      until_ns == kForever ? 50'000'000 : until_ns - now_ns();
  pump(static_cast<int>(
      std::clamp<std::int64_t>((left_ns + 999'999) / 1'000'000, 0, 50)));
}

void Controller::quiesce() {
  prev_round_.clear();
  const std::vector<std::uint8_t> request = encode_stats_request();
  for (;;) {
    round_.assign(opt_.nodes, std::nullopt);
    stats_outstanding_ = opt_.nodes;
    ++out_.quiesce_rounds;
    broadcast(request);
    while (stats_outstanding_ > 0) pump(50);
    // Give in-flight frames and stale timers a moment before re-asking;
    // the barrier converges on stability, not on asking faster.
    auto pause = std::chrono::milliseconds(2);
    if (rounds_stable()) {
      std::int64_t timers = 0;
      for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
        timers += round_[id]->timers_armed;
      }
      if (timers == 0) break;
      // Idle except for armed timers — the distributed version of the
      // simulator's clock jump: tell the nodes to fire them now rather
      // than waiting out wall deadlines (a stale inc-retry or
      // retransmission timer can be tens of milliseconds away).
      broadcast(encode_time_jump());
      pause = std::chrono::milliseconds(1);
    }
    prev_round_ = round_;
    const WallClock::time_point next_round_at = WallClock::now() + pause;
    while (WallClock::now() < next_round_at) pump(1);
  }
}

void Controller::reset_metrics() {
  // Every node zeroes its metrics and re-baselines its wire counters.
  // Measured Starts wait for every node's ack: the reset is ordered
  // before the Starts on each control connection, but a fast peer's
  // first measured data frame is not ordered against a slow node's
  // reset, and a receive absorbed into a baseline would skew the global
  // sent/received balance for good.
  broadcast(encode_metrics_reset());
  reset_acks_pending_ = opt_.nodes;
  while (reset_acks_pending_ > 0) pump(50);
  out_.start_frames = 0;
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

void Controller::on_frame(int conn, const FrameView& frame) {
  switch (frame.type()) {
    case FrameType::kHello: {
      HelloFrame hello;
      DCNT_CHECK_MSG(decode_hello(frame, &hello),
                     "malformed Hello at the controller");
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
        broadcast(encode_peers(peers));
      }
      return;
    }
    case FrameType::kReady: {
      ReadyFrame ready;
      DCNT_CHECK_MSG(decode_ready(frame, &ready),
                     "malformed Ready at the controller");
      // After a kMetricsReset broadcast a Ready is that node's reset ack.
      if (reset_acks_pending_ > 0) {
        --reset_acks_pending_;
      } else {
        DCNT_CHECK(phase_ == Phase::kHandshake && hello_count_ == opt_.nodes);
        ++ready_count_;
      }
      return;
    }
    case FrameType::kCompleteBatch: {
      // A node coalesces every completion of a drain round into one
      // frame.
      DCNT_CHECK_MSG(decode_complete_batch(frame, &complete_scratch_),
                     "malformed CompleteBatch at the controller");
      on_complete(complete_scratch_.completions);
      return;
    }
    case FrameType::kLoads: {
      LoadsFrame report;
      DCNT_CHECK_MSG(decode_loads(frame, &report),
                     "malformed Loads at the controller");
      on_loads(report);
      return;
    }
    case FrameType::kStats: {
      StatsFrame stats;
      DCNT_CHECK_MSG(decode_stats(frame, &stats),
                     "malformed Stats at the controller");
      DCNT_CHECK(stats.node_id < opt_.nodes);
      DCNT_CHECK(stats_outstanding_ > 0 && !round_[stats.node_id].has_value());
      round_[stats.node_id] = stats;
      --stats_outstanding_;
      return;
    }
    default:
      DCNT_CHECK_MSG(false, "unexpected frame type at the controller");
  }
}

void Controller::on_complete(std::span<const Completion> done) {
  DCNT_CHECK(phase_ == Phase::kLoad);
  for (const Completion& c : done) {
    const auto idx = static_cast<std::size_t>(c.op);
    DCNT_CHECK(c.op >= 0 && idx < issued_);
    DCNT_CHECK_MSG(values_[idx] < 0, "operation completed twice");
    values_[idx] = c.value;
  }
  completed_ += done.size();
  // The span's reissues are only staged; they leave at the next pump(),
  // after the driver's invoke stamp, and the span's responses arrived
  // before its response stamp.
  driver_->on_complete(done);
}

/// Loads are a report, not part of the barrier: each node sends its
/// rows once, answering Shutdown after the final barrier certified the
/// cluster idle.
void Controller::on_loads(const LoadsFrame& report) {
  DCNT_CHECK(phase_ == Phase::kShutdown);
  DCNT_CHECK(report.node_id < opt_.nodes);
  DCNT_CHECK(reports_pending_ > 0);
  for (const LoadRow& row : report.rows) {
    DCNT_CHECK(row.pid >= 0 && row.pid < n_);
    DCNT_CHECK(static_cast<std::uint32_t>(row.pid) % opt_.nodes ==
               report.node_id);
    ledger_.add_load(row.pid, KeyLoad{row.sent, row.received}, row.key);
  }
  if (report.last) {
    // LRU counters ride in every chunk of a node's report; count them
    // once, from the last.
    out_.lru_hits += report.lru_hits;
    out_.lru_misses += report.lru_misses;
    out_.lru_evicts += report.lru_evicts;
    out_.lru_rehydrates += report.lru_rehydrates;
    --reports_pending_;
  }
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
    ledger_ = Metrics(probe->num_processors());
    if (opt_.nodes > 1) {
      DCNT_CHECK_MSG(probe->shard_safe(),
                     "multi-node cluster requires a shard-safe protocol");
    }
    if (opt_.keys > 0 && opt_.key_capacity > 0) {
      DCNT_CHECK_MSG(probe->service_evictable(),
                     "key_capacity requires a service-evictable counter");
    }
  }
  const std::size_t ops =
      opt_.ops != 0 ? opt_.ops : static_cast<std::size_t>(8 * n_);
  DCNT_CHECK(ops > 0);
  warmup_ = opt_.warmup;
  total_ = warmup_ + ops;
  initiators_ = make_initiators(opt_.initiators, opt_.zipf_s, n_,
                                static_cast<std::int64_t>(ops), opt_.seed);
  if (keyed()) {
    keys_ = make_keys(opt_.key_dist, opt_.key_skew,
                      static_cast<std::int64_t>(opt_.keys),
                      static_cast<std::int64_t>(ops), opt_.seed);
    key_of_op_.assign(total_, kNoKey);
  }
  values_.assign(total_, -1);
  conn_of_node_.assign(opt_.nodes, -1);
  hellos_.assign(opt_.nodes, std::nullopt);
  batch_scratch_.resize(opt_.nodes);

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
  while (ready_count_ < opt_.nodes) pump(50);

  // The load: warmup, metrics reset, measured phase, final barrier.
  traffic::DriverOptions load = opt_.driver_options();
  std::unique_ptr<concurrent::HistoryBuffer> history;
  if (opt_.lin_check && !keyed()) {
    history = std::make_unique<concurrent::HistoryBuffer>(total_);
    load.history = history.get();
  }
  traffic::LoadDriver driver(*this, load, ops, batch_size());
  driver_ = &driver;
  phase_ = Phase::kLoad;
  fill_run(out_, driver.run());
  driver_ = nullptr;

  // Ops are issued in id order, so a duration-cut run completed exactly
  // ids 0..issued_-1; everything below verifies and reports over that
  // prefix.
  values_.resize(issued_);
  out_.counter = opt_.counter;
  out_.n = static_cast<std::size_t>(n_);
  out_.nodes = opt_.nodes;
  out_.warmup = warmup_;
  if (keyed()) {
    key_of_op_.resize(issued_);
    out_.keys = opt_.keys;
  }
  verify_values(out_, values_, key_of_op_);

  // Orderly teardown: every node answers Shutdown with its load report,
  // flushes and exits 0; the controller insists on it so a crash
  // shadowed by a successful run still fails.
  phase_ = Phase::kShutdown;
  reports_pending_ = opt_.nodes;
  broadcast(encode_shutdown());
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

  // The final barrier's transport counters, summed over the nodes.
  for (std::uint32_t id = 0; id < opt_.nodes; ++id) {
    const StatsFrame& s = *round_[id];
    out_.wire_msgs_sent += s.wire_msgs_sent;
    out_.wire_msgs_received += s.wire_msgs_received;
    out_.wire_bytes_sent += s.wire_bytes_sent;
    out_.wire_bytes_received += s.wire_bytes_received;
    out_.injected_drops += s.injected_drops;
    out_.retransmissions += s.retransmissions;
    out_.duplicates_suppressed += s.duplicates_suppressed;
    out_.messages_abandoned += s.messages_abandoned;
    out_.wire_write_syscalls += s.wire_write_syscalls;
    out_.frames_rejected += s.frames_rejected;
  }
  DCNT_CHECK_MSG(reports_pending_ == 0,
                 "a node exited without finishing its load report");
  fill_loads(out_, ledger_);
  for (ProcessorId p = 0; p < n_; ++p) out_.load.push_back(ledger_.load(p));
  out_.values = std::move(values_);
  out_.key_of_op = std::move(key_of_op_);
  if (history) {
    fill_linearizability(out_, check_linearizable(*history, warmup_));
  }
  return std::move(out_);
}

}  // namespace

ClusterResult run_cluster(const ClusterOptions& options) {
  Controller controller(options);
  return controller.run();
}

}  // namespace dcnt::net
