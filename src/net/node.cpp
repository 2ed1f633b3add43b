#include "net/node.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "harness/factory.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/threaded_runtime.hpp"
#include "service/multi_counter.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dcnt::net {

namespace {

/// Data-plane counters. The reset baseline is a copy of them.
struct WireCounters {
  std::int64_t msgs_sent{0};
  std::int64_t msgs_received{0};
  std::int64_t bytes_sent{0};
  std::int64_t bytes_received{0};
  std::int64_t injected_drops{0};
  std::int64_t write_syscalls{0};
};

/// The node process: one reactor thread that also drives the node's
/// single protocol shard (see the header comment in node.hpp).
class Node {
 public:
  explicit Node(const NodeConfig& cfg) : cfg_(cfg) {}
  int run();

 private:
  void build_runtime();
  void setup_sockets(std::uint16_t* tcp_port, std::uint16_t* udp_port);

  void send_wire(Message& msg);
  void on_ctrl_frame(const FrameView& frame);
  void on_peer_frame(int conn, const FrameView& frame);
  void stage_wire_message(const FrameView& frame);
  void stage_start(const StartBatchEntry& start);
  /// Policy for a frame whose decoder returned `decoded`: true passes
  /// it on. A rejected `droppable` frame (the UDP data plane, where the
  /// reliable transport retransmits) is dropped and counted; any other
  /// rejection aborts naming the frame type, because nothing replaces
  /// a frame lost on a TCP stream.
  bool admit(bool decoded, const FrameView& frame, bool droppable);
  int add_peer_connection(Socket sock);
  void link_up(std::uint32_t peer, int conn);
  void maybe_ready();

  /// One drain round: hand staged events to the shard, run it until
  /// dry, and queue the round's completions as one frame (more only
  /// past kBatchEntryCap).
  void drain();
  /// A dry point: drain(), then push every queued byte to the kernel.
  /// Afterwards nothing is in flight inside this node, so the counters
  /// read next describe only fully processed messages.
  void settle();
  WireCounters wire_counters() const;
  void send_stats();
  void send_loads();
  void handle_reset();
  /// Kernel wait for the next reactor round: until the earliest armed
  /// wall timer is due, or indefinitely when none is armed.
  int wait_ms() const;

  std::uint32_t owner_node(ProcessorId p) const {
    return static_cast<std::uint32_t>(p) % cfg_.num_nodes;
  }

  NodeConfig cfg_;
  EventLoop loop_;
  std::unique_ptr<ThreadedRuntime> runtime_;
  ReliableTransport* transport_{nullptr};   ///< set in UDP mode
  service::MultiCounter* fabric_{nullptr};  ///< set when cfg_.keys > 0
  bool keyed_{false};                       ///< cfg_.keys > 0
  std::int64_t n_{0};

  int ctrl_conn_{-1};
  std::vector<int> peer_conn_;   ///< node id -> connection id (TCP)
  std::vector<PeerAddr> peers_;  ///< cluster address table (UDP sends)
  Rng drop_rng_{1};
  WireCounters wire_;
  /// Malformed datagrams dropped (UDP mode), reported in every Stats
  /// frame.
  std::int64_t frames_rejected_{0};
  /// Completions of the current drain round, flushed as kCompleteBatch
  /// frames of at most kBatchEntryCap entries.
  std::vector<CompleteBatchEntry> complete_buf_;
  std::vector<std::uint8_t> complete_scratch_;
  /// Reused by every kStartBatch decode, so a start allocates nothing.
  StartBatchFrame start_buf_;
  /// Wire-arrived and controller-started events, built here in place
  /// and handed to the shard's ready queue with one inject() per drain
  /// round.
  std::vector<RuntimeEvent> inject_buf_;

  bool peers_seen_{false};
  std::size_t links_{0};
  std::size_t expected_links_{0};
  bool ready_sent_{false};
  bool shutdown_{false};

  /// Counter values captured at the last kMetricsReset; send_stats
  /// reports deltas against these so warmup traffic never shows up in
  /// the measured stats. events_processed stays monotone (a constant
  /// offset), so the controller's stability barrier is unaffected.
  /// Loads need no baseline: the runtime's shard metrics are zeroed in
  /// place at reset.
  struct Baseline {
    std::int64_t events{0};
    WireCounters wire;
    std::int64_t retransmissions{0};
    std::int64_t duplicates_suppressed{0};
    std::int64_t messages_abandoned{0};
  } base_;
};

void Node::build_runtime() {
  auto counter =
      make_counter(counter_kind_from_string(cfg_.counter), cfg_.min_processors);
  n_ = static_cast<std::int64_t>(counter->num_processors());
  if (cfg_.num_nodes > 1) {
    DCNT_CHECK_MSG(counter->shard_safe(),
                   "multi-node cluster requires a shard-safe protocol");
  }
  keyed_ = cfg_.keys > 0;
  if (keyed_) {
    // Multi-key mode: the fabric multiplexes cfg_.keys instances of the
    // counter over the same processor set. Its routing seed must be the
    // *shared* base seed — offset(key) has to agree on every node, or
    // the two ends of a keyed message would translate inner argument
    // words with different rotations. (The runtime below still gets the
    // per-node mixed seed for its rng streams.)
    service::MultiCounterOptions mc;
    mc.seed = cfg_.seed;
    mc.capacity = static_cast<std::size_t>(cfg_.key_capacity);
    auto fabric =
        std::make_unique<service::MultiCounter>(std::move(counter), mc);
    fabric_ = fabric.get();
    counter = std::move(fabric);
  }
  std::unique_ptr<CounterProtocol> protocol;
  if (cfg_.udp) {
    // Transport outermost: the fabric's keyed sends get enveloped (the
    // envelope carries msg.key, so retransmissions stay keyed frames).
    auto wrapped =
        std::make_unique<ReliableTransport>(std::move(counter), cfg_.retry);
    transport_ = wrapped.get();
    protocol = std::move(wrapped);
  } else {
    protocol = std::move(counter);
  }

  RuntimeConfig rc;
  // Hosting: this thread drives the single protocol shard, so a
  // message's receive->handle->send round trip never crosses a thread.
  rc.workers = 1;
  // Distinct per-node base seed so shard rng streams never collide
  // across nodes.
  rc.seed = mix64(cfg_.seed + 0x9e3779b97f4a7c15ull * (cfg_.node_id + 1));
  rc.max_ops = cfg_.max_ops > 0 ? static_cast<std::size_t>(cfg_.max_ops)
                                : (std::size_t{1} << 16);
  rc.hosting = NodeHosting{cfg_.num_nodes, cfg_.node_id, cfg_.tick_us};
  runtime_ = std::make_unique<ThreadedRuntime>(std::move(protocol), rc);

  // Handler output goes straight into the event loop: each remote
  // message is encoded into its peer's outbound queue (or sent as a
  // datagram), and completions are staged for this round's
  // kCompleteBatch frame.
  runtime_->set_remote_sink([this](std::size_t, std::vector<Message>& out) {
    for (Message& msg : out) send_wire(msg);
  });
  runtime_->set_completion([this](OpId op, Value value) {
    complete_buf_.push_back(CompleteBatchEntry{op, value});
  });
}

void Node::send_wire(Message& msg) {
  const std::uint32_t owner = owner_node(msg.dst);
  if (cfg_.udp) {
    if (cfg_.drop_probability > 0.0 &&
        drop_rng_.next_double() < cfg_.drop_probability) {
      ++wire_.injected_drops;
      return;
    }
    // A kernel refusal (full buffers) is just loss with extra steps; the
    // reliable transport's retransmission covers both.
    const std::size_t sent =
        loop_.send_datagram_message(peers_.at(owner).udp_port, msg);
    if (sent != 0) {
      ++wire_.msgs_sent;
      wire_.bytes_sent += static_cast<std::int64_t>(sent);
    }
    return;
  }
  const int conn = peer_conn_.at(owner);
  DCNT_CHECK_MSG(conn >= 0, "wire send before the peer link is up");
  // Encoded straight into the connection's outbound queue; the bytes
  // leave coalesced with everything else queued this round.
  const std::size_t queued = loop_.send_message(conn, msg);
  ++wire_.msgs_sent;
  wire_.bytes_sent += static_cast<std::int64_t>(queued);
}

void Node::on_ctrl_frame(const FrameView& frame) {
  switch (frame.type()) {
    case FrameType::kPeers: {
      PeersFrame pf;
      admit(decode_peers(frame, &pf), frame, false);
      DCNT_CHECK(pf.peers.size() == cfg_.num_nodes);
      peers_ = std::move(pf.peers);
      if (!cfg_.udp) {
        // Deterministic mesh construction: node i dials every peer with
        // a smaller id and sends a Hello to identify itself; larger ids
        // dial us and we learn who they are from their Hello.
        for (std::uint32_t id = 0; id < cfg_.node_id; ++id) {
          const int conn =
              add_peer_connection(tcp_connect(peers_[id].tcp_port, 15000));
          loop_.send(conn, encode_hello(HelloFrame{cfg_.node_id, 0, 0}));
          link_up(id, conn);
        }
      }
      peers_seen_ = true;
      maybe_ready();
      return;
    }
    case FrameType::kStartBatch: {
      // One frame, one or many ops: split into individual Start events.
      admit(decode_start_batch(frame, &start_buf_), frame, false);
      OpId last = kNoOp;
      for (const StartBatchEntry& e : start_buf_.ops) {
        stage_start(e);
        last = std::max(last, e.op);
      }
      // One watermark raise per frame covers every op in it; the starts
      // reach the runtime only at the next drain, after this.
      if (last != kNoOp) runtime_->register_external_op(last);
      return;
    }
    case FrameType::kStatsRequest:
      send_stats();
      return;
    case FrameType::kTimeJump:
      // The controller has certified the cluster idle (stable events,
      // no unacked envelopes, no wire traffic in flight), which is
      // exactly when the simulator would jump its clock: every timer
      // armed now becomes due and fires in the next drain round. Timers
      // re-armed by the cascades keep their wall deadlines; the
      // controller jumps again if the cluster settles with timers still
      // pending.
      runtime_->expire_timers();
      return;
    case FrameType::kMetricsReset:
      handle_reset();
      return;
    case FrameType::kShutdown:
      send_loads();
      shutdown_ = true;
      return;
    default:
      DCNT_CHECK_MSG(false, "unexpected frame type on the control channel");
  }
}

void Node::on_peer_frame(int conn, const FrameView& frame) {
  if (frame.type() == FrameType::kHello) {
    HelloFrame hello;
    admit(decode_hello(frame, &hello), frame, false);
    DCNT_CHECK(hello.node_id < cfg_.num_nodes);
    link_up(hello.node_id, conn);
    return;
  }
  stage_wire_message(frame);
}

void Node::stage_wire_message(const FrameView& frame) {
  ++wire_.msgs_received;
  wire_.bytes_received += static_cast<std::int64_t>(frame.body_size()) + 6;
  // Decoded straight into its event slot; a rejected frame gives the
  // slot back.
  Message& msg = inject_buf_.emplace_back().msg;
  if (!admit(decode_message(frame, &msg), frame, cfg_.udp)) {
    inject_buf_.pop_back();
    return;
  }
  DCNT_CHECK(runtime_->owns(msg.dst));
}

void Node::stage_start(const StartBatchEntry& start) {
  DCNT_CHECK(start.origin < n_);
  DCNT_CHECK_MSG(runtime_->owns(start.origin),
                 "Start frame routed to the wrong node");
  DCNT_CHECK_MSG((start.key != kNoKey) == keyed_,
                 "Start key does not match the node's key mode");
  DCNT_CHECK(start.op >= 0);
  RuntimeEvent& ev = inject_buf_.emplace_back();  // built in place
  ev.kind = RuntimeEvent::Kind::kStart;
  ev.msg.src = start.origin;
  ev.msg.dst = start.origin;
  ev.msg.op = start.op;
  if (keyed_) ev.msg.args.push_back(start.key);  // none = plain inc
}

bool Node::admit(bool decoded, const FrameView& frame, bool droppable) {
  if (decoded) return true;
  if (droppable) {
    ++frames_rejected_;
    return false;
  }
  std::fprintf(stderr, "dcnt_node %u: malformed frame of type %d\n",
               cfg_.node_id, static_cast<int>(frame.type()));
  DCNT_CHECK_MSG(false, "malformed frame on a TCP connection");
  return false;
}

int Node::add_peer_connection(Socket sock) {
  return loop_.add_connection(
      std::move(sock),
      [this](int conn, const FrameView& f) { on_peer_frame(conn, f); },
      // Peers close their sockets as they shut down, possibly before
      // our own Shutdown frame arrives; by then the quiescence barrier
      // has certified no data in flight, so a close is never data loss.
      [](int) {});
}

void Node::link_up(std::uint32_t peer, int conn) {
  DCNT_CHECK(peer_conn_.at(peer) == -1);
  peer_conn_[peer] = conn;
  ++links_;
  maybe_ready();
}

void Node::maybe_ready() {
  if (ready_sent_ || !peers_seen_ || links_ < expected_links_) return;
  ready_sent_ = true;
  loop_.send(ctrl_conn_, encode_ready(ReadyFrame{cfg_.node_id}));
}

void Node::drain() {
  runtime_->inject(inject_buf_);
  runtime_->drive();
  if (complete_buf_.empty()) return;
  complete_scratch_.clear();
  append_complete_batches(complete_scratch_, complete_buf_);
  loop_.send(ctrl_conn_, complete_scratch_);
  complete_buf_.clear();
}

void Node::settle() {
  drain();
  loop_.flush_all();
  DCNT_CHECK_MSG(runtime_->in_flight() == 0, "shard not dry after drive()");
}

WireCounters Node::wire_counters() const {
  WireCounters w = wire_;
  w.write_syscalls = loop_.write_syscalls();
  return w;
}

// The stats reply is the node-local half of the distributed quiescence
// barrier. It is built at a dry point, so every message counted as
// received has been fully processed. Wire data still in the kernel (or
// in a peer's queue) is caught by the controller's global
// sent==received check instead, never by a single node. Loads are not
// part of it: they leave once, in the report that answers Shutdown.
void Node::send_stats() {
  settle();
  const WireCounters w = wire_counters();
  StatsFrame s;
  s.node_id = cfg_.node_id;
  // events_processed keeps its full monotone value (minus a constant
  // baseline) so the controller's two-stable-rounds comparison works
  // across a reset; the traffic counters are reported as deltas.
  s.events_processed = runtime_->events_processed() - base_.events;
  s.wire_msgs_sent = w.msgs_sent - base_.wire.msgs_sent;
  s.wire_msgs_received = w.msgs_received - base_.wire.msgs_received;
  s.wire_bytes_sent = w.bytes_sent - base_.wire.bytes_sent;
  s.wire_bytes_received = w.bytes_received - base_.wire.bytes_received;
  s.injected_drops = w.injected_drops - base_.wire.injected_drops;
  s.wire_write_syscalls = w.write_syscalls - base_.wire.write_syscalls;
  s.frames_rejected = frames_rejected_;
  s.timers_armed = runtime_->timers_armed();
  if (transport_ != nullptr) {
    s.unacked = transport_->unacked_total();
    const RetryStats& rs = transport_->stats();
    s.retransmissions = rs.retransmissions - base_.retransmissions;
    s.duplicates_suppressed =
        rs.duplicates_suppressed - base_.duplicates_suppressed;
    s.messages_abandoned = rs.messages_abandoned - base_.messages_abandoned;
  }
  loop_.send(ctrl_conn_, encode_stats(s));
}

/// The node's one load report, its answer to Shutdown: at a dry point,
/// every owned processor's overall load (key kNoKey) and, in multi-key
/// mode, every (key, processor) slice, sorted by (key, pid) and sent in
/// kLoads chunks of at most kLoadsChunk rows so a 100k-key run never
/// exceeds kMaxFramePayload. The LRU tier counters ride in every chunk
/// (the controller reads them from the last). Loads are absolute
/// post-reset values: reset_metrics zeroed them in place, so no
/// baseline subtraction is needed.
void Node::send_loads() {
  settle();
  const Metrics metrics = runtime_->merged_metrics();
  std::vector<LoadRow> rows;
  for (ProcessorId p = static_cast<ProcessorId>(cfg_.node_id); p < n_;
       p += static_cast<ProcessorId>(cfg_.num_nodes)) {
    rows.push_back(LoadRow{kNoKey, p, metrics.sent(p), metrics.received(p)});
  }
  for (const auto& [key, per_proc] : metrics.key_loads()) {
    for (const auto& [pid, load] : per_proc) {
      rows.push_back(LoadRow{key, pid, load.sent, load.received});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const LoadRow& a, const LoadRow& b) {
    return a.key != b.key ? a.key < b.key : a.pid < b.pid;
  });
  const service::KeyDirectoryStats lru =
      fabric_ != nullptr ? fabric_->lru_stats() : service::KeyDirectoryStats{};
  std::size_t sent = 0;
  do {
    LoadsFrame chunk;
    chunk.node_id = cfg_.node_id;
    chunk.lru_hits = lru.hits;
    chunk.lru_misses = lru.misses;
    chunk.lru_evicts = lru.evicts;
    chunk.lru_rehydrates = lru.rehydrates;
    const std::size_t take = std::min(kLoadsChunk, rows.size() - sent);
    chunk.rows.assign(rows.begin() + static_cast<std::ptrdiff_t>(sent),
                      rows.begin() + static_cast<std::ptrdiff_t>(sent + take));
    sent += take;
    chunk.last = sent == rows.size();
    loop_.send(ctrl_conn_, encode_loads(chunk));
  } while (sent < rows.size());  // no rows still sends one last chunk
}

void Node::handle_reset() {
  // The controller broadcasts a reset only when the whole cluster is
  // certified idle, so nothing moves between this dry point and the
  // baseline stores below.
  settle();
  runtime_->reset_metrics();
  base_.events = runtime_->events_processed();
  base_.wire = wire_counters();
  if (transport_ != nullptr) {
    const RetryStats& rs = transport_->stats();
    base_.retransmissions = rs.retransmissions;
    base_.duplicates_suppressed = rs.duplicates_suppressed;
    base_.messages_abandoned = rs.messages_abandoned;
  }
  // Ack with a Ready frame: the controller must not issue measured
  // Starts until every node has re-baselined, or a fast peer's first
  // measured message could reach us ahead of our own reset (TCP orders
  // per connection, not across them) and be absorbed into the baseline
  // — leaving the global sent/received counts permanently skewed and
  // the quiescence barrier unsatisfiable.
  loop_.send(ctrl_conn_, encode_ready(ReadyFrame{cfg_.node_id}));
}

int Node::wait_ms() const {
  // Due wall timers fire inside drive(), so the kernel wait ends at the
  // earliest armed deadline.
  const std::int64_t wait_us = runtime_->inline_timer_wait_us();
  return wait_us < 0 ? -1 : static_cast<int>((wait_us + 999) / 1000);
}

void Node::setup_sockets(std::uint16_t* tcp_port, std::uint16_t* udp_port) {
  ctrl_conn_ = loop_.add_connection(
      tcp_connect(cfg_.ctrl_port, 15000),
      [this](int, const FrameView& f) { on_ctrl_frame(f); },
      [this](int) {
        DCNT_CHECK_MSG(shutdown_, "controller connection lost");
      });
  if (!cfg_.udp && cfg_.num_nodes > 1) {
    // Identity of an accepted peer is unknown until its Hello arrives.
    loop_.add_listener(tcp_listen(tcp_port), [this](Socket s) {
      add_peer_connection(std::move(s));
    });
  }
  if (cfg_.udp) {
    loop_.add_udp(udp_bind(udp_port), [this](const FrameView& f) {
      stage_wire_message(f);
    });
  }
}

int Node::run() {
  DCNT_CHECK_MSG(cfg_.ctrl_port != 0, "node needs --ctrl_port");
  build_runtime();
  peer_conn_.assign(cfg_.num_nodes, -1);
  // Distinct stream for the loss shim so dropping datagrams never
  // perturbs the protocol's own randomness.
  drop_rng_ = Rng(mix64(cfg_.seed ^ 0x10551055ull)).fork(cfg_.node_id + 1);
  expected_links_ = (!cfg_.udp && cfg_.num_nodes > 1)
                        ? static_cast<std::size_t>(cfg_.num_nodes) - 1
                        : 0;

  std::uint16_t tcp_port = 0;
  std::uint16_t udp_port = 0;
  setup_sockets(&tcp_port, &udp_port);
  loop_.send(ctrl_conn_,
             encode_hello(HelloFrame{cfg_.node_id, tcp_port, udp_port}));

  while (!shutdown_) {
    drain();
    loop_.run_once(wait_ms());
  }
  // Flush queued control/data bytes (the load report) before the
  // destructors close the sockets.
  while (loop_.backlog()) loop_.run_once(10);
  return 0;
}

}  // namespace

int run_node(const NodeConfig& config) {
  Node node(config);
  return node.run();
}

}  // namespace dcnt::net
