// Wire format for the socket runtime: length-prefixed, versioned frames.
//
// Every byte that crosses a socket — TCP stream or UDP datagram — is one
// frame:
//
//   [u32 payload_len][u8 version][u8 type][body...]
//
// all integers little-endian, payload_len counting everything after the
// length word. One frame per concept: a Msg frame carries one protocol
// Message verbatim (src, dst, tag, op, args), and its keyed twin adds
// the counter key in front, so the PROTOCOL.md framing fields — the
// reliable transport's [seq, inner_tag, inner_args...] Data envelopes
// and [seq] Acks — ride inside args untouched: the wire layer moves
// envelopes, the ReliableTransport decorator inside each node gives
// them meaning (see PROTOCOL.md, "Reliable transport framing").
//
// Control frames (node <-> cluster controller) share the same framing:
// Hello/Peers/Ready for the mesh handshake, StartBatch/CompleteBatch
// for the initiator RPC (every op, plain or keyed, one entry of a
// batch), StatsRequest/Stats for the distributed-quiescence barrier and
// its transport counters, and Shutdown to end a node, which answers it
// with its one load report (Loads): every owned processor's m_p and,
// with keys, each processor's slice of each key.
//
// Trust model: decoders reject, callers choose the policy. Every body
// decoder is bounds-checked and returns false on malformed input
// (truncation, trailing bytes, a count the body cannot hold, an
// out-of-range field); none aborts. The controller and a TCP node treat
// a rejection as fatal — nothing can replace a frame lost on a reliable
// stream — while a UDP node drops the frame and counts it in
// StatsFrame::frames_rejected, leaving the retransmission to the
// reliable transport. The header checks (FrameView's version and type,
// FrameReader's length bound) still abort.
//
// Versioning: kWireVersion is 5 since the loads left Stats for the one
// Loads report (4 dropped the Stats row's word count, 3 unified the
// frame vocabulary), and FrameView accepts only that version — every
// node and controller is built from one tree, so no peer ever speaks
// another.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace dcnt::net {

inline constexpr std::uint8_t kWireVersion = 5;
/// Upper bound on one frame's payload; protects against a corrupt
/// length word committing us to a gigabyte read.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,     ///< node -> controller: id + data-plane ports
  kPeers = 2,     ///< controller -> node: everyone's ports
  kReady = 3,     ///< node -> controller: peer mesh established
  /// controller -> node: every op start the controller issued since its
  /// previous reactor round for processors this node owns, one entry
  /// per op, split at kBatchEntryCap.
  kStartBatch = 4,
  /// node -> controller: the completions of one drain round, split at
  /// kBatchEntryCap.
  kCompleteBatch = 5,
  kMsg = 6,       ///< node -> node: one protocol Message
  kStatsRequest = 7,  ///< controller -> node: report counters now
  kStats = 8,         ///< node -> controller: progress + transport counters
  kShutdown = 9,      ///< controller -> node: send the load report and exit
  /// controller -> node: the cluster is idle except for armed timers;
  /// fire them now instead of waiting out their wall deadlines. The
  /// distributed analogue of the simulator's idle clock-jump — only the
  /// controller can see global idleness, so it pulls the trigger.
  kTimeJump = 10,
  /// controller -> node: zero the message-load metrics and remember the
  /// current transport counters as the new baseline. Broadcast at a
  /// quiescent barrier after the warmup phase, so cold-start traffic
  /// never appears in the measured stats.
  kMetricsReset = 11,
  /// node -> node: a kMsg body prefixed by the counter key it belongs
  /// to — the multi-key fabric's data plane. append_message picks it
  /// whenever msg.key != kNoKey.
  kKeyedMsg = 12,
  /// node -> controller: the node's load report, its answer to
  /// kShutdown — per-processor and per-(key, processor) loads plus the
  /// LRU tier counters, chunked so 100k-key runs never exceed
  /// kMaxFramePayload.
  kLoads = 13,
};

struct HelloFrame {
  std::uint32_t node_id{0};
  std::uint16_t tcp_port{0};  ///< peer-mesh listener (0 in UDP mode)
  std::uint16_t udp_port{0};  ///< data-plane datagram socket (0 in TCP mode)
};

struct PeerAddr {
  std::uint32_t node_id{0};
  std::uint16_t tcp_port{0};
  std::uint16_t udp_port{0};
};

struct PeersFrame {
  std::vector<PeerAddr> peers;  ///< one entry per node, id order
};

struct ReadyFrame {
  std::uint32_t node_id{0};
};

/// One op start inside a kStartBatch.
struct StartBatchEntry {
  OpId op{kNoOp};
  ProcessorId origin{kNoProcessor};
  KeyId key{kNoKey};  ///< kNoKey = plain inc
};

struct StartBatchFrame {
  std::vector<StartBatchEntry> ops;
};

/// One completion inside a kCompleteBatch.
using CompleteBatchEntry = Completion;

struct CompleteBatchFrame {
  std::vector<CompleteBatchEntry> completions;
};

/// Max entries per kStartBatch or kCompleteBatch frame. A reactor
/// round's starts, or a drain round's completions, can outnumber what
/// one frame holds (a window of 80,000 ops in flight), so senders split
/// them at this cap, as kLoadsChunk splits a load report. An entry
/// is at most 20 bytes, so a full frame stays at 640 KiB, well under
/// kMaxFramePayload. Encoders check the cap; decoders reject counts
/// above it.
inline constexpr std::size_t kBatchEntryCap = kMaxFramePayload / 32;

struct StatsFrame {
  std::uint32_t node_id{0};
  /// Monotone progress counter: every handled event (message delivery,
  /// op start, timer firing) bumps it. Two identical consecutive
  /// snapshots across all nodes = nothing moved between the rounds.
  std::int64_t events_processed{0};
  /// Data-plane frames actually handed to the kernel / received from it
  /// (UDP: after injected drops).
  std::int64_t wire_msgs_sent{0};
  std::int64_t wire_msgs_received{0};
  std::int64_t wire_bytes_sent{0};
  std::int64_t wire_bytes_received{0};
  /// Datagrams suppressed by the seeded loss shim (UDP lossy mode).
  std::int64_t injected_drops{0};
  /// Reliable-transport envelopes still awaiting an ack (0 in TCP
  /// mode). Nonzero means retransmissions are coming: not quiescent.
  std::int64_t unacked{0};
  /// Armed send_local timers. Pending work too, but reported separately
  /// because the controller can fast-forward it (kTimeJump) once
  /// everything else has settled.
  std::int64_t timers_armed{0};
  std::int64_t retransmissions{0};
  std::int64_t duplicates_suppressed{0};
  std::int64_t messages_abandoned{0};
  /// write()/send() syscalls the data plane issued (TCP mode; one
  /// sendto per datagram in UDP mode). wire_bytes_sent divided by this
  /// is bytes-per-syscall — the direct observable for send coalescing.
  std::int64_t wire_write_syscalls{0};
  /// Malformed data-plane frames the node dropped (UDP mode; a TCP node
  /// aborts instead). Never re-baselined: a rejection is a fault.
  std::int64_t frames_rejected{0};
};

/// One row of a load report: processor `pid`'s overall load when `key`
/// is kNoKey, else its slice of that key. Only processors the reporting
/// node owns appear, so the controller's merge is exact (each processor
/// is owned by exactly one node).
struct LoadRow {
  KeyId key{kNoKey};
  ProcessorId pid{kNoProcessor};
  std::int64_t sent{0};
  std::int64_t received{0};
};

/// One chunk of a node's load report. Chunked because a 100k-key run
/// has too many (key, processor) slices for a single frame; `last`
/// marks the final chunk. The LRU counters (zero without keys) ride in
/// every chunk; the controller reads them from the last one.
struct LoadsFrame {
  std::uint32_t node_id{0};
  bool last{true};
  std::int64_t lru_hits{0};
  std::int64_t lru_misses{0};
  std::int64_t lru_evicts{0};
  std::int64_t lru_rehydrates{0};
  std::vector<LoadRow> rows;
};

/// Max rows per kLoads chunk: 28 bytes each, comfortably under
/// kMaxFramePayload with header room to spare.
inline constexpr std::size_t kLoadsChunk = 16384;

// --- encoding -------------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloFrame& f);
std::vector<std::uint8_t> encode_peers(const PeersFrame& f);
std::vector<std::uint8_t> encode_ready(const ReadyFrame& f);
std::vector<std::uint8_t> encode_start_batch(const StartBatchFrame& f);
std::vector<std::uint8_t> encode_complete_batch(const CompleteBatchFrame& f);
std::vector<std::uint8_t> encode_message(const Message& msg);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats(const StatsFrame& f);
std::vector<std::uint8_t> encode_shutdown();
std::vector<std::uint8_t> encode_time_jump();
std::vector<std::uint8_t> encode_metrics_reset();
std::vector<std::uint8_t> encode_loads(const LoadsFrame& f);

// append_* are the zero-allocation hot paths: they encode one complete
// frame (length word included) straight onto the end of `out` — a
// connection's outbound queue or a reused datagram scratch buffer — so
// many frames coalesce into one write(). Each returns bytes appended.

/// A kMsg frame, or a kKeyedMsg frame carrying msg.key when it is not
/// kNoKey.
std::size_t append_message(std::vector<std::uint8_t>& out, const Message& msg);
/// Every entry, as kStartBatch / kCompleteBatch frames of at most
/// kBatchEntryCap entries each (none when there are no entries).
/// Returns the frames appended.
std::size_t append_start_batches(std::vector<std::uint8_t>& out,
                                 std::span<const StartBatchEntry> ops);
std::size_t append_complete_batches(
    std::vector<std::uint8_t>& out,
    std::span<const CompleteBatchEntry> completions);

// --- decoding -------------------------------------------------------------

/// A complete frame's payload (version + type + body, the length word
/// stripped). The constructor DCNT_CHECKs the version (kWireVersion
/// only); `type()` additionally rejects unknown types.
class FrameView {
 public:
  FrameView(const std::uint8_t* data, std::size_t size);

  FrameType type() const;
  /// Body bytes (after version + type).
  const std::uint8_t* body() const { return data_ + 2; }
  std::size_t body_size() const { return size_ - 2; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
};

// Body decoders: each validates the body completely (field bounds,
// counts against the bytes present, exact length) and returns false on
// any malformation, or when handed a frame of another type; `*out` is
// then unspecified. None aborts — the caller decides what a rejected
// frame costs (see the trust model above).
bool decode_hello(const FrameView& frame, HelloFrame* out);
bool decode_peers(const FrameView& frame, PeersFrame* out);
bool decode_ready(const FrameView& frame, ReadyFrame* out);
bool decode_start_batch(const FrameView& frame, StartBatchFrame* out);
bool decode_complete_batch(const FrameView& frame, CompleteBatchFrame* out);
/// Both kMsg and kKeyedMsg; a plain frame decodes with key = kNoKey.
bool decode_message(const FrameView& frame, Message* out);
bool decode_stats(const FrameView& frame, StatsFrame* out);
bool decode_loads(const FrameView& frame, LoadsFrame* out);

/// Incremental frame extractor for a TCP byte stream (also used one
/// datagram at a time for UDP, where the kernel preserves boundaries).
/// Feed arbitrary chunks; pop complete payloads as they materialize.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t size);

  /// Moves the next complete payload (version + type + body) into `out`
  /// and returns true, or returns false if none is buffered.
  bool pop(std::vector<std::uint8_t>& out);

  std::size_t buffered_bytes() const { return buffer_.size() - head_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t head_{0};  ///< consumed prefix, compacted lazily
};

}  // namespace dcnt::net
