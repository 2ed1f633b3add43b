// Wire format for the socket runtime: length-prefixed, versioned frames.
//
// Every byte that crosses a socket — TCP stream or UDP datagram — is one
// frame:
//
//   [u32 payload_len][u8 version][u8 type][body...]
//
// all integers little-endian, payload_len counting everything after the
// length word. The kMsg body carries a protocol Message verbatim
// (src, dst, tag, op, args), so the PROTOCOL.md framing fields — the
// reliable transport's [seq, inner_tag, inner_args...] Data envelopes
// and [seq] Acks — ride inside args untouched: the wire layer moves
// envelopes, the ReliableTransport decorator inside each node gives
// them meaning (see PROTOCOL.md, "Reliable transport framing").
//
// Control frames (node <-> cluster controller) share the same framing:
// Hello/Peers/Ready for the mesh handshake, Start/Complete for the
// initiator RPC, StatsRequest/Stats for the distributed-quiescence
// barrier and metrics collection, Shutdown to end a node.
//
// Trust model: frames are parsed with hard bounds checks
// (kMaxFramePayload, per-field underflow checks) and a malformed or
// version-mismatched frame aborts the process (DCNT_CHECK) — peers are
// our own binaries on localhost, so corruption is a bug, not an attack
// to survive. The v2 *keyed* frames (below) are the exception: they are
// the service fabric's data plane, and their decoders reject (return
// false) instead of aborting, so a node can drop-and-count a mangled
// keyed frame without taking the whole cluster down with it.
//
// Versioning: kWireVersion is 2 since the keyed envelope landed, and
// FrameView accepts only that version — every node and controller is
// built from one tree, so no peer ever speaks another.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace dcnt::net {

inline constexpr std::uint8_t kWireVersion = 2;
/// Upper bound on one frame's payload; protects against a corrupt
/// length word committing us to a gigabyte read.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,     ///< node -> controller: id + data-plane ports
  kPeers = 2,     ///< controller -> node: everyone's ports
  kReady = 3,     ///< node -> controller: peer mesh established
  kStart = 4,     ///< controller -> node: begin op at an owned processor
  kComplete = 5,  ///< node -> controller: op finished with value
  kMsg = 6,       ///< node -> node: one protocol Message
  kStatsRequest = 7,  ///< controller -> node: report counters now
  kStats = 8,         ///< node -> controller: counters + per-proc loads
  kShutdown = 9,      ///< controller -> node: flush stats reply and exit
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

  // --- v2: the service fabric's keyed envelope (wire version 2) ---

  /// node -> node: one protocol Message plus the counter key it belongs
  /// to. kMsg with a key_id prefix; the multi-key fabric's data plane.
  kKeyedMsg = 12,
  /// controller -> node: a batch of keyed op starts for processors this
  /// node owns, split into individual kStart events at the receiver.
  kStartBatch = 13,
  /// node -> controller: completions coalesced per drain round — the
  /// reply half of the batched multi-key RPC.
  kCompleteBatch = 14,
  /// node -> controller: per-key per-processor loads + LRU tier
  /// counters, chunked so 100k-key runs never exceed kMaxFramePayload.
  kKeyedStats = 15,
  /// controller -> node: report keyed stats now (sent once, after the
  /// final quiescence barrier — per-key loads are an end-of-run report,
  /// not part of the barrier).
  kKeyedStatsRequest = 16,
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

struct StartFrame {
  OpId op{kNoOp};
  ProcessorId origin{kNoProcessor};
  MessageArgs args;  ///< empty = plain inc
};

struct CompleteFrame {
  OpId op{kNoOp};
  Value value{0};
};

/// Per-processor load triple; only processors the reporting node owns
/// appear, so the controller's merge is exact (each processor is owned
/// by exactly one node).
struct ProcLoad {
  ProcessorId pid{kNoProcessor};
  std::int64_t sent{0};
  std::int64_t received{0};
  std::int64_t words{0};
};

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
  std::vector<ProcLoad> loads;
};

/// One keyed op start inside a kStartBatch.
struct StartBatchEntry {
  OpId op{kNoOp};
  ProcessorId origin{kNoProcessor};
  KeyId key{0};
};

struct StartBatchFrame {
  std::vector<StartBatchEntry> ops;
};

/// One completion inside a kCompleteBatch.
struct CompleteBatchEntry {
  OpId op{kNoOp};
  Value value{0};
};

struct CompleteBatchFrame {
  std::vector<CompleteBatchEntry> completions;
};

/// One (key, processor) load slice inside a kKeyedStats chunk.
struct KeyProcLoad {
  KeyId key{0};
  ProcessorId pid{kNoProcessor};
  std::int64_t sent{0};
  std::int64_t received{0};
};

/// One chunk of a node's per-key report. Chunked because a 100k-key run
/// has too many (key, processor) slices for a single frame; `last`
/// marks the final chunk. The LRU counters ride in every chunk (the
/// controller reads them from the last one).
struct KeyedStatsFrame {
  std::uint32_t node_id{0};
  bool last{true};
  std::int64_t lru_hits{0};
  std::int64_t lru_misses{0};
  std::int64_t lru_evicts{0};
  std::int64_t lru_rehydrates{0};
  std::vector<KeyProcLoad> loads;
};

/// Max (key, processor) slices per kKeyedStats chunk: 28 bytes each,
/// comfortably under kMaxFramePayload with header room to spare.
inline constexpr std::size_t kKeyedStatsChunk = 16384;

// --- encoding -------------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloFrame& f);
std::vector<std::uint8_t> encode_peers(const PeersFrame& f);
std::vector<std::uint8_t> encode_ready(const ReadyFrame& f);
std::vector<std::uint8_t> encode_start(const StartFrame& f);
std::vector<std::uint8_t> encode_complete(const CompleteFrame& f);
std::vector<std::uint8_t> encode_message(const Message& msg);
/// Appends one complete kMsg frame (length word included) to `out`
/// without any intermediate buffer — the zero-allocation path for hot
/// data-plane sends: encode straight into a connection's outbound queue
/// or a reused datagram scratch buffer, coalescing many messages into
/// one write(). Returns the number of bytes appended.
std::size_t append_message(std::vector<std::uint8_t>& out, const Message& msg);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats(const StatsFrame& f);
std::vector<std::uint8_t> encode_shutdown();
std::vector<std::uint8_t> encode_time_jump();
std::vector<std::uint8_t> encode_metrics_reset();

// v2 keyed envelope. append_* are the zero-allocation hot paths,
// mirroring append_message: encode straight into the connection's
// outbound queue.
std::vector<std::uint8_t> encode_keyed_message(const Message& msg);
/// Appends one complete kKeyedMsg frame carrying msg.key; requires
/// msg.key != kNoKey. Returns bytes appended.
std::size_t append_keyed_message(std::vector<std::uint8_t>& out,
                                 const Message& msg);
std::vector<std::uint8_t> encode_start_batch(const StartBatchFrame& f);
std::vector<std::uint8_t> encode_complete_batch(const CompleteBatchFrame& f);
/// Appends one complete kCompleteBatch frame. Returns bytes appended.
std::size_t append_complete_batch(std::vector<std::uint8_t>& out,
                                  const CompleteBatchFrame& f);
std::vector<std::uint8_t> encode_keyed_stats(const KeyedStatsFrame& f);
std::vector<std::uint8_t> encode_keyed_stats_request();

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

HelloFrame decode_hello(const FrameView& frame);
PeersFrame decode_peers(const FrameView& frame);
ReadyFrame decode_ready(const FrameView& frame);
StartFrame decode_start(const FrameView& frame);
CompleteFrame decode_complete(const FrameView& frame);
Message decode_message(const FrameView& frame);
StatsFrame decode_stats(const FrameView& frame);

// v2 keyed decoders: hardened, non-aborting. Each validates the body
// completely (field bounds, key_id >= 0, exact length) and returns
// false on any malformation — the caller drops and counts the frame.
// They still DCNT_CHECK the frame *type*: dispatching the wrong type
// here is a local bug, not wire corruption.
bool decode_keyed_message(const FrameView& frame, Message* out);
bool decode_start_batch(const FrameView& frame, StartBatchFrame* out);
bool decode_complete_batch(const FrameView& frame, CompleteBatchFrame* out);
bool decode_keyed_stats(const FrameView& frame, KeyedStatsFrame* out);

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
