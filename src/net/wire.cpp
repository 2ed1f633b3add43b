#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/check.hpp"

namespace dcnt::net {

namespace {

// The wire is little-endian. The cluster only spans localhost today,
// but the format should not silently depend on host endianness: a
// little-endian host copies whole words, any other host shuffles bytes.

/// Writes v's sizeof(T) bytes at `at`, least significant first.
template <class T>
void store_le(std::uint8_t* at, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      at[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <class T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  store_le(out.data() + at, v);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  put_le(out, v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_le(out, v);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le(out, v);
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

/// Appends a frame header whose length word finish_frame backpatches.
/// Returns the frame's offset in `out`.
std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type) {
  const std::size_t start = out.size();
  put_u32(out, 0);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  return start;
}

/// Backpatches the length word of the frame begun at `start`. Returns
/// the frame's size, length word included.
std::size_t finish_frame(std::vector<std::uint8_t>& out, std::size_t start) {
  const std::size_t payload = out.size() - start - 4;
  DCNT_CHECK_MSG(payload <= kMaxFramePayload, "frame payload too large");
  store_le(out.data() + start, static_cast<std::uint32_t>(payload));
  return out.size() - start;
}

std::vector<std::uint8_t> bodyless(FrameType type) {
  std::vector<std::uint8_t> out;
  finish_frame(out, begin_frame(out, type));
  return out;
}

/// Bounds-checked sequential reader over one frame body. Reading past
/// the end, or constructing it over a frame of another type, sets a
/// sticky failure flag and yields zeros from then on, so a decoder
/// reads its fields unconditionally and asks done() once at the end.
class BodyReader {
 public:
  BodyReader(const FrameView& frame, FrameType type)
      : data_(frame.body()),
        size_(frame.body_size()),
        failed_(frame.type() != type) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::int32_t i32() { return static_cast<std::int32_t>(take(4)); }
  std::int64_t i64() { return static_cast<std::int64_t>(take(8)); }

  /// Reads a u32 entry count and fails unless exactly that many
  /// `entry_bytes`-sized entries remain — checked before any caller
  /// sizes an allocation from the count.
  std::uint32_t count(std::size_t entry_bytes) {
    const std::uint32_t n = u32();
    require(static_cast<std::size_t>(n) * entry_bytes == size_ - pos_);
    return failed_ ? 0 : n;
  }

  /// Fails the read when a decoded field is out of range.
  void require(bool valid) { failed_ = failed_ || !valid; }

  /// The whole body was read, in bounds, and every field was valid.
  bool done() const { return !failed_ && pos_ == size_; }

 private:
  std::uint64_t take(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_ + pos_, n);
    } else {
      for (std::size_t i = n; i-- > 0;) v = (v << 8) | data_[pos_ + i];
    }
    pos_ += n;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
  bool failed_;
};

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloFrame& f) {
  std::vector<std::uint8_t> out;
  const std::size_t start = begin_frame(out, FrameType::kHello);
  put_u32(out, f.node_id);
  put_u16(out, f.tcp_port);
  put_u16(out, f.udp_port);
  finish_frame(out, start);
  return out;
}

std::vector<std::uint8_t> encode_peers(const PeersFrame& f) {
  std::vector<std::uint8_t> out;
  const std::size_t start = begin_frame(out, FrameType::kPeers);
  put_u32(out, static_cast<std::uint32_t>(f.peers.size()));
  for (const PeerAddr& p : f.peers) {
    put_u32(out, p.node_id);
    put_u16(out, p.tcp_port);
    put_u16(out, p.udp_port);
  }
  finish_frame(out, start);
  return out;
}

std::vector<std::uint8_t> encode_ready(const ReadyFrame& f) {
  std::vector<std::uint8_t> out;
  const std::size_t start = begin_frame(out, FrameType::kReady);
  put_u32(out, f.node_id);
  finish_frame(out, start);
  return out;
}

namespace {

/// Appends the header and entry count of a batch frame of `n` entries
/// of `entry_bytes` each, sizing the whole frame with one resize, and
/// returns where its first entry goes. The batch encoders then store
/// each field by offset: per entry no resize, no capacity check.
std::uint8_t* begin_batch_frame(std::vector<std::uint8_t>& out,
                                FrameType type, std::size_t n,
                                std::size_t entry_bytes) {
  const std::size_t payload = 2 + 4 + n * entry_bytes;
  DCNT_CHECK_MSG(payload <= kMaxFramePayload, "frame payload too large");
  const std::size_t start = out.size();
  out.resize(start + 4 + payload);
  std::uint8_t* at = out.data() + start;
  store_le(at, static_cast<std::uint32_t>(payload));
  at[4] = kWireVersion;
  at[5] = static_cast<std::uint8_t>(type);
  store_le(at + 6, static_cast<std::uint32_t>(n));
  return at + 10;
}

void append_start_batch(std::vector<std::uint8_t>& out,
                        std::span<const StartBatchEntry> ops) {
  DCNT_CHECK_MSG(ops.size() <= kBatchEntryCap, "start batch too large");
  std::uint8_t* at =
      begin_batch_frame(out, FrameType::kStartBatch, ops.size(), 20);
  for (const StartBatchEntry& e : ops) {
    store_le(at, static_cast<std::uint64_t>(e.op));
    store_le(at + 8, static_cast<std::uint32_t>(e.origin));
    store_le(at + 12, static_cast<std::uint64_t>(e.key));
    at += 20;
  }
}

void append_complete_batch(std::vector<std::uint8_t>& out,
                           std::span<const CompleteBatchEntry> completions) {
  DCNT_CHECK_MSG(completions.size() <= kBatchEntryCap,
                 "complete batch too large");
  std::uint8_t* at = begin_batch_frame(out, FrameType::kCompleteBatch,
                                       completions.size(), 16);
  for (const CompleteBatchEntry& e : completions) {
    store_le(at, static_cast<std::uint64_t>(e.op));
    store_le(at + 8, static_cast<std::uint64_t>(e.value));
    at += 16;
  }
}

/// Appends `entries` as frames of at most kBatchEntryCap entries, each
/// written by `append_frame`; returns the frames appended.
template <class Entry, class AppendFrame>
std::size_t append_split(std::vector<std::uint8_t>& out,
                         std::span<const Entry> entries,
                         AppendFrame append_frame) {
  std::size_t frames = 0;
  for (std::size_t first = 0; first < entries.size();
       first += kBatchEntryCap, ++frames) {
    append_frame(out, entries.subspan(first, std::min(kBatchEntryCap,
                                                      entries.size() - first)));
  }
  return frames;
}

}  // namespace

std::vector<std::uint8_t> encode_start_batch(const StartBatchFrame& f) {
  std::vector<std::uint8_t> out;
  append_start_batch(out, f.ops);
  return out;
}

std::size_t append_start_batches(std::vector<std::uint8_t>& out,
                                 std::span<const StartBatchEntry> ops) {
  return append_split(out, ops, append_start_batch);
}

std::vector<std::uint8_t> encode_complete_batch(const CompleteBatchFrame& f) {
  std::vector<std::uint8_t> out;
  append_complete_batch(out, f.completions);
  return out;
}

std::size_t append_complete_batches(
    std::vector<std::uint8_t>& out,
    std::span<const CompleteBatchEntry> completions) {
  return append_split(out, completions, append_complete_batch);
}

std::vector<std::uint8_t> encode_message(const Message& msg) {
  std::vector<std::uint8_t> out;
  append_message(out, msg);
  return out;
}

std::size_t append_message(std::vector<std::uint8_t>& out,
                           const Message& msg) {
  const bool keyed = msg.key != kNoKey;
  const std::size_t start =
      begin_frame(out, keyed ? FrameType::kKeyedMsg : FrameType::kMsg);
  if (keyed) put_i64(out, msg.key);
  put_i32(out, msg.src);
  put_i32(out, msg.dst);
  put_i32(out, msg.tag);
  put_i64(out, msg.op);
  put_u32(out, static_cast<std::uint32_t>(msg.args.size()));
  for (const std::int64_t a : msg.args) put_i64(out, a);
  return finish_frame(out, start);
}

std::vector<std::uint8_t> encode_stats_request() {
  return bodyless(FrameType::kStatsRequest);
}

std::vector<std::uint8_t> encode_stats(const StatsFrame& f) {
  std::vector<std::uint8_t> out;
  const std::size_t start = begin_frame(out, FrameType::kStats);
  put_u32(out, f.node_id);
  put_i64(out, f.events_processed);
  put_i64(out, f.wire_msgs_sent);
  put_i64(out, f.wire_msgs_received);
  put_i64(out, f.wire_bytes_sent);
  put_i64(out, f.wire_bytes_received);
  put_i64(out, f.injected_drops);
  put_i64(out, f.unacked);
  put_i64(out, f.timers_armed);
  put_i64(out, f.retransmissions);
  put_i64(out, f.duplicates_suppressed);
  put_i64(out, f.messages_abandoned);
  put_i64(out, f.wire_write_syscalls);
  put_i64(out, f.frames_rejected);
  finish_frame(out, start);
  return out;
}

std::vector<std::uint8_t> encode_shutdown() {
  return bodyless(FrameType::kShutdown);
}

std::vector<std::uint8_t> encode_time_jump() {
  return bodyless(FrameType::kTimeJump);
}

std::vector<std::uint8_t> encode_metrics_reset() {
  return bodyless(FrameType::kMetricsReset);
}

std::vector<std::uint8_t> encode_loads(const LoadsFrame& f) {
  DCNT_CHECK_MSG(f.rows.size() <= kLoadsChunk, "load report chunk too large");
  std::vector<std::uint8_t> out;
  const std::size_t start = begin_frame(out, FrameType::kLoads);
  put_u32(out, f.node_id);
  put_u8(out, f.last ? 1 : 0);
  put_i64(out, f.lru_hits);
  put_i64(out, f.lru_misses);
  put_i64(out, f.lru_evicts);
  put_i64(out, f.lru_rehydrates);
  put_u32(out, static_cast<std::uint32_t>(f.rows.size()));
  for (const LoadRow& l : f.rows) {
    put_i64(out, l.key);
    put_i32(out, l.pid);
    put_i64(out, l.sent);
    put_i64(out, l.received);
  }
  finish_frame(out, start);
  return out;
}

FrameView::FrameView(const std::uint8_t* data, std::size_t size)
    : data_(data), size_(size) {
  DCNT_CHECK_MSG(size_ >= 2, "frame shorter than its header");
  DCNT_CHECK_MSG(data_[0] == kWireVersion, "wire version mismatch");
}

FrameType FrameView::type() const {
  const std::uint8_t t = data_[1];
  DCNT_CHECK_MSG(
      t >= static_cast<std::uint8_t>(FrameType::kHello) &&
          t <= static_cast<std::uint8_t>(FrameType::kLoads),
      "unknown frame type");
  return static_cast<FrameType>(t);
}

bool decode_hello(const FrameView& frame, HelloFrame* out) {
  BodyReader r(frame, FrameType::kHello);
  out->node_id = r.u32();
  out->tcp_port = r.u16();
  out->udp_port = r.u16();
  return r.done();
}

bool decode_peers(const FrameView& frame, PeersFrame* out) {
  BodyReader r(frame, FrameType::kPeers);
  out->peers.resize(r.count(8));
  for (PeerAddr& p : out->peers) {
    p.node_id = r.u32();
    p.tcp_port = r.u16();
    p.udp_port = r.u16();
  }
  return r.done();
}

bool decode_ready(const FrameView& frame, ReadyFrame* out) {
  BodyReader r(frame, FrameType::kReady);
  out->node_id = r.u32();
  return r.done();
}

bool decode_start_batch(const FrameView& frame, StartBatchFrame* out) {
  BodyReader r(frame, FrameType::kStartBatch);
  out->ops.resize(r.count(20));
  r.require(out->ops.size() <= kBatchEntryCap);
  for (StartBatchEntry& e : out->ops) {
    e.op = r.i64();
    e.origin = r.i32();
    e.key = r.i64();
    r.require(e.op >= 0 && e.origin >= 0 && e.key >= kNoKey);
  }
  return r.done();
}

bool decode_complete_batch(const FrameView& frame, CompleteBatchFrame* out) {
  BodyReader r(frame, FrameType::kCompleteBatch);
  out->completions.resize(r.count(16));
  r.require(out->completions.size() <= kBatchEntryCap);
  for (CompleteBatchEntry& e : out->completions) {
    e.op = r.i64();
    e.value = r.i64();
  }
  return r.done();
}

bool decode_message(const FrameView& frame, Message* out) {
  const bool keyed = frame.type() == FrameType::kKeyedMsg;
  BodyReader r(frame, keyed ? FrameType::kKeyedMsg : FrameType::kMsg);
  out->key = keyed ? r.i64() : kNoKey;
  r.require(!keyed || out->key >= 0);
  out->src = r.i32();
  out->dst = r.i32();
  out->tag = r.i32();
  out->op = r.i64();
  const std::uint32_t argc = r.count(8);
  out->args = MessageArgs();
  out->args.reserve(argc);
  for (std::uint32_t i = 0; i < argc; ++i) out->args.push_back(r.i64());
  return r.done();
}

bool decode_stats(const FrameView& frame, StatsFrame* out) {
  BodyReader r(frame, FrameType::kStats);
  out->node_id = r.u32();
  out->events_processed = r.i64();
  out->wire_msgs_sent = r.i64();
  out->wire_msgs_received = r.i64();
  out->wire_bytes_sent = r.i64();
  out->wire_bytes_received = r.i64();
  out->injected_drops = r.i64();
  out->unacked = r.i64();
  out->timers_armed = r.i64();
  out->retransmissions = r.i64();
  out->duplicates_suppressed = r.i64();
  out->messages_abandoned = r.i64();
  out->wire_write_syscalls = r.i64();
  out->frames_rejected = r.i64();
  return r.done();
}

bool decode_loads(const FrameView& frame, LoadsFrame* out) {
  BodyReader r(frame, FrameType::kLoads);
  out->node_id = r.u32();
  const std::uint8_t last = r.u8();
  r.require(last <= 1);
  out->last = last == 1;
  out->lru_hits = r.i64();
  out->lru_misses = r.i64();
  out->lru_evicts = r.i64();
  out->lru_rehydrates = r.i64();
  out->rows.resize(r.count(28));
  r.require(out->rows.size() <= kLoadsChunk);
  for (LoadRow& l : out->rows) {
    l.key = r.i64();
    l.pid = r.i32();
    l.sent = r.i64();
    l.received = r.i64();
    r.require(l.key >= kNoKey && l.pid >= 0);
  }
  return r.done();
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameReader::pop(std::vector<std::uint8_t>& out) {
  const std::size_t avail = buffer_.size() - head_;
  if (avail < 4) return false;
  const std::uint8_t* p = buffer_.data() + head_;
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | p[i];
  DCNT_CHECK_MSG(len >= 2 && len <= kMaxFramePayload,
                 "corrupt frame length on the wire");
  if (avail < 4 + static_cast<std::size_t>(len)) return false;
  out.assign(p + 4, p + 4 + len);
  head_ += 4 + len;
  // Compact once the consumed prefix dominates, so long-lived
  // connections don't grow the buffer without bound.
  if (head_ > 4096 && head_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return true;
}

}  // namespace dcnt::net
