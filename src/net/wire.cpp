#include "net/wire.hpp"

#include <cstring>

#include "support/check.hpp"

namespace dcnt::net {

namespace {

// Explicit little-endian byte shuffling: the cluster only spans
// localhost today, but the wire format should not silently depend on
// host endianness.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over a frame body.
class BodyReader {
 public:
  BodyReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    const std::uint8_t* p = take(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t u32() {
    const std::uint8_t* p = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::uint64_t u64() {
    const std::uint8_t* p = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  void expect_end() const {
    DCNT_CHECK_MSG(pos_ == size_, "trailing bytes in frame body");
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    DCNT_CHECK_MSG(pos_ + n <= size_, "truncated frame body");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

/// Non-aborting cousin of BodyReader for the hardened keyed decoders:
/// every take reports truncation instead of DCNT_CHECKing, so a mangled
/// keyed frame is rejected, never fatal.
class SafeReader {
 public:
  SafeReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t* v) {
    const std::uint8_t* p = take(1);
    if (!p) return false;
    *v = p[0];
    return true;
  }

  bool u32(std::uint32_t* v) {
    const std::uint8_t* p = take(4);
    if (!p) return false;
    std::uint32_t x = 0;
    for (int i = 3; i >= 0; --i) x = (x << 8) | p[i];
    *v = x;
    return true;
  }

  bool u64(std::uint64_t* v) {
    const std::uint8_t* p = take(8);
    if (!p) return false;
    std::uint64_t x = 0;
    for (int i = 7; i >= 0; --i) x = (x << 8) | p[i];
    *v = x;
    return true;
  }

  bool i32(std::int32_t* v) {
    std::uint32_t x;
    if (!u32(&x)) return false;
    *v = static_cast<std::int32_t>(x);
    return true;
  }

  bool i64(std::int64_t* v) {
    std::uint64_t x;
    if (!u64(&x)) return false;
    *v = static_cast<std::int64_t>(x);
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (pos_ + n > size_) return nullptr;
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

/// Starts a frame: length placeholder + header. finish_frame backfills
/// the length.
std::vector<std::uint8_t> begin_frame(FrameType type) {
  std::vector<std::uint8_t> out;
  put_u32(out, 0);  // payload length, patched by finish_frame
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  return out;
}

std::vector<std::uint8_t> finish_frame(std::vector<std::uint8_t> out) {
  const std::size_t payload = out.size() - 4;
  DCNT_CHECK_MSG(payload <= kMaxFramePayload, "frame payload too large");
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloFrame& f) {
  auto out = begin_frame(FrameType::kHello);
  put_u32(out, f.node_id);
  put_u16(out, f.tcp_port);
  put_u16(out, f.udp_port);
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_peers(const PeersFrame& f) {
  auto out = begin_frame(FrameType::kPeers);
  put_u32(out, static_cast<std::uint32_t>(f.peers.size()));
  for (const PeerAddr& p : f.peers) {
    put_u32(out, p.node_id);
    put_u16(out, p.tcp_port);
    put_u16(out, p.udp_port);
  }
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_ready(const ReadyFrame& f) {
  auto out = begin_frame(FrameType::kReady);
  put_u32(out, f.node_id);
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_start(const StartFrame& f) {
  auto out = begin_frame(FrameType::kStart);
  put_i64(out, f.op);
  put_i32(out, f.origin);
  put_u32(out, static_cast<std::uint32_t>(f.args.size()));
  for (const std::int64_t a : f.args) put_i64(out, a);
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_complete(const CompleteFrame& f) {
  auto out = begin_frame(FrameType::kComplete);
  put_i64(out, f.op);
  put_i64(out, f.value);
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_message(const Message& msg) {
  std::vector<std::uint8_t> out;
  append_message(out, msg);
  return out;
}

std::size_t append_message(std::vector<std::uint8_t>& out,
                           const Message& msg) {
  const std::size_t start = out.size();
  put_u32(out, 0);  // payload length, backpatched below
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(FrameType::kMsg));
  put_i32(out, msg.src);
  put_i32(out, msg.dst);
  put_i32(out, msg.tag);
  put_i64(out, msg.op);
  put_u32(out, static_cast<std::uint32_t>(msg.args.size()));
  for (const std::int64_t a : msg.args) put_i64(out, a);
  const std::size_t payload = out.size() - start - 4;
  DCNT_CHECK_MSG(payload <= kMaxFramePayload, "frame payload too large");
  for (int i = 0; i < 4; ++i) {
    out[start + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
  return out.size() - start;
}

std::vector<std::uint8_t> encode_stats_request() {
  return finish_frame(begin_frame(FrameType::kStatsRequest));
}

std::vector<std::uint8_t> encode_stats(const StatsFrame& f) {
  auto out = begin_frame(FrameType::kStats);
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
  put_u32(out, static_cast<std::uint32_t>(f.loads.size()));
  for (const ProcLoad& l : f.loads) {
    put_i32(out, l.pid);
    put_i64(out, l.sent);
    put_i64(out, l.received);
    put_i64(out, l.words);
  }
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_shutdown() {
  return finish_frame(begin_frame(FrameType::kShutdown));
}

std::vector<std::uint8_t> encode_time_jump() {
  return finish_frame(begin_frame(FrameType::kTimeJump));
}

std::vector<std::uint8_t> encode_metrics_reset() {
  return finish_frame(begin_frame(FrameType::kMetricsReset));
}

std::vector<std::uint8_t> encode_keyed_message(const Message& msg) {
  std::vector<std::uint8_t> out;
  append_keyed_message(out, msg);
  return out;
}

std::size_t append_keyed_message(std::vector<std::uint8_t>& out,
                                 const Message& msg) {
  DCNT_CHECK_MSG(msg.key != kNoKey, "keyed frame requires a key");
  const std::size_t start = out.size();
  put_u32(out, 0);  // payload length, backpatched below
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(FrameType::kKeyedMsg));
  put_i64(out, msg.key);
  put_i32(out, msg.src);
  put_i32(out, msg.dst);
  put_i32(out, msg.tag);
  put_i64(out, msg.op);
  put_u32(out, static_cast<std::uint32_t>(msg.args.size()));
  for (const std::int64_t a : msg.args) put_i64(out, a);
  const std::size_t payload = out.size() - start - 4;
  DCNT_CHECK_MSG(payload <= kMaxFramePayload, "frame payload too large");
  for (int i = 0; i < 4; ++i) {
    out[start + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
  return out.size() - start;
}

std::vector<std::uint8_t> encode_start_batch(const StartBatchFrame& f) {
  auto out = begin_frame(FrameType::kStartBatch);
  put_u32(out, static_cast<std::uint32_t>(f.ops.size()));
  for (const StartBatchEntry& e : f.ops) {
    put_i64(out, e.op);
    put_i32(out, e.origin);
    put_i64(out, e.key);
  }
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_complete_batch(const CompleteBatchFrame& f) {
  std::vector<std::uint8_t> out;
  append_complete_batch(out, f);
  return out;
}

std::size_t append_complete_batch(std::vector<std::uint8_t>& out,
                                  const CompleteBatchFrame& f) {
  const std::size_t start = out.size();
  put_u32(out, 0);  // payload length, backpatched below
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(FrameType::kCompleteBatch));
  put_u32(out, static_cast<std::uint32_t>(f.completions.size()));
  for (const CompleteBatchEntry& e : f.completions) {
    put_i64(out, e.op);
    put_i64(out, e.value);
  }
  const std::size_t payload = out.size() - start - 4;
  DCNT_CHECK_MSG(payload <= kMaxFramePayload, "frame payload too large");
  for (int i = 0; i < 4; ++i) {
    out[start + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
  return out.size() - start;
}

std::vector<std::uint8_t> encode_keyed_stats(const KeyedStatsFrame& f) {
  DCNT_CHECK_MSG(f.loads.size() <= kKeyedStatsChunk,
                 "keyed stats chunk too large");
  auto out = begin_frame(FrameType::kKeyedStats);
  put_u32(out, f.node_id);
  put_u8(out, f.last ? 1 : 0);
  put_i64(out, f.lru_hits);
  put_i64(out, f.lru_misses);
  put_i64(out, f.lru_evicts);
  put_i64(out, f.lru_rehydrates);
  put_u32(out, static_cast<std::uint32_t>(f.loads.size()));
  for (const KeyProcLoad& l : f.loads) {
    put_i64(out, l.key);
    put_i32(out, l.pid);
    put_i64(out, l.sent);
    put_i64(out, l.received);
  }
  return finish_frame(std::move(out));
}

std::vector<std::uint8_t> encode_keyed_stats_request() {
  return finish_frame(begin_frame(FrameType::kKeyedStatsRequest));
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
          t <= static_cast<std::uint8_t>(FrameType::kKeyedStatsRequest),
      "unknown frame type");
  return static_cast<FrameType>(t);
}

HelloFrame decode_hello(const FrameView& frame) {
  DCNT_CHECK(frame.type() == FrameType::kHello);
  BodyReader r(frame.body(), frame.body_size());
  HelloFrame f;
  f.node_id = r.u32();
  f.tcp_port = r.u16();
  f.udp_port = r.u16();
  r.expect_end();
  return f;
}

PeersFrame decode_peers(const FrameView& frame) {
  DCNT_CHECK(frame.type() == FrameType::kPeers);
  BodyReader r(frame.body(), frame.body_size());
  PeersFrame f;
  const std::uint32_t count = r.u32();
  f.peers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PeerAddr p;
    p.node_id = r.u32();
    p.tcp_port = r.u16();
    p.udp_port = r.u16();
    f.peers.push_back(p);
  }
  r.expect_end();
  return f;
}

ReadyFrame decode_ready(const FrameView& frame) {
  DCNT_CHECK(frame.type() == FrameType::kReady);
  BodyReader r(frame.body(), frame.body_size());
  ReadyFrame f;
  f.node_id = r.u32();
  r.expect_end();
  return f;
}

StartFrame decode_start(const FrameView& frame) {
  DCNT_CHECK(frame.type() == FrameType::kStart);
  BodyReader r(frame.body(), frame.body_size());
  StartFrame f;
  f.op = r.i64();
  f.origin = r.i32();
  const std::uint32_t argc = r.u32();
  f.args.reserve(argc);
  for (std::uint32_t i = 0; i < argc; ++i) f.args.push_back(r.i64());
  r.expect_end();
  return f;
}

CompleteFrame decode_complete(const FrameView& frame) {
  DCNT_CHECK(frame.type() == FrameType::kComplete);
  BodyReader r(frame.body(), frame.body_size());
  CompleteFrame f;
  f.op = r.i64();
  f.value = r.i64();
  r.expect_end();
  return f;
}

Message decode_message(const FrameView& frame) {
  DCNT_CHECK(frame.type() == FrameType::kMsg);
  BodyReader r(frame.body(), frame.body_size());
  Message msg;
  msg.src = r.i32();
  msg.dst = r.i32();
  msg.tag = r.i32();
  msg.op = r.i64();
  const std::uint32_t argc = r.u32();
  msg.args.reserve(argc);
  for (std::uint32_t i = 0; i < argc; ++i) msg.args.push_back(r.i64());
  r.expect_end();
  return msg;
}

StatsFrame decode_stats(const FrameView& frame) {
  DCNT_CHECK(frame.type() == FrameType::kStats);
  BodyReader r(frame.body(), frame.body_size());
  StatsFrame f;
  f.node_id = r.u32();
  f.events_processed = r.i64();
  f.wire_msgs_sent = r.i64();
  f.wire_msgs_received = r.i64();
  f.wire_bytes_sent = r.i64();
  f.wire_bytes_received = r.i64();
  f.injected_drops = r.i64();
  f.unacked = r.i64();
  f.timers_armed = r.i64();
  f.retransmissions = r.i64();
  f.duplicates_suppressed = r.i64();
  f.messages_abandoned = r.i64();
  f.wire_write_syscalls = r.i64();
  const std::uint32_t count = r.u32();
  f.loads.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ProcLoad l;
    l.pid = r.i32();
    l.sent = r.i64();
    l.received = r.i64();
    l.words = r.i64();
    f.loads.push_back(l);
  }
  r.expect_end();
  return f;
}

bool decode_keyed_message(const FrameView& frame, Message* out) {
  DCNT_CHECK(frame.type() == FrameType::kKeyedMsg);
  SafeReader r(frame.body(), frame.body_size());
  Message msg;
  std::int64_t key;
  std::uint32_t argc;
  if (!r.i64(&key) || key < 0) return false;
  if (!r.i32(&msg.src) || !r.i32(&msg.dst) || !r.i32(&msg.tag) ||
      !r.i64(&msg.op)) {
    return false;
  }
  if (!r.u32(&argc)) return false;
  // Bound argc by the bytes actually present before reserving.
  if (static_cast<std::size_t>(argc) * 8 != r.remaining()) return false;
  msg.key = key;
  msg.args.reserve(argc);
  for (std::uint32_t i = 0; i < argc; ++i) {
    std::int64_t a;
    if (!r.i64(&a)) return false;
    msg.args.push_back(a);
  }
  if (!r.at_end()) return false;
  *out = std::move(msg);
  return true;
}

bool decode_start_batch(const FrameView& frame, StartBatchFrame* out) {
  DCNT_CHECK(frame.type() == FrameType::kStartBatch);
  SafeReader r(frame.body(), frame.body_size());
  std::uint32_t count;
  if (!r.u32(&count)) return false;
  if (static_cast<std::size_t>(count) * 20 != r.remaining()) return false;
  StartBatchFrame f;
  f.ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StartBatchEntry e;
    if (!r.i64(&e.op) || !r.i32(&e.origin) || !r.i64(&e.key)) return false;
    if (e.op < 0 || e.origin < 0 || e.key < 0) return false;
    f.ops.push_back(e);
  }
  if (!r.at_end()) return false;
  *out = std::move(f);
  return true;
}

bool decode_complete_batch(const FrameView& frame, CompleteBatchFrame* out) {
  DCNT_CHECK(frame.type() == FrameType::kCompleteBatch);
  SafeReader r(frame.body(), frame.body_size());
  std::uint32_t count;
  if (!r.u32(&count)) return false;
  if (static_cast<std::size_t>(count) * 16 != r.remaining()) return false;
  CompleteBatchFrame f;
  f.completions.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CompleteBatchEntry e;
    if (!r.i64(&e.op) || !r.i64(&e.value)) return false;
    f.completions.push_back(e);
  }
  if (!r.at_end()) return false;
  *out = std::move(f);
  return true;
}

bool decode_keyed_stats(const FrameView& frame, KeyedStatsFrame* out) {
  DCNT_CHECK(frame.type() == FrameType::kKeyedStats);
  SafeReader r(frame.body(), frame.body_size());
  KeyedStatsFrame f;
  std::uint8_t last;
  std::uint32_t count;
  if (!r.u32(&f.node_id) || !r.u8(&last)) return false;
  if (last > 1) return false;
  f.last = last == 1;
  if (!r.i64(&f.lru_hits) || !r.i64(&f.lru_misses) || !r.i64(&f.lru_evicts) ||
      !r.i64(&f.lru_rehydrates)) {
    return false;
  }
  if (!r.u32(&count)) return false;
  if (count > kKeyedStatsChunk) return false;
  if (static_cast<std::size_t>(count) * 28 != r.remaining()) return false;
  f.loads.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    KeyProcLoad l;
    if (!r.i64(&l.key) || !r.i32(&l.pid) || !r.i64(&l.sent) ||
        !r.i64(&l.received)) {
      return false;
    }
    if (l.key < 0 || l.pid < 0) return false;
    f.loads.push_back(l);
  }
  if (!r.at_end()) return false;
  *out = std::move(f);
  return true;
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
