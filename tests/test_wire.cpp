// Wire-format tests: every frame type round-trips, the stream reader
// reassembles frames from arbitrary chunking, and malformed input dies
// loudly instead of being misread.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "sim/message.hpp"

namespace dcnt::net {
namespace {

FrameView view(const std::vector<std::uint8_t>& encoded) {
  // Strip the 4-byte length word, as the event loop does.
  return FrameView(encoded.data() + 4, encoded.size() - 4);
}

TEST(Wire, HelloRoundTrip) {
  const HelloFrame in{7, 40001, 40002};
  const HelloFrame out = decode_hello(view(encode_hello(in)));
  EXPECT_EQ(out.node_id, 7u);
  EXPECT_EQ(out.tcp_port, 40001);
  EXPECT_EQ(out.udp_port, 40002);
}

TEST(Wire, PeersRoundTrip) {
  PeersFrame in;
  in.peers.push_back(PeerAddr{0, 1111, 0});
  in.peers.push_back(PeerAddr{1, 2222, 3333});
  const PeersFrame out = decode_peers(view(encode_peers(in)));
  ASSERT_EQ(out.peers.size(), 2u);
  EXPECT_EQ(out.peers[0].tcp_port, 1111);
  EXPECT_EQ(out.peers[1].node_id, 1u);
  EXPECT_EQ(out.peers[1].udp_port, 3333);
}

TEST(Wire, ReadyRoundTrip) {
  EXPECT_EQ(decode_ready(view(encode_ready(ReadyFrame{3}))).node_id, 3u);
}

TEST(Wire, StartRoundTripWithAndWithoutArgs) {
  const StartFrame plain{42, 5, {}};
  const StartFrame plain_out = decode_start(view(encode_start(plain)));
  EXPECT_EQ(plain_out.op, 42);
  EXPECT_EQ(plain_out.origin, 5);
  EXPECT_TRUE(plain_out.args.empty());

  const StartFrame rich{7, 2, {1, -9, 1'000'000'000'000}};
  const StartFrame rich_out = decode_start(view(encode_start(rich)));
  EXPECT_EQ(rich_out.args, (std::vector<std::int64_t>{1, -9, 1'000'000'000'000}));
}

TEST(Wire, CompleteRoundTripNegativeValue) {
  const CompleteFrame out =
      decode_complete(view(encode_complete(CompleteFrame{9, -5})));
  EXPECT_EQ(out.op, 9);
  EXPECT_EQ(out.value, -5);
}

TEST(Wire, MessageRoundTripPreservesEnvelopeFields) {
  Message msg;
  msg.src = 3;
  msg.dst = 11;
  msg.tag = 1'000'001;  // a ReliableTransport Data tag rides unchanged
  msg.op = 1234;
  msg.args = {17, 0, -3};
  const Message out = decode_message(view(encode_message(msg)));
  EXPECT_EQ(out.src, 3);
  EXPECT_EQ(out.dst, 11);
  EXPECT_EQ(out.tag, 1'000'001);
  EXPECT_EQ(out.op, 1234);
  EXPECT_EQ(out.args, msg.args);
  EXPECT_FALSE(out.local);
}

TEST(Wire, StatsRoundTrip) {
  StatsFrame in;
  in.node_id = 2;
  in.events_processed = 100;
  in.wire_msgs_sent = 7;
  in.wire_msgs_received = 6;
  in.wire_bytes_sent = 700;
  in.wire_bytes_received = 600;
  in.injected_drops = 3;
  in.unacked = 1;
  in.retransmissions = 4;
  in.duplicates_suppressed = 2;
  in.messages_abandoned = 1;
  in.loads.push_back(ProcLoad{2, 10, 11, 40});
  in.loads.push_back(ProcLoad{6, 0, 1, 2});
  const StatsFrame out = decode_stats(view(encode_stats(in)));
  EXPECT_EQ(out.node_id, 2u);
  EXPECT_EQ(out.events_processed, 100);
  EXPECT_EQ(out.wire_msgs_received, 6);
  EXPECT_EQ(out.injected_drops, 3);
  EXPECT_EQ(out.unacked, 1);
  EXPECT_EQ(out.retransmissions, 4);
  ASSERT_EQ(out.loads.size(), 2u);
  EXPECT_EQ(out.loads[0].pid, 2);
  EXPECT_EQ(out.loads[0].received, 11);
  EXPECT_EQ(out.loads[1].words, 2);
}

TEST(Wire, BodylessFrames) {
  EXPECT_EQ(view(encode_stats_request()).type(), FrameType::kStatsRequest);
  EXPECT_EQ(view(encode_shutdown()).type(), FrameType::kShutdown);
}

TEST(Wire, FrameReaderReassemblesByteAtATime) {
  std::vector<std::uint8_t> stream;
  const auto a = encode_ready(ReadyFrame{1});
  const auto b = encode_complete(CompleteFrame{5, 55});
  const auto c = encode_stats_request();
  stream.insert(stream.end(), a.begin(), a.end());
  stream.insert(stream.end(), b.begin(), b.end());
  stream.insert(stream.end(), c.begin(), c.end());

  FrameReader reader;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> payload;
  for (const std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    while (reader.pop(payload)) frames.push_back(payload);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(decode_ready(FrameView(frames[0].data(), frames[0].size())).node_id,
            1u);
  EXPECT_EQ(
      decode_complete(FrameView(frames[1].data(), frames[1].size())).value, 55);
  EXPECT_EQ(FrameView(frames[2].data(), frames[2].size()).type(),
            FrameType::kStatsRequest);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(Wire, FrameReaderHandlesSplitAcrossFeeds) {
  const auto frame = encode_complete(CompleteFrame{1, 2});
  FrameReader reader;
  const std::size_t cut = frame.size() / 2;
  reader.feed(frame.data(), cut);
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(reader.pop(payload));
  reader.feed(frame.data() + cut, frame.size() - cut);
  ASSERT_TRUE(reader.pop(payload));
  EXPECT_EQ(decode_complete(FrameView(payload.data(), payload.size())).op, 1);
}

TEST(Wire, RejectsForeignVersion) {
  // Only kWireVersion decodes: a later version and the retired
  // pre-keyed-envelope version 1 both abort.
  for (const int version : {kWireVersion + 1, 1}) {
    auto frame = encode_ready(ReadyFrame{0});
    frame[4] = static_cast<std::uint8_t>(version);  // after the length word
    EXPECT_DEATH(FrameView(frame.data() + 4, frame.size() - 4),
                 "wire version mismatch");
  }
}

TEST(Wire, RejectsUnknownType) {
  auto frame = encode_ready(ReadyFrame{0});
  frame[5] = 200;  // type byte
  const FrameView v(frame.data() + 4, frame.size() - 4);
  EXPECT_DEATH(v.type(), "unknown frame type");
}

TEST(Wire, RejectsCorruptLength) {
  std::vector<std::uint8_t> bogus = {0xff, 0xff, 0xff, 0x7f, 1, 3};
  FrameReader reader;
  reader.feed(bogus.data(), bogus.size());
  std::vector<std::uint8_t> payload;
  EXPECT_DEATH(reader.pop(payload), "corrupt frame length");
}

TEST(Wire, RejectsTruncatedBody) {
  auto frame = encode_hello(HelloFrame{1, 2, 3});
  // Chop the last body byte but keep the header consistent.
  std::vector<std::uint8_t> payload(frame.begin() + 4, frame.end() - 1);
  const FrameView v(payload.data(), payload.size());
  EXPECT_DEATH(decode_hello(v), "truncated frame body");
}

TEST(Wire, RejectsTrailingBytes) {
  auto frame = encode_ready(ReadyFrame{1});
  std::vector<std::uint8_t> payload(frame.begin() + 4, frame.end());
  payload.push_back(0);
  const FrameView v(payload.data(), payload.size());
  EXPECT_DEATH(decode_ready(v), "trailing bytes");
}

// A corrupt word count must hit a named check before any allocation is
// sized from it (a claim of 2^32-1 words would otherwise die as an
// uncaught bad_alloc).
TEST(Wire, RejectsArgCountBeyondBody) {
  Message msg;
  msg.args = {1};
  auto encoded = encode_message(msg);
  // argc follows length(4) version(1) type(1) src dst tag(4 each) op(8).
  for (std::size_t i = 26; i < 30; ++i) encoded[i] = 0xff;
  EXPECT_DEATH(decode_message(view(encoded)),
               "argument count exceeds frame body");

  auto start = encode_start(StartFrame{1, 2, {3}});
  // argc follows length(4) version(1) type(1) op(8) origin(4).
  for (std::size_t i = 18; i < 22; ++i) start[i] = 0xff;
  EXPECT_DEATH(decode_start(view(start)), "argument count exceeds frame body");
}

TEST(Wire, WideMessageRoundTripsThroughTheSpill) {
  Message msg;
  msg.src = 1;
  msg.dst = 2;
  msg.tag = 3;
  msg.op = 4;
  for (std::int64_t i = 0; i < 64; ++i) msg.args.push_back(i * i - 7);
  ASSERT_FALSE(msg.args.is_inline());
  const Message out = decode_message(view(encode_message(msg)));
  EXPECT_FALSE(out.args.is_inline());
  EXPECT_EQ(out.args, msg.args);
  EXPECT_EQ(out.size_words(), 65u);
}

// --- v2 keyed envelope ----------------------------------------------------

TEST(Wire, KeyedMessageRoundTrip) {
  Message msg;
  msg.src = 3;
  msg.dst = 11;
  msg.tag = 1'000'001;
  msg.op = 1234;
  msg.key = 99'999;
  msg.args = {17, 0, -3};
  const auto encoded = encode_keyed_message(msg);
  Message out;
  ASSERT_TRUE(decode_keyed_message(view(encoded), &out));
  EXPECT_EQ(out.key, 99'999);
  EXPECT_EQ(out.src, 3);
  EXPECT_EQ(out.dst, 11);
  EXPECT_EQ(out.tag, 1'000'001);
  EXPECT_EQ(out.op, 1234);
  EXPECT_EQ(out.args, msg.args);
  EXPECT_FALSE(out.local);

  // The zero-allocation append path emits byte-identical frames.
  std::vector<std::uint8_t> appended;
  EXPECT_EQ(append_keyed_message(appended, msg), encoded.size());
  EXPECT_EQ(appended, encoded);
}

TEST(Wire, StartBatchRoundTrip) {
  StartBatchFrame in;
  in.ops.push_back(StartBatchEntry{7, 2, 0});
  in.ops.push_back(StartBatchEntry{8, 5, 99'999});
  in.ops.push_back(StartBatchEntry{9, 0, 1});
  StartBatchFrame out;
  ASSERT_TRUE(decode_start_batch(view(encode_start_batch(in)), &out));
  ASSERT_EQ(out.ops.size(), 3u);
  EXPECT_EQ(out.ops[0].op, 7);
  EXPECT_EQ(out.ops[1].origin, 5);
  EXPECT_EQ(out.ops[1].key, 99'999);
  EXPECT_EQ(out.ops[2].key, 1);
}

TEST(Wire, CompleteBatchRoundTrip) {
  CompleteBatchFrame in;
  in.completions.push_back(CompleteBatchEntry{7, 0});
  in.completions.push_back(CompleteBatchEntry{8, -5});
  const auto encoded = encode_complete_batch(in);
  CompleteBatchFrame out;
  ASSERT_TRUE(decode_complete_batch(view(encoded), &out));
  ASSERT_EQ(out.completions.size(), 2u);
  EXPECT_EQ(out.completions[0].op, 7);
  EXPECT_EQ(out.completions[1].value, -5);

  std::vector<std::uint8_t> appended;
  EXPECT_EQ(append_complete_batch(appended, in), encoded.size());
  EXPECT_EQ(appended, encoded);
}

TEST(Wire, KeyedStatsRoundTrip) {
  KeyedStatsFrame in;
  in.node_id = 2;
  in.last = false;
  in.lru_hits = 10;
  in.lru_misses = 4;
  in.lru_evicts = 3;
  in.lru_rehydrates = 1;
  in.loads.push_back(KeyProcLoad{0, 1, 5, 6});
  in.loads.push_back(KeyProcLoad{99'999, 14, 1, 0});
  KeyedStatsFrame out;
  ASSERT_TRUE(decode_keyed_stats(view(encode_keyed_stats(in)), &out));
  EXPECT_EQ(out.node_id, 2u);
  EXPECT_FALSE(out.last);
  EXPECT_EQ(out.lru_hits, 10);
  EXPECT_EQ(out.lru_rehydrates, 1);
  ASSERT_EQ(out.loads.size(), 2u);
  EXPECT_EQ(out.loads[1].key, 99'999);
  EXPECT_EQ(out.loads[1].pid, 14);
}

TEST(Wire, KeyedStatsRequestIsBodyless) {
  EXPECT_EQ(view(encode_keyed_stats_request()).type(),
            FrameType::kKeyedStatsRequest);
}

// The hardened decoders: every truncation of a valid keyed frame must
// be *rejected* (return false), never aborted on and never misread —
// a mangled fabric frame is dropped and counted, not fatal.
TEST(Wire, KeyedDecodersRejectEveryTruncation) {
  Message msg;
  msg.src = 1;
  msg.dst = 2;
  msg.tag = 3;
  msg.op = 4;
  msg.key = 5;
  msg.args = {6, 7};
  StartBatchFrame sb;
  sb.ops.push_back(StartBatchEntry{1, 2, 3});
  sb.ops.push_back(StartBatchEntry{4, 5, 6});
  CompleteBatchFrame cb;
  cb.completions.push_back(CompleteBatchEntry{1, 2});
  KeyedStatsFrame ks;
  ks.node_id = 1;
  ks.loads.push_back(KeyProcLoad{1, 2, 3, 4});

  const auto check_truncations = [](const std::vector<std::uint8_t>& encoded,
                                    auto decode) {
    // Skip len word; body starts after version+type (offset 6). Every
    // proper prefix of the body must be rejected.
    for (std::size_t len = 2; len + 4 < encoded.size(); ++len) {
      const FrameView v(encoded.data() + 4, len);
      EXPECT_FALSE(decode(v)) << "accepted truncation at " << len;
    }
    // One trailing byte must be rejected too (exact-length contract).
    std::vector<std::uint8_t> padded(encoded.begin() + 4, encoded.end());
    padded.push_back(0);
    EXPECT_FALSE(decode(FrameView(padded.data(), padded.size())));
  };

  check_truncations(encode_keyed_message(msg), [](const FrameView& v) {
    Message out;
    return decode_keyed_message(v, &out);
  });
  check_truncations(encode_start_batch(sb), [](const FrameView& v) {
    StartBatchFrame out;
    return decode_start_batch(v, &out);
  });
  check_truncations(encode_complete_batch(cb), [](const FrameView& v) {
    CompleteBatchFrame out;
    return decode_complete_batch(v, &out);
  });
  check_truncations(encode_keyed_stats(ks), [](const FrameView& v) {
    KeyedStatsFrame out;
    return decode_keyed_stats(v, &out);
  });
}

TEST(Wire, KeyedMessageRejectsNegativeKey) {
  Message msg;
  msg.key = 5;
  msg.src = 0;
  msg.dst = 1;
  auto encoded = encode_keyed_message(msg);
  // key is the first i64 of the body (offset 6 = 4 len + ver + type);
  // force its sign bit.
  encoded[6 + 7] = 0x80;
  Message out;
  EXPECT_FALSE(decode_keyed_message(view(encoded), &out));
}

TEST(Wire, StartBatchRejectsOversizedCount) {
  StartBatchFrame sb;
  sb.ops.push_back(StartBatchEntry{1, 2, 3});
  auto encoded = encode_start_batch(sb);
  // count is the first u32 of the body; claim more entries than the
  // body carries.
  encoded[6] = 0xff;
  encoded[7] = 0xff;
  StartBatchFrame out;
  EXPECT_FALSE(decode_start_batch(view(encoded), &out));
}

// Seeded mutation fuzz: random byte flips in valid keyed frames must
// either decode (the flip hit a don't-care encoding of a valid value)
// or be rejected — never abort, never read out of bounds (ASan-clean
// in the sanitizer CI job).
TEST(Wire, KeyedDecoderFuzzNeverAborts) {
  Message msg;
  msg.src = 2;
  msg.dst = 9;
  msg.tag = 77;
  msg.op = 123;
  msg.key = 4'000;
  msg.args = {1, 2, 3, 4};
  StartBatchFrame sb;
  for (int i = 0; i < 5; ++i)
    sb.ops.push_back(StartBatchEntry{i, i % 3, i * 100});
  KeyedStatsFrame ks;
  ks.node_id = 3;
  for (int i = 0; i < 4; ++i) ks.loads.push_back(KeyProcLoad{i, i, i, i});

  const std::vector<std::vector<std::uint8_t>> seeds = {
      encode_keyed_message(msg), encode_start_batch(sb),
      encode_keyed_stats(ks)};
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 2000; ++round) {
    auto frame = seeds[next() % seeds.size()];
    // Flip 1-4 bytes anywhere past the length word except version/type
    // (those are covered by the FrameView version/type tests).
    const int flips = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = 6 + next() % (frame.size() - 6);
      frame[pos] = static_cast<std::uint8_t>(next());
    }
    const FrameView v(frame.data() + 4, frame.size() - 4);
    Message m;
    StartBatchFrame sbo;
    KeyedStatsFrame kso;
    switch (v.type()) {
      case FrameType::kKeyedMsg:
        (void)decode_keyed_message(v, &m);
        break;
      case FrameType::kStartBatch:
        (void)decode_start_batch(v, &sbo);
        break;
      case FrameType::kKeyedStats:
        (void)decode_keyed_stats(v, &kso);
        break;
      default:
        break;
    }
  }
}

}  // namespace
}  // namespace dcnt::net
