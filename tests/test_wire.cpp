// Wire-format tests: every frame type round-trips, the data-plane bytes
// are pinned, the stream reader reassembles frames from arbitrary
// chunking, every body decoder rejects malformed input instead of
// misreading it or aborting, and the header checks die loudly.
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

/// Decodes a frame with the decoder its type byte names — what the
/// node and the controller dispatch on. Bodyless types have none.
bool decode_any(const FrameView& v) {
  switch (v.type()) {
    case FrameType::kHello: {
      HelloFrame out;
      return decode_hello(v, &out);
    }
    case FrameType::kPeers: {
      PeersFrame out;
      return decode_peers(v, &out);
    }
    case FrameType::kReady: {
      ReadyFrame out;
      return decode_ready(v, &out);
    }
    case FrameType::kStartBatch: {
      StartBatchFrame out;
      return decode_start_batch(v, &out);
    }
    case FrameType::kCompleteBatch: {
      CompleteBatchFrame out;
      return decode_complete_batch(v, &out);
    }
    case FrameType::kMsg:
    case FrameType::kKeyedMsg: {
      Message out;
      return decode_message(v, &out);
    }
    case FrameType::kStats: {
      StatsFrame out;
      return decode_stats(v, &out);
    }
    case FrameType::kKeyedStats: {
      KeyedStatsFrame out;
      return decode_keyed_stats(v, &out);
    }
    default:
      ADD_FAILURE() << "no body decoder for type " << static_cast<int>(v.type());
      return false;
  }
}

/// One valid encoding of every frame type that has a body.
std::vector<std::vector<std::uint8_t>> every_body_frame() {
  PeersFrame peers;
  peers.peers.push_back(PeerAddr{0, 1111, 0});
  peers.peers.push_back(PeerAddr{1, 2222, 3333});
  StartBatchFrame sb;
  for (int i = 0; i < 5; ++i) {
    sb.ops.push_back(StartBatchEntry{i, i % 3, i == 0 ? kNoKey : i * 100});
  }
  CompleteBatchFrame cb;
  cb.completions.push_back(CompleteBatchEntry{1, 2});
  cb.completions.push_back(CompleteBatchEntry{3, -4});
  Message msg;
  msg.src = 2;
  msg.dst = 9;
  msg.tag = 77;
  msg.op = 123;
  msg.args = {1, 2, 3, 4};
  Message keyed = msg;
  keyed.key = 4'000;
  StatsFrame stats;
  stats.node_id = 1;
  stats.frames_rejected = 2;
  stats.loads.push_back(ProcLoad{1, 2, 3});
  stats.loads.push_back(ProcLoad{3, 0, 1});
  KeyedStatsFrame ks;
  ks.node_id = 3;
  for (int i = 0; i < 4; ++i) ks.loads.push_back(KeyProcLoad{i, i, i, i});
  return {encode_hello(HelloFrame{7, 40001, 40002}),
          encode_peers(peers),
          encode_ready(ReadyFrame{3}),
          encode_start_batch(sb),
          encode_complete_batch(cb),
          encode_message(msg),
          encode_message(keyed),
          encode_stats(stats),
          encode_keyed_stats(ks)};
}

TEST(Wire, HelloRoundTrip) {
  HelloFrame out;
  ASSERT_TRUE(decode_hello(view(encode_hello(HelloFrame{7, 40001, 40002})),
                           &out));
  EXPECT_EQ(out.node_id, 7u);
  EXPECT_EQ(out.tcp_port, 40001);
  EXPECT_EQ(out.udp_port, 40002);
}

TEST(Wire, PeersRoundTrip) {
  PeersFrame in;
  in.peers.push_back(PeerAddr{0, 1111, 0});
  in.peers.push_back(PeerAddr{1, 2222, 3333});
  PeersFrame out;
  ASSERT_TRUE(decode_peers(view(encode_peers(in)), &out));
  ASSERT_EQ(out.peers.size(), 2u);
  EXPECT_EQ(out.peers[0].tcp_port, 1111);
  EXPECT_EQ(out.peers[1].node_id, 1u);
  EXPECT_EQ(out.peers[1].udp_port, 3333);
}

TEST(Wire, ReadyRoundTrip) {
  ReadyFrame out;
  ASSERT_TRUE(decode_ready(view(encode_ready(ReadyFrame{3})), &out));
  EXPECT_EQ(out.node_id, 3u);
}

TEST(Wire, MessageRoundTripPreservesEnvelopeFields) {
  Message msg;
  msg.src = 3;
  msg.dst = 11;
  msg.tag = 1'000'001;  // a ReliableTransport Data tag rides unchanged
  msg.op = 1234;
  msg.args = {17, 0, -3};
  const auto encoded = encode_message(msg);
  EXPECT_EQ(view(encoded).type(), FrameType::kMsg);
  Message out;
  ASSERT_TRUE(decode_message(view(encoded), &out));
  EXPECT_EQ(out.src, 3);
  EXPECT_EQ(out.dst, 11);
  EXPECT_EQ(out.tag, 1'000'001);
  EXPECT_EQ(out.op, 1234);
  EXPECT_EQ(out.key, kNoKey);
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
  in.wire_write_syscalls = 9;
  in.frames_rejected = 5;
  in.loads.push_back(ProcLoad{2, 10, 11});
  in.loads.push_back(ProcLoad{6, 0, 1});
  StatsFrame out;
  ASSERT_TRUE(decode_stats(view(encode_stats(in)), &out));
  EXPECT_EQ(out.node_id, 2u);
  EXPECT_EQ(out.events_processed, 100);
  EXPECT_EQ(out.wire_msgs_received, 6);
  EXPECT_EQ(out.injected_drops, 3);
  EXPECT_EQ(out.unacked, 1);
  EXPECT_EQ(out.retransmissions, 4);
  EXPECT_EQ(out.wire_write_syscalls, 9);
  EXPECT_EQ(out.frames_rejected, 5);
  ASSERT_EQ(out.loads.size(), 2u);
  EXPECT_EQ(out.loads[0].pid, 2);
  EXPECT_EQ(out.loads[0].sent, 10);
  EXPECT_EQ(out.loads[0].received, 11);
  EXPECT_EQ(out.loads[1].pid, 6);
  EXPECT_EQ(out.loads[1].received, 1);
}

TEST(Wire, BodylessFrames) {
  EXPECT_EQ(view(encode_stats_request()).type(), FrameType::kStatsRequest);
  EXPECT_EQ(view(encode_shutdown()).type(), FrameType::kShutdown);
  EXPECT_EQ(view(encode_keyed_stats_request()).type(),
            FrameType::kKeyedStatsRequest);
}

TEST(Wire, FrameReaderReassemblesByteAtATime) {
  std::vector<std::uint8_t> stream;
  CompleteBatchFrame done;
  done.completions.push_back(CompleteBatchEntry{5, 55});
  const auto a = encode_ready(ReadyFrame{1});
  const auto b = encode_complete_batch(done);
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
  ReadyFrame ready;
  ASSERT_TRUE(
      decode_ready(FrameView(frames[0].data(), frames[0].size()), &ready));
  EXPECT_EQ(ready.node_id, 1u);
  CompleteBatchFrame batch;
  ASSERT_TRUE(decode_complete_batch(
      FrameView(frames[1].data(), frames[1].size()), &batch));
  ASSERT_EQ(batch.completions.size(), 1u);
  EXPECT_EQ(batch.completions[0].value, 55);
  EXPECT_EQ(FrameView(frames[2].data(), frames[2].size()).type(),
            FrameType::kStatsRequest);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(Wire, FrameReaderHandlesSplitAcrossFeeds) {
  CompleteBatchFrame done;
  done.completions.push_back(CompleteBatchEntry{1, 2});
  const auto frame = encode_complete_batch(done);
  FrameReader reader;
  const std::size_t cut = frame.size() / 2;
  reader.feed(frame.data(), cut);
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(reader.pop(payload));
  reader.feed(frame.data() + cut, frame.size() - cut);
  ASSERT_TRUE(reader.pop(payload));
  CompleteBatchFrame out;
  ASSERT_TRUE(
      decode_complete_batch(FrameView(payload.data(), payload.size()), &out));
  EXPECT_EQ(out.completions[0].op, 1);
}

// --- header checks: these still abort ---------------------------------------

TEST(Wire, RejectsForeignVersion) {
  // Only kWireVersion decodes: a later version and the retired versions
  // 1, 2 and 3 all abort.
  for (const int version : {kWireVersion + 1, 3, 2, 1}) {
    auto frame = encode_ready(ReadyFrame{0});
    frame[4] = static_cast<std::uint8_t>(version);  // after the length word
    EXPECT_DEATH(FrameView(frame.data() + 4, frame.size() - 4),
                 "wire version mismatch");
  }
}

TEST(Wire, RejectsUnknownType) {
  for (const int type :
       {0, static_cast<int>(FrameType::kKeyedStatsRequest) + 1, 200}) {
    auto frame = encode_ready(ReadyFrame{0});
    frame[5] = static_cast<std::uint8_t>(type);  // type byte
    const FrameView v(frame.data() + 4, frame.size() - 4);
    EXPECT_DEATH(v.type(), "unknown frame type");
  }
}

TEST(Wire, RejectsCorruptLength) {
  std::vector<std::uint8_t> bogus = {0xff, 0xff, 0xff, 0x7f, 1, 3};
  FrameReader reader;
  reader.feed(bogus.data(), bogus.size());
  std::vector<std::uint8_t> payload;
  EXPECT_DEATH(reader.pop(payload), "corrupt frame length");
}

// --- body checks: every decoder rejects, none aborts ------------------------

TEST(Wire, RejectsTruncatedBody) {
  auto frame = encode_hello(HelloFrame{1, 2, 3});
  // Chop the last body byte but keep the header consistent.
  std::vector<std::uint8_t> payload(frame.begin() + 4, frame.end() - 1);
  HelloFrame out;
  EXPECT_FALSE(decode_hello(FrameView(payload.data(), payload.size()), &out));
}

TEST(Wire, RejectsTrailingBytes) {
  auto frame = encode_ready(ReadyFrame{1});
  std::vector<std::uint8_t> payload(frame.begin() + 4, frame.end());
  payload.push_back(0);
  ReadyFrame out;
  EXPECT_FALSE(decode_ready(FrameView(payload.data(), payload.size()), &out));
}

// A corrupt word count is rejected before any allocation is sized from
// it (a claim of 2^32-1 words would otherwise die as an uncaught
// bad_alloc).
TEST(Wire, RejectsArgCountBeyondBody) {
  Message msg;
  msg.args = {1};
  auto encoded = encode_message(msg);
  // argc follows length(4) version(1) type(1) src dst tag(4 each) op(8).
  for (std::size_t i = 26; i < 30; ++i) encoded[i] = 0xff;
  Message out;
  EXPECT_FALSE(decode_message(view(encoded), &out));

  msg.key = 3;
  auto keyed = encode_message(msg);
  // The keyed body has the i64 key in front: argc moves 8 bytes on.
  for (std::size_t i = 34; i < 38; ++i) keyed[i] = 0xff;
  EXPECT_FALSE(decode_message(view(keyed), &out));
}

TEST(Wire, DecodersRejectAFrameOfAnotherType) {
  const auto ready = encode_ready(ReadyFrame{1});
  HelloFrame hello;
  EXPECT_FALSE(decode_hello(view(ready), &hello));
  Message msg;
  EXPECT_FALSE(decode_message(view(ready), &msg));
  StatsFrame stats;
  EXPECT_FALSE(decode_stats(view(encode_stats_request()), &stats));
}

TEST(Wire, WideMessageRoundTripsThroughTheSpill) {
  Message msg;
  msg.src = 1;
  msg.dst = 2;
  msg.tag = 3;
  msg.op = 4;
  for (std::int64_t i = 0; i < 64; ++i) msg.args.push_back(i * i - 7);
  ASSERT_FALSE(msg.args.is_inline());
  Message out;
  ASSERT_TRUE(decode_message(view(encode_message(msg)), &out));
  EXPECT_FALSE(out.args.is_inline());
  EXPECT_EQ(out.args, msg.args);
  EXPECT_EQ(out.size_words(), 65u);
}

// --- the data plane's bytes, pinned -----------------------------------------

Message golden_message() {
  Message msg;
  msg.src = 1;
  msg.dst = 2;
  msg.tag = 3;
  msg.op = 4;
  msg.args = {5, -2};
  return msg;
}

TEST(Wire, PlainMessageGoldenBytes) {
  const std::vector<std::uint8_t> expected = {
      0x2a, 0, 0, 0,           // payload length 42
      4, 6,                    // version, kMsg
      1, 0, 0, 0,              // src
      2, 0, 0, 0,              // dst
      3, 0, 0, 0,              // tag
      4, 0, 0, 0, 0, 0, 0, 0,  // op
      2, 0, 0, 0,              // argc
      5, 0, 0, 0, 0, 0, 0, 0,  // args[0]
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};  // args[1] = -2
  EXPECT_EQ(encode_message(golden_message()), expected);
}

TEST(Wire, KeyedMessageGoldenBytes) {
  Message msg = golden_message();
  msg.key = 0x0102;
  const std::vector<std::uint8_t> expected = {
      0x32, 0, 0, 0,                 // payload length 50
      4, 12,                         // version, kKeyedMsg
      0x02, 0x01, 0, 0, 0, 0, 0, 0,  // key
      1, 0, 0, 0,                    // src
      2, 0, 0, 0,                    // dst
      3, 0, 0, 0,                    // tag
      4, 0, 0, 0, 0, 0, 0, 0,        // op
      2, 0, 0, 0,                    // argc
      5, 0, 0, 0, 0, 0, 0, 0,        // args[0]
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};  // args[1] = -2
  EXPECT_EQ(encode_message(msg), expected);
}

TEST(Wire, StartBatchGoldenBytes) {
  StartBatchFrame f;
  f.ops.push_back(StartBatchEntry{7, 2, kNoKey});
  f.ops.push_back(StartBatchEntry{8, 5, 0x0102});
  const std::vector<std::uint8_t> expected = {
      0x2e, 0, 0, 0,                 // payload length 46
      4, 4,                          // version, kStartBatch
      2, 0, 0, 0,                    // count
      7, 0, 0, 0, 0, 0, 0, 0,        // ops[0].op
      2, 0, 0, 0,                    // ops[0].origin
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // ops[0].key = kNoKey
      8, 0, 0, 0, 0, 0, 0, 0,        // ops[1].op
      5, 0, 0, 0,                    // ops[1].origin
      0x02, 0x01, 0, 0, 0, 0, 0, 0};  // ops[1].key
  EXPECT_EQ(encode_start_batch(f), expected);
}

TEST(Wire, CompleteBatchGoldenBytes) {
  CompleteBatchFrame f;
  f.completions.push_back(CompleteBatchEntry{7, 0x0102});
  f.completions.push_back(CompleteBatchEntry{8, -5});
  const std::vector<std::uint8_t> expected = {
      0x26, 0, 0, 0,                 // payload length 38
      4, 5,                          // version, kCompleteBatch
      2, 0, 0, 0,                    // count
      7, 0, 0, 0, 0, 0, 0, 0,        // completions[0].op
      0x02, 0x01, 0, 0, 0, 0, 0, 0,  // completions[0].value
      8, 0, 0, 0, 0, 0, 0, 0,        // completions[1].op
      0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};  // value = -5
  EXPECT_EQ(encode_complete_batch(f), expected);
}

// --- the keyed fabric's frames and the batched RPC --------------------------

TEST(Wire, KeyedMessageRoundTrip) {
  Message msg;
  msg.src = 3;
  msg.dst = 11;
  msg.tag = 1'000'001;
  msg.op = 1234;
  msg.key = 99'999;
  msg.args = {17, 0, -3};
  const auto encoded = encode_message(msg);
  EXPECT_EQ(view(encoded).type(), FrameType::kKeyedMsg);
  Message out;
  ASSERT_TRUE(decode_message(view(encoded), &out));
  EXPECT_EQ(out.key, 99'999);
  EXPECT_EQ(out.src, 3);
  EXPECT_EQ(out.dst, 11);
  EXPECT_EQ(out.tag, 1'000'001);
  EXPECT_EQ(out.op, 1234);
  EXPECT_EQ(out.args, msg.args);
  EXPECT_FALSE(out.local);

  // The zero-allocation append path emits byte-identical frames.
  std::vector<std::uint8_t> appended;
  EXPECT_EQ(append_message(appended, msg), encoded.size());
  EXPECT_EQ(appended, encoded);
}

TEST(Wire, StartBatchRoundTripWithPlainAndKeyedEntries) {
  StartBatchFrame in;
  in.ops.push_back(StartBatchEntry{7, 2, 0});
  in.ops.push_back(StartBatchEntry{8, 5, 99'999});
  in.ops.push_back(StartBatchEntry{9, 0, kNoKey});  // a plain inc
  StartBatchFrame out;
  ASSERT_TRUE(decode_start_batch(view(encode_start_batch(in)), &out));
  ASSERT_EQ(out.ops.size(), 3u);
  EXPECT_EQ(out.ops[0].op, 7);
  EXPECT_EQ(out.ops[0].key, 0);
  EXPECT_EQ(out.ops[1].origin, 5);
  EXPECT_EQ(out.ops[1].key, 99'999);
  EXPECT_EQ(out.ops[2].op, 9);
  EXPECT_EQ(out.ops[2].key, kNoKey);
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
  EXPECT_EQ(append_complete_batches(appended, in.completions), 1u);
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

// Every proper prefix of every frame's body, and the body with one
// trailing byte, must be *rejected* (return false) — never aborted on
// and never misread.
TEST(Wire, EveryDecoderRejectsEveryTruncation) {
  for (const auto& encoded : every_body_frame()) {
    ASSERT_TRUE(decode_any(view(encoded)));
    // Skip the length word; the body starts after version+type.
    for (std::size_t len = 2; len + 4 < encoded.size(); ++len) {
      EXPECT_FALSE(decode_any(FrameView(encoded.data() + 4, len)))
          << "type " << static_cast<int>(encoded[5])
          << " accepted a truncation at " << len;
    }
    std::vector<std::uint8_t> padded(encoded.begin() + 4, encoded.end());
    padded.push_back(0);
    EXPECT_FALSE(decode_any(FrameView(padded.data(), padded.size())))
        << "type " << static_cast<int>(encoded[5]) << " accepted a pad byte";
  }
}

TEST(Wire, KeyedMessageRejectsNegativeKey) {
  Message msg;
  msg.key = 5;
  msg.src = 0;
  msg.dst = 1;
  auto encoded = encode_message(msg);
  // key is the first i64 of the body (offset 6 = 4 len + ver + type);
  // force its sign bit.
  encoded[6 + 7] = 0x80;
  Message out;
  EXPECT_FALSE(decode_message(view(encoded), &out));
}

TEST(Wire, StartBatchRejectsOversizedCountAndKeysBelowNoKey) {
  StartBatchFrame sb;
  sb.ops.push_back(StartBatchEntry{1, 2, 3});
  auto encoded = encode_start_batch(sb);
  // count is the first u32 of the body; claim more entries than the
  // body carries.
  encoded[6] = 0xff;
  encoded[7] = 0xff;
  StartBatchFrame out;
  EXPECT_FALSE(decode_start_batch(view(encoded), &out));

  sb.ops[0].key = kNoKey - 1;
  EXPECT_FALSE(decode_start_batch(view(encode_start_batch(sb)), &out));
}

/// `encoded` (a batch frame of kBatchEntryCap entries) grown by one
/// zero entry of `entry_bytes`, its count patched to match: a body
/// whose count the bytes do hold, but which no sender may produce.
std::vector<std::uint8_t> one_past_the_cap(std::vector<std::uint8_t> encoded,
                                           std::size_t entry_bytes) {
  encoded.resize(encoded.size() + entry_bytes, 0);
  const auto count = static_cast<std::uint32_t>(kBatchEntryCap + 1);
  for (int i = 0; i < 4; ++i) {
    encoded[6 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(count >> (8 * i));
  }
  return encoded;
}

TEST(Wire, BatchFramesHoldTheCapAndNoMore) {
  StartBatchFrame sb;
  sb.ops.assign(kBatchEntryCap, StartBatchEntry{1, 2, kNoKey});
  const auto starts = encode_start_batch(sb);
  EXPECT_LE(starts.size() - 4, kMaxFramePayload);
  StartBatchFrame sb_out;
  ASSERT_TRUE(decode_start_batch(view(starts), &sb_out));
  EXPECT_EQ(sb_out.ops.size(), kBatchEntryCap);
  EXPECT_FALSE(
      decode_start_batch(view(one_past_the_cap(starts, 20)), &sb_out));

  CompleteBatchFrame cb;
  cb.completions.assign(kBatchEntryCap, CompleteBatchEntry{1, 2});
  const auto completions = encode_complete_batch(cb);
  CompleteBatchFrame cb_out;
  ASSERT_TRUE(decode_complete_batch(view(completions), &cb_out));
  EXPECT_EQ(cb_out.completions.size(), kBatchEntryCap);
  EXPECT_FALSE(
      decode_complete_batch(view(one_past_the_cap(completions, 16)), &cb_out));

  // The encoders refuse to build such a frame at all; the senders'
  // path splits at the cap instead.
  sb.ops.push_back(sb.ops.back());
  EXPECT_DEATH(encode_start_batch(sb), "start batch too large");
  std::vector<std::uint8_t> split;
  ASSERT_EQ(append_start_batches(split, sb.ops), 2u);
  FrameReader reader;
  reader.feed(split.data(), split.size());
  std::vector<std::uint8_t> payload;
  for (const std::size_t expected : {kBatchEntryCap, std::size_t{1}}) {
    ASSERT_TRUE(reader.pop(payload));
    ASSERT_TRUE(decode_start_batch(FrameView(payload.data(), payload.size()),
                                   &sb_out));
    EXPECT_EQ(sb_out.ops.size(), expected);
  }
  EXPECT_FALSE(reader.pop(payload));
  EXPECT_EQ(append_start_batches(split, {}), 0u);
  cb.completions.push_back(cb.completions.back());
  EXPECT_DEATH(encode_complete_batch(cb), "complete batch too large");
}

// Seeded mutation fuzz: random byte flips in valid frames of every type
// must either decode (the flip hit a don't-care encoding of a valid
// value) or be rejected — never abort, never read out of bounds
// (ASan-clean in the sanitizer CI job).
TEST(Wire, DecoderFuzzNeverAborts) {
  const auto seeds = every_body_frame();
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    auto frame = seeds[next() % seeds.size()];
    // Flip 1-4 bytes anywhere past the length word except version/type
    // (those are covered by the FrameView version/type tests).
    const int flips = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = 6 + next() % (frame.size() - 6);
      frame[pos] = static_cast<std::uint8_t>(next());
    }
    accepted += decode_any(FrameView(frame.data() + 4, frame.size() - 4));
  }
  // Flips in value fields leave valid frames; flips in counts do not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 4000);
}

}  // namespace
}  // namespace dcnt::net
