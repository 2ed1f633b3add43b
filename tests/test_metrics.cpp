#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace dcnt {
namespace {

TEST(Metrics, CountsSendsAndReceives) {
  Metrics m(4);
  m.on_send(0, 2);
  m.on_receive(1, 1);
  m.on_send(1, 3);
  m.on_receive(2, 1);
  EXPECT_EQ(m.sent(0), 1);
  EXPECT_EQ(m.received(0), 0);
  EXPECT_EQ(m.load(0), 1);
  EXPECT_EQ(m.load(1), 2);
  EXPECT_EQ(m.load(2), 1);
  EXPECT_EQ(m.load(3), 0);
  EXPECT_EQ(m.total_messages(), 2);
  EXPECT_EQ(m.total_words(), 5);
}

TEST(Metrics, BottleneckIsArgmax) {
  Metrics m(3);
  m.on_send(2, 1);
  m.on_send(2, 1);
  m.on_send(1, 1);
  EXPECT_EQ(m.max_load(), 2);
  EXPECT_EQ(m.bottleneck(), 2);
}

TEST(Metrics, LoadSummaryMatchesLoads) {
  Metrics m(3);
  m.on_send(0, 1);
  m.on_receive(1, 1);
  m.on_receive(1, 1);
  const Summary s = m.load_summary();
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.max(), 2);
  EXPECT_EQ(s.sum(), 3);
}

TEST(Metrics, WordLoadsTrackPayloadPerProcessor) {
  Metrics m(3);
  m.on_send(0, 5);     // 0 sends 5 words
  m.on_receive(1, 5);     // 1 receives them
  m.on_send(1, 2);
  m.on_receive(2, 2);
  EXPECT_EQ(m.word_load(0), 5);
  EXPECT_EQ(m.word_load(1), 7);
  EXPECT_EQ(m.word_load(2), 2);
  EXPECT_EQ(m.max_word_load(), 7);
  EXPECT_EQ(m.max_message_words(), 5);
}

TEST(Metrics, ResetClearsEverything) {
  Metrics m(2);
  m.on_send(0, 1);
  m.on_receive(1, 1);
  m.reset();
  EXPECT_EQ(m.total_messages(), 0);
  EXPECT_EQ(m.load(0), 0);
  EXPECT_EQ(m.load(1), 0);
}

TEST(Metrics, KeyedSendsTrackPerKeySlices) {
  Metrics m(4);
  m.on_send(0, 2, /*key=*/7);
  m.on_receive(1, 2, /*key=*/7);
  m.on_send(0, 1, /*key=*/9);
  m.on_send(2, 1);  // unkeyed: global only
  EXPECT_EQ(m.key_max_load(7), 1);
  EXPECT_EQ(m.key_total_messages(7), 1);
  EXPECT_EQ(m.key_total_messages(9), 1);
  EXPECT_EQ(m.key_max_load(12345), 0);  // untouched key
  // Global counters see keyed and unkeyed traffic alike.
  EXPECT_EQ(m.total_messages(), 3);
  EXPECT_EQ(m.load(0), 2);
  // Only touched (key, processor) pairs materialize.
  ASSERT_EQ(m.key_loads().size(), 2u);
  EXPECT_EQ(m.key_loads().at(7).at(0).sent, 1);
  EXPECT_EQ(m.key_loads().at(7).at(1).received, 1);
}

TEST(Metrics, KeyedMergeIsAssociative) {
  // The threaded runtime merges per-shard Metrics at quiescence and the
  // cluster controller merges per-node reports; neither controls the
  // merge order, so the keyed maps must accumulate associatively:
  // (A + B) + C == A + (B + C), including keys absent from some shards.
  const auto make = [](int which) {
    Metrics m(4);
    if (which == 0) {
      m.on_send(0, 1, 5);
      m.on_receive(1, 1, 5);
      m.on_send(2, 1, 6);
    } else if (which == 1) {
      m.on_send(1, 1, 5);
      m.on_send(3, 2, 8);
    } else {
      m.on_receive(0, 1, 6);
      m.on_receive(3, 2, 8);
      m.on_send(1, 1, 5);
    }
    return m;
  };
  Metrics left = make(0);
  left.merge_from(make(1));
  left.merge_from(make(2));

  Metrics bc = make(1);
  bc.merge_from(make(2));
  Metrics right = make(0);
  right.merge_from(bc);

  for (const KeyId key : {5, 6, 8, 99}) {
    EXPECT_EQ(left.key_max_load(key), right.key_max_load(key)) << key;
    EXPECT_EQ(left.key_total_messages(key), right.key_total_messages(key))
        << key;
  }
  ASSERT_EQ(left.key_loads().size(), right.key_loads().size());
  for (const auto& [key, per_pid] : left.key_loads()) {
    const auto& other = right.key_loads().at(key);
    ASSERT_EQ(per_pid.size(), other.size()) << key;
    for (const auto& [pid, slice] : per_pid) {
      EXPECT_EQ(slice.sent, other.at(pid).sent) << key << "/" << pid;
      EXPECT_EQ(slice.received, other.at(pid).received) << key << "/" << pid;
    }
  }
  EXPECT_EQ(left.total_messages(), right.total_messages());
  EXPECT_EQ(left.max_load(), right.max_load());
}

TEST(Metrics, AddLoadRebuildsAReportedLedger) {
  // The cluster controller rebuilds its nodes' ledgers from the rows
  // they report: one overall row per processor plus the keyed slices of
  // those same loads, which must not count twice.
  Metrics node(3);
  node.on_send(0, 1, /*key=*/4);
  node.on_receive(1, 1, /*key=*/4);
  node.on_send(1, 1);
  node.on_receive(2, 1);
  Metrics rebuilt(3);
  for (ProcessorId p = 0; p < 3; ++p) {
    rebuilt.add_load(p, KeyLoad{node.sent(p), node.received(p)});
  }
  for (const auto& [key, per_proc] : node.key_loads()) {
    for (const auto& [p, slice] : per_proc) rebuilt.add_load(p, slice, key);
  }
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_EQ(rebuilt.load(p), node.load(p)) << p;
  }
  EXPECT_EQ(rebuilt.total_messages(), 2);
  EXPECT_EQ(rebuilt.max_load(), 2);
  EXPECT_EQ(rebuilt.bottleneck(), 1);
  ASSERT_EQ(rebuilt.key_loads().size(), 1u);
  EXPECT_EQ(rebuilt.key_max_load(4), 1);
  EXPECT_EQ(rebuilt.key_total_messages(4), 1);
  EXPECT_EQ(rebuilt.total_words(), 0);  // rows carry no words
}

TEST(Metrics, ResetClearsKeyedSlices) {
  Metrics m(2);
  m.on_send(0, 1, 3);
  m.reset();
  EXPECT_EQ(m.key_max_load(3), 0);
  // Post-reset keyed traffic is absolute, not baseline-relative: the
  // cluster's metrics reset zeroes the slices in place so per-key
  // reports need no baseline subtraction.
  m.on_send(0, 1, 3);
  EXPECT_EQ(m.key_total_messages(3), 1);
}

}  // namespace
}  // namespace dcnt
