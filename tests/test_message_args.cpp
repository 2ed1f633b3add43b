// MessageArgs: the inline-first word vector behind Message::args. Pins
// the inline/heap boundary, value semantics across both representations
// (the ownership hand-off in move is what the sanitizer jobs watch),
// the front insert/erase the keyed fabric's key prefix and strip rely
// on, and kInline itself against the widest payload every counter kind
// sends behind the reliable transport.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/message.hpp"

#include <algorithm>
#include <memory>

#include "faults/retry.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

constexpr std::size_t kCap = MessageArgs::kInline;

// The heap pointer shares the inline words' storage, so spilling costs
// no width: a Message stays 96 bytes on a 64-bit target.
static_assert(sizeof(void*) != 8 || sizeof(Message) == 96);

MessageArgs iota_args(std::size_t n, std::int64_t first = 1) {
  MessageArgs a;
  for (std::size_t i = 0; i < n; ++i) {
    a.push_back(first + static_cast<std::int64_t>(i));
  }
  return a;
}

std::vector<std::int64_t> iota_vec(std::size_t n, std::int64_t first = 1) {
  std::vector<std::int64_t> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(first + static_cast<std::int64_t>(i));
  }
  return v;
}

TEST(MessageArgs, StaysInlineUpToCapacityAndSpillsOnePast) {
  MessageArgs a = iota_args(kCap);
  EXPECT_TRUE(a.is_inline());
  EXPECT_EQ(a.size(), kCap);
  EXPECT_EQ(a.capacity(), kCap);
  a.push_back(99);
  EXPECT_FALSE(a.is_inline());
  EXPECT_EQ(a.size(), kCap + 1);
  std::vector<std::int64_t> want = iota_vec(kCap);
  want.push_back(99);
  EXPECT_EQ(a, want);

  EXPECT_TRUE(MessageArgs(std::span<const std::int64_t>(iota_vec(kCap)))
                  .is_inline());
  EXPECT_FALSE(MessageArgs(std::span<const std::int64_t>(iota_vec(kCap + 1)))
                   .is_inline());
  EXPECT_TRUE(MessageArgs{}.empty());
}

TEST(MessageArgs, CopyPreservesWordsAcrossBothRepresentations) {
  for (const std::size_t n : {std::size_t{0}, kCap, kCap + 1, 4 * kCap}) {
    const MessageArgs src = iota_args(n, 10);
    const MessageArgs copy(src);
    EXPECT_EQ(copy, src) << n;
    EXPECT_EQ(copy.is_inline(), n <= kCap) << n;
    if (n > 0) {
      EXPECT_NE(copy.data(), src.data()) << n;
    }
  }
}

TEST(MessageArgs, MoveStealsTheHeapBlockAndEmptiesTheSource) {
  MessageArgs wide = iota_args(kCap + 3);
  const std::int64_t* block = wide.data();
  MessageArgs taken(std::move(wide));
  EXPECT_EQ(taken.data(), block);  // no copy: the block changed hands
  EXPECT_EQ(taken, iota_vec(kCap + 3));
  EXPECT_TRUE(wide.empty());
  EXPECT_TRUE(wide.is_inline());
  wide.push_back(5);  // the moved-from object is reusable
  EXPECT_EQ(wide, std::vector<std::int64_t>{5});

  MessageArgs narrow = iota_args(kCap);
  MessageArgs moved(std::move(narrow));
  EXPECT_TRUE(moved.is_inline());
  EXPECT_EQ(moved, iota_vec(kCap));
  EXPECT_TRUE(narrow.empty());
}

TEST(MessageArgs, AssignmentCrossesRepresentationsBothWays) {
  const MessageArgs narrow = iota_args(3, 100);
  const MessageArgs wide = iota_args(2 * kCap, 200);

  MessageArgs a = iota_args(2);
  a = wide;  // inline <- heap: copy-assign spills
  EXPECT_EQ(a, wide);
  EXPECT_FALSE(a.is_inline());
  a = narrow;  // heap <- inline: words replaced, block kept for reuse
  EXPECT_EQ(a, narrow);

  MessageArgs b = iota_args(2 * kCap);
  b = MessageArgs(narrow);  // heap <- inline by move: old block freed
  EXPECT_TRUE(b.is_inline());
  EXPECT_EQ(b, narrow);
  b = MessageArgs(wide);  // inline <- heap by move
  EXPECT_FALSE(b.is_inline());
  EXPECT_EQ(b, wide);
  b = MessageArgs(iota_args(3 * kCap, 300));  // heap <- heap by move
  EXPECT_EQ(b, iota_vec(3 * kCap, 300));

  b = {7, 8};
  EXPECT_EQ(b, (std::vector<std::int64_t>{7, 8}));
  b = {};
  EXPECT_TRUE(b.empty());
}

TEST(MessageArgs, SelfAssignmentIsANoOp) {
  for (const std::size_t n : {kCap, kCap + 1}) {
    MessageArgs a = iota_args(n);
    MessageArgs& alias = a;
    a = alias;
    EXPECT_EQ(a, iota_vec(n)) << n;
    a = std::move(alias);
    EXPECT_EQ(a, iota_vec(n)) << n;
  }
}

TEST(MessageArgs, InsertAtFrontCrossesTheBoundary) {
  // The keyed fabric prefixes local messages with their key.
  MessageArgs a = iota_args(kCap - 1);
  a.insert(a.begin(), 0);
  EXPECT_TRUE(a.is_inline());
  EXPECT_EQ(a, iota_vec(kCap, 0));
  a.insert(a.begin(), -1);
  EXPECT_FALSE(a.is_inline());
  EXPECT_EQ(a, iota_vec(kCap + 1, -1));

  MessageArgs b = {3};
  const std::vector<std::int64_t> tail = {4, 5};
  b.insert(b.end(), tail.begin(), tail.end());
  const std::vector<std::int64_t> head = {1, 2};
  b.insert(b.begin(), head.begin(), head.end());
  EXPECT_EQ(b, iota_vec(5));
}

TEST(MessageArgs, EraseBeginStripsTheFrontWord) {
  // The keyed fabric strips the key from local wake-ups.
  for (const std::size_t n : {kCap, kCap + 1, 3 * kCap}) {
    MessageArgs a = iota_args(n, 0);
    const auto it = a.erase(a.begin());
    EXPECT_EQ(it, a.begin());
    EXPECT_EQ(a, iota_vec(n - 1, 1)) << n;
  }
  MessageArgs b = iota_args(5);
  b.erase(b.begin() + 1, b.begin() + 3);
  EXPECT_EQ(b, (std::vector<std::int64_t>{1, 4, 5}));
}

TEST(MessageArgs, ComparesAgainstVectorsAndViewsAsASpan) {
  const MessageArgs a = {1, 2, 3};
  const std::vector<std::int64_t> same = {1, 2, 3};
  const std::vector<std::int64_t> other = {1, 2};
  EXPECT_TRUE(a == same);
  EXPECT_TRUE(same == a);
  EXPECT_FALSE(a == other);
  EXPECT_TRUE(a != other);
  EXPECT_EQ(a, (MessageArgs{1, 2, 3}));
  EXPECT_NE(a, (MessageArgs{1, 2, 4}));

  const std::span<const std::int64_t> view = a;
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), a.data());
  EXPECT_EQ(view.subspan(1)[0], 2);
}

TEST(MessageArgs, GtestPrintsTheWords) {
  EXPECT_EQ(testing::PrintToString(MessageArgs{1, -2, 3}), "{ 1, -2, 3 }");
  EXPECT_EQ(testing::PrintToString(MessageArgs{}), "{}");
}

TEST(MessageArgs, AtChecksBounds) {
  const MessageArgs a = {4};
  EXPECT_EQ(a.at(0), 4);
  EXPECT_EQ(a.front(), 4);
  EXPECT_DEATH((void)a.at(1), "message word index out of range");
}

TEST(MessageArgs, AssignReusesTheHeapBlock) {
  MessageArgs a = iota_args(2 * kCap);
  const std::int64_t* block = a.data();
  const std::vector<std::int64_t> words = iota_vec(3);
  a.assign(words.begin(), words.end());
  EXPECT_EQ(a, words);
  EXPECT_EQ(a.data(), block);
}

TEST(MessageArgs, MessageCarriesItsWords) {
  Message m;
  m.args = iota_args(kCap + 2);
  const Message copy = m;
  EXPECT_EQ(copy.args, m.args);
  EXPECT_EQ(copy.size_words(), kCap + 3);
  Message moved = std::move(m);
  EXPECT_EQ(moved.args, iota_vec(kCap + 2));
}

TEST(MessageArgs, InlineCapacityCoversEveryKindBehindTheTransport) {
  // Every kind, enveloped by ReliableTransport ([seq, inner_tag,
  // inner...]), 8n incs in batches of 16 (sequential for the quorum
  // counters). size_words() counts the tag, so a message's args are
  // max_message_words() - 1 words. Widest today: combining's 4 words
  // plus the 2-word envelope, exactly kInline — one word less and every
  // combining message over UDP would spill to the heap.
  std::int64_t widest = 0;
  for (const CounterKind kind : all_counter_kinds()) {
    Simulator sim(std::make_unique<ReliableTransport>(make_counter(kind, 16),
                                                      RetryParams{}),
                  SimConfig{});
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    std::vector<ProcessorId> order;
    for (std::int64_t i = 0; i < 8 * n; ++i) {
      order.push_back(static_cast<ProcessorId>(i % n));
    }
    const RunResult res =
        run_concurrent(sim, order, supports_concurrency(kind) ? 16 : 1);
    EXPECT_TRUE(res.values_ok) << to_string(kind);
    const std::int64_t args = sim.metrics().max_message_words() - 1;
    EXPECT_LE(args, static_cast<std::int64_t>(kCap)) << to_string(kind);
    widest = std::max(widest, args);
  }
  EXPECT_EQ(widest, static_cast<std::int64_t>(kCap));
}

}  // namespace
}  // namespace dcnt
