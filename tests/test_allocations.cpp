// Allocation regression guard for the message path. This binary replaces
// the global operator new with a counting one (per thread, so a test
// reads exactly what the thread it watches allocated) and pins:
//   - copying or moving a Message whose payload fits inline allocates
//     nothing;
//   - such messages travel through ThreadedRuntime generations (send,
//     ready queue, generation swap, delivery) without allocating once
//     the runtime's reused buffers have grown;
//   - the paper's tree (k=3, n=81) driven closed-loop on one worker
//     allocates less than once per operation in steady state (what is
//     left is per handover, not per message);
//   - the linearizability verdict over a HistoryBuffer read in place
//     allocates once (its value index), where snapshot() and the
//     record check allocate twice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "concurrent/history.hpp"
#include "harness/factory.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/message.hpp"
#include "sim/protocol.hpp"

namespace {
thread_local std::int64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dcnt {
namespace {

Message full_inline_message() {
  Message m;
  m.src = 1;
  m.dst = 2;
  m.tag = 3;
  for (std::size_t i = 0; i < MessageArgs::kInline; ++i) {
    m.args.push_back(static_cast<std::int64_t>(i) * 11);
  }
  return m;
}

TEST(Allocations, InlineMessageCopyAndMoveAllocateNothing) {
  const Message proto = full_inline_message();
  const std::int64_t before = t_allocs;
  Message copy = proto;
  Message moved = std::move(copy);
  Message assigned;
  assigned = proto;
  assigned = std::move(moved);
  copy = assigned;
  const std::int64_t after = t_allocs;
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(copy.args, proto.args);
  EXPECT_EQ(assigned.args, proto.args);

  // The counter works: one word past inline spills, once per copy.
  Message wide = proto;
  wide.args.push_back(99);
  const std::int64_t spill_before = t_allocs;
  const Message wide_copy = wide;
  EXPECT_EQ(t_allocs - spill_before, 1);
  EXPECT_EQ(wide_copy.args, wide.args);
}

/// Each op is a relay of full-inline messages around a ring of
/// processors for kHops hops, then completes. The protocol snapshots the
/// handling thread's allocation count at two global hop marks.
class InlineRelay final : public CounterProtocol {
 public:
  static constexpr std::int64_t kHops = 4000;
  static constexpr std::int64_t kMarkFrom = 8000;
  static constexpr std::int64_t kMarkTo = 24000;

  std::size_t num_processors() const override { return 4; }
  void start_inc(Context& ctx, ProcessorId origin, OpId op) override {
    (void)op;
    Message m = full_inline_message();
    m.src = origin;
    m.dst = (origin + 1) % 4;
    m.args[0] = 0;
    ctx.send(std::move(m));
  }
  void on_message(Context& ctx, const Message& msg) override {
    ++hops_;
    if (hops_ == kMarkFrom) allocs_from_ = t_allocs;
    if (hops_ == kMarkTo) allocs_to_ = t_allocs;
    if (msg.args[0] + 1 == kHops) {
      ctx.complete(msg.op, msg.args[0]);
      return;
    }
    Message next = msg;
    next.src = msg.dst;
    next.dst = (msg.dst + 1) % 4;
    next.args[0] = msg.args[0] + 1;
    ctx.send(std::move(next));
  }
  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<InlineRelay>(*this);
  }
  std::string name() const override { return "inline-relay"; }

  std::int64_t hops() const { return hops_; }
  std::int64_t window_allocs() const { return allocs_to_ - allocs_from_; }

 private:
  std::int64_t hops_{0};
  std::int64_t allocs_from_{-1};
  std::int64_t allocs_to_{-1};
};

TEST(Allocations, InlineMessagesCrossRuntimeGenerationsWithoutAllocating) {
  constexpr int kChains = 8;
  RuntimeConfig config;
  config.workers = 1;
  config.max_ops = kChains;
  auto owned = std::make_unique<InlineRelay>();
  const InlineRelay& relay = *owned;
  ThreadedRuntime rt(std::move(owned), config);
  for (int i = 0; i < kChains; ++i) rt.begin_inc(i % 4);
  rt.wait_quiescent();
  ASSERT_EQ(rt.ops_completed(), static_cast<std::size_t>(kChains));
  ASSERT_EQ(relay.hops(), kChains * InlineRelay::kHops);
  // Reads at quiescence, which orders the worker's writes before them.
  EXPECT_EQ(relay.window_allocs(), 0);
}

TEST(Allocations, SelfDrivenTreeRunAllocatesLessThanOncePerOp) {
  // The W=1 closed loop of SelfDrivenSingleWorkerRunIsDeterministic.
  constexpr std::size_t kOps = 4096;
  constexpr std::size_t kWindow = 16;
  RuntimeConfig config;
  config.workers = 1;
  config.seed = 21;
  config.max_ops = kOps;
  ThreadedRuntime rt(make_counter(CounterKind::kTree, 81), config);
  const std::size_t n = rt.num_processors();
  std::size_t issued = 1;
  std::size_t completed = 0;
  std::int64_t allocs_half = -1;
  std::int64_t allocs_end = -1;
  rt.set_completion([&](OpId op, Value /*value*/) {
    // Runs on the worker, so t_allocs is the worker's count.
    ++completed;
    if (completed == kOps / 2) allocs_half = t_allocs;
    if (completed == kOps) allocs_end = t_allocs;
    for (std::size_t k = op == 0 ? kWindow : 1; k > 0 && issued < kOps;
         --k, ++issued) {
      rt.begin_inc(static_cast<ProcessorId>((issued * 7) % n));
    }
  });
  rt.begin_inc(0);
  rt.wait_quiescent();
  ASSERT_EQ(rt.ops_completed(), kOps);
  ASSERT_GE(allocs_half, 0);
  ASSERT_GE(allocs_end, 0);
  const double per_op =
      static_cast<double>(allocs_end - allocs_half) / (kOps - kOps / 2);
  std::cout << "steady-state allocations per op: " << per_op << "\n";
  EXPECT_LT(per_op, 1.0);
}

TEST(Allocations, InPlaceVerdictAllocatesOnlyItsValueIndex) {
  // A contiguous history: op i returns value i within [2i+1, 2i+2].
  constexpr std::size_t kOps = 100000;
  concurrent::HistoryBuffer history(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto op = static_cast<OpId>(i);
    history.on_invoke(op, 2 * op + 1);
    history.on_response(op, 2 * op + 2, op);
  }
  const std::int64_t before = t_allocs;
  const LinearizabilityReport in_place = check_linearizable(history);
  EXPECT_EQ(t_allocs - before, 1);  // the 4 B/op value index
  EXPECT_TRUE(in_place.linearizable);

  // The record path copies the slots first: two allocations.
  const std::int64_t before_copy = t_allocs;
  const LinearizabilityReport copied = check_linearizable(history.snapshot());
  EXPECT_EQ(t_allocs - before_copy, 2);
  EXPECT_TRUE(copied.linearizable);
}

}  // namespace
}  // namespace dcnt
