// A distributed priority queue on the §4 tree — the paper's second §2
// example of a predecessor-dependent data structure. The Ω(k) lower
// bound applies to it unchanged; this implementation inherits the O(k)
// *message-count* bottleneck from TreeService.
//
// One honest caveat, measured rather than hidden: the §4 construction
// keeps messages at O(log n) bits because the root state is one number.
// A priority queue's root state is the whole heap, so a root handover
// ships Θ(queue length) words — stats().max_handover_words exposes
// exactly how much. In the paper's bit-complexity terms the priority
// queue's bottleneck is O(k) messages but not O(k log n) bits; a
// production design would spill the heap to a distributed structure.
//
// Operations (via Simulator::begin_op):
//   {kOpInsert, key} — insert key; returns the key.
//   {kOpExtractMin}  — remove and return the minimum; returns
//                      kEmptyQueue if the queue is empty.
#pragma once

#include <memory>
#include <string>

#include "core/tree_service.hpp"

namespace dcnt {

class TreePriorityQueue final : public TreeService {
 public:
  static constexpr std::int64_t kOpInsert = 0;
  static constexpr std::int64_t kOpExtractMin = 1;
  static constexpr Value kEmptyQueue = -1;

  explicit TreePriorityQueue(TreeServiceParams params) : TreeService(params) {
    finish_init();
  }

  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<TreePriorityQueue>(*this);
  }
  bool try_assign_from(const Protocol& other) override {
    return protocol_assign(*this, other);
  }
  std::string name() const override;

  /// Current queue size; requires quiescence.
  std::size_t size() const { return root_state().size(); }

 protected:
  /// A plain inc-style operation (no args) behaves as insert(origin)
  /// would be ambiguous — treat it as extract-min so the counter
  /// harness cannot silently mis-drive this service.
  Value root_apply(std::vector<std::int64_t>& state,
                   std::span<const std::int64_t> op_args) override;
  std::vector<std::int64_t> initial_root_state() const override { return {}; }
};

}  // namespace dcnt
