// The paper's matching upper bound (§4): a distributed counter on a
// communication tree with *retiring* inner nodes.
//
// Protocol summary
//   * The counter value lives at the root's current incumbent processor.
//   * An inc initiated at leaf p climbs the tree as an "inc from p"
//     message; the root answers p directly with the value and increments.
//     Incs that overlap combine: a role climbs with what reached it
//     since its last dry point, up to 3 incs per message, and the root
//     still answers each origin directly (PROTOCOL.md).
//   * Every inner node tracks its *age* — messages sent or received
//     since its current incumbent took the job. Crossing the threshold
//     (default 4k; configurable, ablated in bench_ablation) makes it
//     retire: it hands its role to the next processor of its reserved
//     pool via k+1 short messages (role + parent + k children) and tells
//     its parent and its k children the successor's id via k+1 more
//     (the root skips the parent message and ships the counter value
//     with the role). Notifications age the neighbours, which may
//     cascade further retirements — the paper's Retirement Lemma bounds
//     the cascade to one retirement per node per inc.
//   * The paper leaves the concurrency plumbing to "a proper
//     handshaking protocol with a constant number of extra messages";
//     we implement the forwarding variant: a processor remembers the
//     successor of every role it gave up and forwards late messages,
//     and a processor that is told about a role before the handover
//     messages have all arrived stashes those messages until the
//     takeover completes. All such extra messages are counted.
//
// The Bottleneck Theorem says every processor's total load over the
// one-inc-per-processor sequence is O(k) with k^(k+1) = n; the tests and
// bench_upper_bound verify this shape.
//
// The machinery (tree, pools, retirement, handover) lives in
// TreeService; this class instantiates it with root state {value}.
// Siblings: TreeFlipBit (tree_bit.hpp) and TreePriorityQueue
// (tree_pq.hpp), the other §2 examples.
#pragma once

#include <memory>
#include <string>

#include "core/tree_service.hpp"

namespace dcnt {

using TreeCounterParams = TreeServiceParams;
using TreeCounterStats = TreeServiceStats;

class TreeCounter final : public TreeService {
 public:
  explicit TreeCounter(TreeCounterParams params) : TreeService(params) {
    finish_init();
  }

  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<TreeCounter>(*this);
  }
  bool try_assign_from(const Protocol& other) override {
    return protocol_assign(*this, other);
  }
  std::string name() const override;

  /// Current counter value; requires quiescence (role committed).
  Value value() const { return root_state().at(0); }

 protected:
  Value root_apply(std::vector<std::int64_t>& state,
                   std::span<const std::int64_t> op_args) override {
    (void)op_args;
    return state.at(0)++;
  }
  std::vector<std::int64_t> initial_root_state() const override { return {0}; }
  /// An inc carries no arguments, so overlapping incs combine.
  bool combinable() const override { return true; }
  void check_root_state(std::size_t ops_completed,
                        const std::vector<std::int64_t>& state) const override;
};

/// The no-retirement ablation: the same tree with an infinite age
/// threshold. Its root incumbent handles every operation — the
/// "unreasonable" centralized-ish design the introduction warns about.
std::unique_ptr<TreeCounter> make_static_tree_counter(int k);

}  // namespace dcnt
