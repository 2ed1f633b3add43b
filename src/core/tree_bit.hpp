// "A bit that can be accessed and flipped" — the paper's first §2
// example of a data structure whose operations depend on their
// immediate predecessor, so both the Hot Spot Lemma and the Ω(k) lower
// bound apply verbatim. Running it on the §4 tree shows the matching
// O(k) upper bound is not counter-specific either.
//
// Operation semantics: test-and-flip. The i-th operation returns the
// bit before the flip, i.e. i mod 2 under sequential execution.
#pragma once

#include <memory>
#include <string>

#include "core/tree_service.hpp"

namespace dcnt {

class TreeFlipBit final : public TreeService {
 public:
  explicit TreeFlipBit(TreeServiceParams params) : TreeService(params) {
    finish_init();
  }

  std::unique_ptr<CounterProtocol> clone_counter() const override {
    return std::make_unique<TreeFlipBit>(*this);
  }
  bool try_assign_from(const Protocol& other) override {
    return protocol_assign(*this, other);
  }
  std::string name() const override;

  /// Current bit; requires quiescence.
  bool bit() const { return root_state().at(0) != 0; }

 protected:
  Value root_apply(std::vector<std::int64_t>& state,
                   std::span<const std::int64_t> op_args) override {
    (void)op_args;
    const Value old = state.at(0);
    state.at(0) ^= 1;
    return old;
  }
  std::vector<std::int64_t> initial_root_state() const override { return {0}; }
  void check_root_state(std::size_t ops_completed,
                        const std::vector<std::int64_t>& state) const override;
};

}  // namespace dcnt
