#include "core/tree_pq.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "support/check.hpp"

namespace dcnt {

std::string TreePriorityQueue::name() const {
  std::ostringstream os;
  os << "tree-pq(k=" << layout().k() << ")";
  return os.str();
}

Value TreePriorityQueue::root_apply(std::vector<std::int64_t>& state,
                                    std::span<const std::int64_t> op_args) {
  // state is a binary min-heap (std::*_heap with greater<>).
  if (!op_args.empty() && op_args[0] == kOpInsert) {
    DCNT_CHECK_MSG(op_args.size() == 2, "insert takes exactly one key");
    const std::int64_t key = op_args[1];
    state.push_back(key);
    std::push_heap(state.begin(), state.end(), std::greater<>());
    return key;
  }
  // Extract-min (explicit or default).
  if (state.empty()) return kEmptyQueue;
  std::pop_heap(state.begin(), state.end(), std::greater<>());
  const std::int64_t min = state.back();
  state.pop_back();
  return min;
}

}  // namespace dcnt
