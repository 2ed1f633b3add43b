#include "core/tree_layout.hpp"

#include "core/bound.hpp"
#include "support/check.hpp"

namespace dcnt {

TreeLayout::TreeLayout(int k) : k_(k) {
  DCNT_CHECK_MSG(k >= 2, "fan-out k must be at least 2");
  DCNT_CHECK_MSG(k <= 8, "k > 8 would need >10^8 processors");
  n_ = tree_size_for_k(k);
  k_pow_.resize(static_cast<std::size_t>(k) + 1);
  level_offset_.resize(static_cast<std::size_t>(k) + 2);
  std::int64_t offset = 0;
  for (int i = 0; i <= k; ++i) {
    k_pow_[static_cast<std::size_t>(i)] = ipow(k, i);
    level_offset_[static_cast<std::size_t>(i)] = offset;
    offset += k_pow_[static_cast<std::size_t>(i)];
  }
  level_offset_[static_cast<std::size_t>(k) + 1] = offset;
  num_inner_ = offset;
}

int TreeLayout::level_of(NodeId node) const {
  DCNT_CHECK(node >= 0 && node < num_inner_);
  int level = 0;
  while (level_offset_[static_cast<std::size_t>(level) + 1] <= node) ++level;
  return level;
}

std::int64_t TreeLayout::index_in_level(NodeId node) const {
  return node - level_offset_[static_cast<std::size_t>(level_of(node))];
}

NodeId TreeLayout::node_at(int level, std::int64_t j) const {
  DCNT_CHECK(level >= 0 && level <= k_);
  DCNT_CHECK(j >= 0 && j < k_pow(level));
  return level_offset_[static_cast<std::size_t>(level)] + j;
}

// Level-order numbering makes the links arithmetic: node x's children
// are k*x+1 .. k*x+k, because level i+1 starts at k * (start of level
// i) + 1.
NodeId TreeLayout::parent(NodeId node) const {
  DCNT_CHECK(node >= 0 && node < num_inner_);
  return node == 0 ? kNoNode : (node - 1) / k_;
}

NodeId TreeLayout::child(NodeId node, int c) const {
  DCNT_CHECK(c >= 0 && c < k_);
  DCNT_CHECK(node >= 0);
  DCNT_CHECK_MSG(node < leaf_parent_offset(),
                 "children of level-k nodes are leaves");
  return k_ * node + 1 + c;
}

bool TreeLayout::children_are_leaves(NodeId node) const {
  DCNT_CHECK(node >= 0 && node < num_inner_);
  return node >= leaf_parent_offset();
}

ProcessorId TreeLayout::leaf_child(NodeId node, int c) const {
  DCNT_CHECK(c >= 0 && c < k_);
  DCNT_CHECK(children_are_leaves(node));
  return static_cast<ProcessorId>((node - leaf_parent_offset()) * k_ + c);
}

NodeId TreeLayout::leaf_parent(ProcessorId p) const {
  DCNT_CHECK(p >= 0 && p < n_);
  return leaf_parent_offset() + p / k_;
}

ProcessorId TreeLayout::initial_pid(NodeId node) const {
  const int level = level_of(node);
  if (level == 0) return 0;
  const std::int64_t j = index_in_level(node);
  return static_cast<ProcessorId>((level - 1) * k_pow(k_) +
                                  j * k_pow(k_ - level));
}

ProcessorId TreeLayout::pool_begin(NodeId node) const {
  return level_of(node) == 0 ? 0 : initial_pid(node);
}

std::int64_t TreeLayout::pool_size(NodeId node) const {
  const int level = level_of(node);
  return level == 0 ? n_ : k_pow(k_ - level);
}

ProcessorId TreeLayout::successor(NodeId node, ProcessorId cur) const {
  const ProcessorId begin = pool_begin(node);
  const std::int64_t size = pool_size(node);
  DCNT_CHECK(cur >= begin && cur < begin + size);
  return begin + static_cast<ProcessorId>((cur - begin + 1) % size);
}

}  // namespace dcnt
