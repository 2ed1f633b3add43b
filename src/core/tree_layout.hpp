// Static geometry of the paper's communication tree (§4, Figure 4).
//
// The tree has fan-out k. Inner nodes live on levels 0 (root) through k;
// the leaves — the n = k^(k+1) processors themselves — are on level k+1.
// Inner nodes are numbered level by level: level i holds k^i nodes, so
// node ids are 0 (root), 1..k (level 1), and so on.
//
// Replacement-processor pools (paper, "availability of processors"):
// the j-th node on level i (1 <= i <= k) initially uses processor
//   (i-1) * k^k + j * k^(k-i)                      (0-based)
// and owns the id interval of length k^(k-i) starting there; these
// intervals are pairwise disjoint and exactly cover [0, n). The root
// starts at processor 0 and walks 0, 1, 2, ... on retirement. Hence any
// processor works for at most one non-root inner node and at most once
// for the root — the fact the Bottleneck Theorem's O(k) accounting
// rests on.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace dcnt {

/// Inner-node identifier; 0 is the root. kNoNode (-1) = "none".
using NodeId = std::int64_t;
inline constexpr NodeId kNoNode = -1;

class TreeLayout {
 public:
  explicit TreeLayout(int k);

  int k() const { return k_; }
  /// Number of leaves = processors = k^(k+1).
  std::int64_t n() const { return n_; }
  /// Number of inner nodes = sum_{i=0}^{k} k^i.
  std::int64_t num_inner() const { return num_inner_; }
  /// Deepest inner level (the leaves' parents): level k.
  int leaf_parent_level() const { return k_; }

  int level_of(NodeId node) const;
  std::int64_t index_in_level(NodeId node) const;
  NodeId node_at(int level, std::int64_t j) const;

  /// Parent inner node; kNoNode for the root.
  NodeId parent(NodeId node) const;
  /// c-th inner child (0 <= c < k); node must be on level < k.
  NodeId child(NodeId node, int c) const;
  /// True iff node is on level k, i.e. its children are leaves.
  bool children_are_leaves(NodeId node) const;
  /// c-th leaf child of a level-k node: a processor id.
  ProcessorId leaf_child(NodeId node, int c) const;
  /// The level-k node above leaf processor p.
  NodeId leaf_parent(ProcessorId p) const;

  /// Initial incumbent processor of an inner node (root: processor 0).
  ProcessorId initial_pid(NodeId node) const;
  /// Start of the node's replacement pool (root: 0).
  ProcessorId pool_begin(NodeId node) const;
  /// Pool length: k^(k-i) for level i >= 1; n for the root.
  std::int64_t pool_size(NodeId node) const;
  /// Successor processor after `cur` retires from `node` (wraps within
  /// the pool; wrapping never happens for the paper's workload).
  ProcessorId successor(NodeId node, ProcessorId cur) const;

 private:
  /// k^i for i in [0, k].
  std::int64_t k_pow(int i) const {
    return k_pow_[static_cast<std::size_t>(i)];
  }
  /// Id of the first level-k node.
  NodeId leaf_parent_offset() const {
    return level_offset_[static_cast<std::size_t>(k_)];
  }

  int k_;
  std::int64_t n_;
  std::int64_t num_inner_;
  std::vector<std::int64_t> k_pow_;
  // level_offset_[i] = id of first node on level i, for i in [0, k+1]
  // (the last entry equals num_inner_).
  std::vector<std::int64_t> level_offset_;
};

}  // namespace dcnt
