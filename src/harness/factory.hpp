// One-stop construction of every counter implementation, so tests,
// examples and benches can sweep over them uniformly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/protocol.hpp"

namespace dcnt {

enum class CounterKind {
  kTree,             ///< the paper's §4 counter (O(k) bottleneck)
  kStaticTree,       ///< ablation: same tree, no retirement
  kCentral,          ///< single-holder strawman
  kCombining,        ///< combining tree [YTL86, GVW89]
  kCountingNetwork,  ///< bitonic counting network [AHS91]
  kPeriodicNetwork,  ///< periodic counting network [AHS91, after DPRS]
  kDiffracting,      ///< diffracting tree [SZ94]
  kQuorumMajority,   ///< quorum counter over rotating majorities
  kQuorumGrid,       ///< quorum counter over a Maekawa-style grid
};

/// All kinds, in presentation order.
std::vector<CounterKind> all_counter_kinds();

/// Short identifier ("tree", "central", ...), also accepted by
/// counter_kind_from_string.
std::string to_string(CounterKind kind);
CounterKind counter_kind_from_string(const std::string& text);

/// Does this implementation hand out correct values under *concurrent*
/// operations? (The quorum counter is sequential-model only; see
/// quorum_counter.hpp.)
bool supports_concurrency(CounterKind kind);

/// Is this implementation expected to produce *linearizable* histories
/// under concurrent operations? Serializing structures — the central
/// counter, the trees, the quorum counters — are; the balancer-based
/// ones (counting networks, diffracting tree) are only quiescently
/// consistent [HSW96]: values can invert real-time order even though
/// every quiescent state is exact. check_linearizable must report zero
/// violations whenever this returns true (concurrent/history.hpp).
bool expected_linearizable(CounterKind kind);

/// Builds a counter for >= `min_processors` processors. Tree counters
/// round n up to the next k^(k+1) (the paper does the same: "simply
/// increase n to the next higher value of the form k*k^k"); the others
/// use min_processors exactly. The actual size is
/// result->num_processors().
std::unique_ptr<CounterProtocol> make_counter(CounterKind kind,
                                              std::int64_t min_processors);

}  // namespace dcnt
