#include "harness/factory.hpp"

#include "baselines/central.hpp"
#include "baselines/combining_tree.hpp"
#include "baselines/counting_network.hpp"
#include "baselines/diffracting_tree.hpp"
#include "core/bound.hpp"
#include "core/tree_counter.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/quorum_counter.hpp"
#include "support/check.hpp"

namespace dcnt {

std::vector<CounterKind> all_counter_kinds() {
  return {CounterKind::kTree,            CounterKind::kStaticTree,
          CounterKind::kCentral,         CounterKind::kCombining,
          CounterKind::kCountingNetwork, CounterKind::kPeriodicNetwork,
          CounterKind::kDiffracting,     CounterKind::kQuorumMajority,
          CounterKind::kQuorumGrid};
}

std::string to_string(CounterKind kind) {
  switch (kind) {
    case CounterKind::kTree:
      return "tree";
    case CounterKind::kStaticTree:
      return "static-tree";
    case CounterKind::kCentral:
      return "central";
    case CounterKind::kCombining:
      return "combining";
    case CounterKind::kCountingNetwork:
      return "counting-net";
    case CounterKind::kPeriodicNetwork:
      return "periodic-net";
    case CounterKind::kDiffracting:
      return "diffracting";
    case CounterKind::kQuorumMajority:
      return "quorum-majority";
    case CounterKind::kQuorumGrid:
      return "quorum-grid";
  }
  return "?";
}

CounterKind counter_kind_from_string(const std::string& text) {
  for (const CounterKind kind : all_counter_kinds()) {
    if (to_string(kind) == text) return kind;
  }
  DCNT_CHECK_MSG(false, "unknown counter kind");
  return CounterKind::kTree;
}

bool supports_concurrency(CounterKind kind) {
  switch (kind) {
    case CounterKind::kQuorumMajority:
    case CounterKind::kQuorumGrid:
      return false;
    default:
      return true;
  }
}

bool expected_linearizable(CounterKind kind) {
  switch (kind) {
    case CounterKind::kCountingNetwork:
    case CounterKind::kPeriodicNetwork:
    case CounterKind::kDiffracting:
      return false;
    default:
      return true;
  }
}

namespace {

int width_for(std::int64_t n) {
  // Network width: largest power of two <= min(n, 64) — wide enough to
  // spread load, small enough that depth stays sane.
  int w = 2;
  while (2 * w <= n && 2 * w <= 64) w *= 2;
  return w;
}

}  // namespace

std::unique_ptr<CounterProtocol> make_counter(CounterKind kind,
                                              std::int64_t min_processors) {
  DCNT_CHECK(min_processors >= 2);
  switch (kind) {
    case CounterKind::kTree: {
      TreeCounterParams params;
      params.k = ceil_k_for(min_processors);
      return std::make_unique<TreeCounter>(params);
    }
    case CounterKind::kStaticTree:
      return make_static_tree_counter(ceil_k_for(min_processors));
    case CounterKind::kCentral:
      return std::make_unique<CentralCounter>(min_processors);
    case CounterKind::kCombining: {
      CombiningTreeParams params;
      params.n = min_processors;
      params.fanout = 2;
      return std::make_unique<CombiningTreeCounter>(params);
    }
    case CounterKind::kCountingNetwork: {
      CountingNetworkParams params;
      params.n = min_processors;
      params.width = width_for(min_processors);
      return std::make_unique<CountingNetworkCounter>(params);
    }
    case CounterKind::kPeriodicNetwork: {
      CountingNetworkParams params;
      params.n = min_processors;
      params.width = width_for(min_processors);
      params.kind = NetworkKind::kPeriodic;
      return std::make_unique<CountingNetworkCounter>(params);
    }
    case CounterKind::kDiffracting: {
      DiffractingTreeParams params;
      params.n = min_processors;
      params.width = width_for(min_processors);
      return std::make_unique<DiffractingTreeCounter>(params);
    }
    case CounterKind::kQuorumMajority:
      return std::make_unique<QuorumCounter>(
          std::make_shared<MajorityQuorum>(min_processors));
    case CounterKind::kQuorumGrid:
      return std::make_unique<QuorumCounter>(
          std::make_shared<GridQuorum>(min_processors));
  }
  DCNT_CHECK_MSG(false, "unreachable");
  return nullptr;
}

}  // namespace dcnt
