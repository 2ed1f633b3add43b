#include "analysis/audit.hpp"

#include <algorithm>
#include <map>

#include "core/bound.hpp"
#include "support/check.hpp"

namespace dcnt {

TreeAuditReport audit_tree_run(const Simulator& sim) {
  const auto* counter = dynamic_cast<const TreeService*>(&sim.counter());
  DCNT_CHECK_MSG(counter != nullptr, "audit_tree_run needs a TreeService");
  const TreeLayout& layout = counter->layout();
  const int k = layout.k();

  TreeAuditReport report;

  // --- Retirement Lemma: group the log by (op, node). ---
  {
    std::map<std::pair<OpId, NodeId>, std::int64_t> per_op_node;
    for (const auto& ev : counter->retirement_log()) {
      ++per_op_node[{ev.op, ev.node}];
    }
    for (const auto& [key, count] : per_op_node) {
      report.max_retirements_per_node_per_op =
          std::max(report.max_retirements_per_node_per_op, count);
    }
    report.retirement_lemma_ok = report.max_retirements_per_node_per_op <= 1;
  }

  // --- Number of Retirements Lemma. ---
  {
    report.max_retirements_by_level.assign(static_cast<std::size_t>(k) + 1, 0);
    report.pool_budget_by_level.resize(static_cast<std::size_t>(k) + 1);
    for (int level = 0; level <= k; ++level) {
      report.pool_budget_by_level[static_cast<std::size_t>(level)] =
          (level == 0 ? layout.n() : ipow(k, k - level)) - 1;
    }
    std::map<NodeId, std::int64_t> per_node;
    for (const auto& ev : counter->retirement_log()) {
      const std::int64_t count = ++per_node[ev.node];
      auto& level_max =
          report.max_retirements_by_level[static_cast<std::size_t>(ev.level)];
      level_max = std::max(level_max, count);
      report.max_retirements_per_node =
          std::max(report.max_retirements_per_node, count);
    }
    // Pools are exactly the budget: a wrap means the lemma's budget was
    // exceeded somewhere.
    report.pools_ok = counter->stats().pool_wraps == 0 &&
                      counter->stats().self_handovers == 0;
    for (int level = 0; level <= k; ++level) {
      if (report.max_retirements_by_level[static_cast<std::size_t>(level)] >
          report.pool_budget_by_level[static_cast<std::size_t>(level)]) {
        report.pools_ok = false;
      }
    }
  }

  // --- Per-operation message budget. ---
  {
    std::map<OpId, std::int64_t> retirements_per_op;
    for (const auto& ev : counter->retirement_log()) {
      ++retirements_per_op[ev.op];
    }
    const auto& per_op = sim.per_op_messages();
    std::int64_t worst = 0;
    std::int64_t worst_budget = 0;
    bool ok = true;
    for (std::size_t op = 0; op < per_op.size(); ++op) {
      const std::int64_t retirements =
          retirements_per_op.count(static_cast<OpId>(op)) != 0
              ? retirements_per_op[static_cast<OpId>(op)]
              : 0;
      // Path: k+1 up, 1 down. Each retirement: k+1 handover, k+1
      // notifications, plus a forwarded message or two.
      const std::int64_t budget = (k + 2) + retirements * (2 * k + 4);
      if (per_op[op] > worst) worst = per_op[op];
      if (per_op[op] > budget) ok = false;
      worst_budget = std::max(worst_budget, budget);
    }
    report.max_op_messages = worst;
    report.op_message_budget = worst_budget;
    report.op_messages_ok = ok;
  }

  // --- Bottleneck Theorem. ---
  report.max_load = sim.metrics().max_load();
  report.load_per_k = static_cast<double>(report.max_load) /
                      static_cast<double>(std::max(1, k));
  return report;
}

}  // namespace dcnt
