// Umbrella header for the distributed-counting-bottleneck library.
//
// Reproduction of: Wattenhofer & Widmayer, "An Inherent Bottleneck in
// Distributed Counting", PODC 1997. See DESIGN.md for the system map
// and EXPERIMENTS.md for the measured results.
#pragma once

// Support.
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

// Simulation substrate (the paper's §2 model).
#include "sim/delay.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "sim/trace_export.hpp"
#include "sim/types.hpp"

// The paper's contribution (§4) and bound arithmetic (§3), plus the
// §2 sibling data structures riding the same machinery.
#include "core/bound.hpp"
#include "core/tree_bit.hpp"
#include "core/tree_counter.hpp"
#include "core/tree_layout.hpp"
#include "core/tree_pq.hpp"
#include "core/tree_service.hpp"

// Baseline counters (paper, Related Work).
#include "baselines/central.hpp"
#include "baselines/combining_tree.hpp"
#include "baselines/counting_network.hpp"
#include "baselines/diffracting_tree.hpp"

// Quorum systems (paper, Related Work) and the quorum counter.
#include "quorum/crumbling_wall.hpp"
#include "quorum/grid.hpp"
#include "quorum/hierarchical.hpp"
#include "quorum/majority.hpp"
#include "quorum/probe.hpp"
#include "quorum/projective_plane.hpp"
#include "quorum/quorum_analysis.hpp"
#include "quorum/quorum_counter.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/weighted.hpp"
#include "quorum/tree_quorum.hpp"

// Experiment harness and analysis.
#include "analysis/adversary.hpp"
#include "analysis/audit.hpp"
#include "analysis/concentration.hpp"
#include "analysis/dag.hpp"
#include "analysis/explore.hpp"
#include "analysis/hotspot.hpp"
#include "analysis/latency.hpp"
#include "analysis/report.hpp"
#include "analysis/tree_profile.hpp"
#include "analysis/weights.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
