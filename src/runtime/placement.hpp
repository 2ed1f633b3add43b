// Core-aware shard placement: pin runtime workers (and shm harness
// threads) to CPUs chosen by a topology-aware policy (DESIGN.md §16).
//
// The paper prices protocols in messages; silicon prices them in
// cache-line transfers, and WHERE two communicating shards run decides
// how much each transfer costs (shared L2 vs cross-socket). The
// placement layer makes that a knob instead of scheduler luck:
//
//   --placement none     leave scheduling to the kernel (default)
//   --placement compact  fill SMT siblings / cores in topology order —
//                        communicating shards share cache levels
//
// Topology comes from sysfs (core_id / physical_package_id per online
// CPU); where sysfs or pthread_setaffinity_np is unavailable the plan
// reports supported=false and every pin is a graceful no-op — the run
// proceeds unpinned and says so, it never fails. Workers beyond the CPU
// count wrap around (oversubscribed hosts still get a deterministic
// layout).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dcnt {

enum class Placement {
  kNone,
  kCompact,
};

std::string to_string(Placement p);
/// "none" / "compact"; anything else aborts with the accepted
/// vocabulary.
Placement placement_from_string(const std::string& name);

/// One logical CPU as sysfs describes it. core_id/package_id fall back
/// to the cpu index when the topology files are unreadable (a layout
/// policy still produces a deterministic order, just an uninformed one).
struct CpuInfo {
  int cpu{0};
  int core_id{0};
  int package_id{0};
};

struct CpuTopology {
  std::vector<CpuInfo> cpus;  ///< online CPUs, ascending cpu id
  /// True when the online-CPU list came from sysfs (vs. the
  /// hardware_concurrency fallback).
  bool from_sysfs{false};

  /// Reads /sys/devices/system/cpu once per process. Never fails: an
  /// unreadable sysfs degrades to 0..hardware_concurrency-1 with
  /// identity core ids.
  static const CpuTopology& detect();
};

/// The resolved CPU assignment for `workers` threads under a policy.
struct PlacementPlan {
  Placement policy{Placement::kNone};
  /// cpus[i] is worker i's target CPU; empty when policy == kNone.
  /// Workers beyond the host's CPU count wrap around.
  std::vector<int> cpus;
  /// False when pinning cannot work here (no pthread affinity support);
  /// pin_thread_to_cpu then no-ops and callers report "unsupported"
  /// instead of a bogus pinned count.
  bool supported{false};

  /// Worker -> CPU, or -1 when the plan does not pin (kNone or
  /// unsupported).
  int cpu_for(std::size_t worker) const {
    if (!supported || cpus.empty()) return -1;
    return cpus[worker % cpus.size()];
  }
};

/// Orders the host's CPUs per the policy and returns the per-worker
/// assignment. Pure function of (topology, policy, workers) — tests pin
/// its output on synthetic topologies.
PlacementPlan plan_placement(Placement policy, std::size_t workers);

/// plan_placement over an explicit topology (testable on synthetic
/// multi-socket layouts regardless of the host).
PlacementPlan plan_placement(const CpuTopology& topo, Placement policy,
                             std::size_t workers);

/// Pins the calling thread to `cpu` via pthread_setaffinity_np. Returns
/// whether the affinity call succeeded; false (never an abort) on
/// non-Linux hosts, cpu < 0, or a kernel refusal — the graceful-no-op
/// contract.
bool pin_thread_to_cpu(int cpu);

}  // namespace dcnt
