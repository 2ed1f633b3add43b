#include "runtime/placement.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "support/check.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dcnt {

namespace {

/// Reads a small integer file ("3" or "0-3" style first token) from
/// sysfs; returns fallback on any failure.
int read_sysfs_int(const std::string& path, int fallback) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return fallback;
  int value = fallback;
  if (std::fscanf(f, "%d", &value) != 1) value = fallback;
  std::fclose(f);
  return value;
}

/// Parses the sysfs online-CPU list ("0-3,8-11" style). Empty on
/// failure, which triggers the hardware_concurrency fallback.
std::vector<int> read_online_cpus() {
  std::vector<int> cpus;
  std::FILE* f = std::fopen("/sys/devices/system/cpu/online", "r");
  if (f == nullptr) return cpus;
  char buf[4096];
  if (std::fgets(buf, sizeof(buf), f) == nullptr) {
    std::fclose(f);
    return cpus;
  }
  std::fclose(f);
  int lo = -1;
  int cur = 0;
  bool have_digit = false;
  for (const char* p = buf;; ++p) {
    const char c = *p;
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + (c - '0');
      have_digit = true;
    } else if (c == '-') {
      lo = cur;
      cur = 0;
      have_digit = false;
    } else if (c == ',' || c == '\n' || c == '\0') {
      if (have_digit) {
        const int first = lo >= 0 ? lo : cur;
        for (int i = first; i <= cur; ++i) cpus.push_back(i);
      }
      lo = -1;
      cur = 0;
      have_digit = false;
      if (c == '\0' || c == '\n') break;
    } else {
      break;  // unexpected character: trust what we have
    }
  }
  return cpus;
}

bool affinity_supported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

}  // namespace

std::string to_string(Placement p) {
  switch (p) {
    case Placement::kNone:
      return "none";
    case Placement::kCompact:
      return "compact";
  }
  return "none";
}

Placement placement_from_string(const std::string& name) {
  if (name.empty() || name == "none") return Placement::kNone;
  if (name == "compact") return Placement::kCompact;
  DCNT_CHECK_MSG(false, "unknown placement (expected none or compact)");
  return Placement::kNone;
}

const CpuTopology& CpuTopology::detect() {
  static const CpuTopology topo = [] {
    CpuTopology t;
    std::vector<int> online = read_online_cpus();
    if (!online.empty()) {
      t.from_sysfs = true;
    } else {
      const unsigned hw = std::thread::hardware_concurrency();
      for (unsigned i = 0; i < std::max(hw, 1u); ++i) {
        online.push_back(static_cast<int>(i));
      }
    }
    t.cpus.reserve(online.size());
    for (const int cpu : online) {
      const std::string base =
          "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
      CpuInfo info;
      info.cpu = cpu;
      info.core_id = read_sysfs_int(base + "core_id", cpu);
      info.package_id = read_sysfs_int(base + "physical_package_id", 0);
      t.cpus.push_back(info);
    }
    return t;
  }();
  return topo;
}

PlacementPlan plan_placement(const CpuTopology& topo, Placement policy,
                             std::size_t workers) {
  PlacementPlan plan;
  plan.policy = policy;
  if (policy == Placement::kNone || workers == 0 || topo.cpus.empty()) {
    return plan;
  }
  plan.supported = affinity_supported();
  if (!plan.supported) return plan;

  // Compact: topology order — SMT siblings adjacent within a core,
  // cores adjacent within a package — so communicating workers share
  // the deepest possible cache level.
  std::vector<CpuInfo> sorted = topo.cpus;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const CpuInfo& a, const CpuInfo& b) {
                     if (a.package_id != b.package_id)
                       return a.package_id < b.package_id;
                     if (a.core_id != b.core_id) return a.core_id < b.core_id;
                     return a.cpu < b.cpu;
                   });
  plan.cpus.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    plan.cpus.push_back(sorted[w % sorted.size()].cpu);
  }
  return plan;
}

PlacementPlan plan_placement(Placement policy, std::size_t workers) {
  return plan_placement(CpuTopology::detect(), policy, workers);
}

bool pin_thread_to_cpu(int cpu) {
  if (cpu < 0) return false;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;  // graceful no-op: caller reports "unsupported"
#endif
}

}  // namespace dcnt
