#include "harness/result.hpp"

#include <map>
#include <unordered_map>
#include <utility>

#include "support/check.hpp"

namespace dcnt {

traffic::DriverOptions LoadOptions::driver_options() const {
  traffic::DriverOptions out;
  static_cast<traffic::LoadPolicy&>(out) = *this;
  if (open_rate > 0.0) {
    out.shape =
        traffic::make_shape(shape, open_rate, period_s, amplitude, duty);
  }
  out.slo_ns = static_cast<std::int64_t>(slo_us * 1e3);
  return out;
}

void fill_traffic(HarnessResult& out, const traffic::TrafficStats& t) {
  out.mean_us = t.mean_us;
  out.p50_us = t.p50_us;
  out.p95_us = t.p95_us;
  out.p99_us = t.p99_us;
  out.p999_us = t.p999_us;
  out.p9999_us = t.p9999_us;
  out.max_us = t.max_us;
  out.slo_us = static_cast<double>(t.slo_ns) / 1e3;
  out.slo_den = t.count;
  out.slo_ok = t.slo_ok;
  out.slo_attainment = t.slo_attainment;
  out.hdr_recorder = !t.exact;
  out.hdr_overflow = t.hdr_overflow;
  out.record_threads = t.record_threads;
  out.slo_phases = t.phases;
  out.slo_high_den = t.high_count;
  out.slo_high_ok = t.high_slo_ok;
  out.slo_high_attainment = t.high_attainment;
  out.slo_low_den = t.low_count;
  out.slo_low_ok = t.low_slo_ok;
  out.slo_low_attainment = t.low_attainment;
}

void fill_run(HarnessResult& out, const traffic::DriverResult& run) {
  out.ops = run.ops;
  out.wall_seconds = run.wall_seconds;
  out.ops_per_sec = run.ops_per_sec;
  fill_traffic(out, run.traffic);
}

void verify_values(HarnessResult& out, const std::vector<Value>& values,
                   const std::vector<KeyId>& key_of_op, Value first) {
  const bool keyed = !key_of_op.empty();
  DCNT_CHECK(!keyed || key_of_op.size() == values.size());
  const auto key = [&](std::size_t i) {
    return keyed ? key_of_op[i] : KeyId{0};
  };
  // Each key's values must be exactly first..first+ops_k-1: give every
  // key a window of ops_k slots in one bitmap and claim each value's
  // slot once. Linear in the op count (no sort), plain runs being one key.
  std::unordered_map<KeyId, std::pair<std::size_t, std::size_t>> window;
  for (std::size_t i = 0; i < values.size(); ++i) ++window[key(i)].second;
  std::size_t start = 0;
  for (auto& [k, w] : window) {
    w.first = start;
    start += w.second;
  }
  std::vector<bool> seen(values.size(), false);
  out.values_ok = true;
  for (std::size_t i = 0; i < values.size() && out.values_ok; ++i) {
    const auto& [base, count] = window[key(i)];
    const Value v = values[i] - first;
    out.values_ok = v >= 0 && static_cast<std::size_t>(v) < count &&
                    !seen[base + static_cast<std::size_t>(v)];
    if (out.values_ok) seen[base + static_cast<std::size_t>(v)] = true;
  }
  DCNT_CHECK_MSG(out.values_ok,
                 keyed ? "some key's values are not a permutation of 0..ops_k-1"
                       : "values are not a permutation of 0..m-1");
  if (!keyed) return;
  // Ordered by key, so a strict comparison keeps ties at the smallest id.
  std::map<KeyId, std::int64_t> ops_by_key;
  for (std::size_t i = out.warmup; i < key_of_op.size(); ++i) {
    ++ops_by_key[key_of_op[i]];
  }
  for (const auto& [k, count] : ops_by_key) {
    if (count > out.hot_key_ops) {
      out.hot_key = k;
      out.hot_key_ops = count;
    }
  }
}

void fill_loads(HarnessResult& out, const Metrics& metrics) {
  out.total_messages = metrics.total_messages();
  out.max_load = metrics.max_load();
  out.bottleneck = metrics.bottleneck();
  out.keys_touched = metrics.key_loads().size();
  out.hot_key_max_load = metrics.key_max_load(out.hot_key);
  out.hot_key_messages = metrics.key_total_messages(out.hot_key);
}

void fill_linearizability(HarnessResult& out,
                          const LinearizabilityReport& report) {
  out.lin_checked = true;
  out.linearizable = report.linearizable;
  out.lin_violations = report.violations;
}

}  // namespace dcnt
