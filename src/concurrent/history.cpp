#include "concurrent/history.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "support/check.hpp"

namespace dcnt {

namespace {

// The linear path reads a history through one of two sources: size()
// positions, at(i) the record at position i, and completed(r) whether
// that record is an op of the history.

/// A record vector: every record is an op.
struct Records {
  const std::vector<CounterOpRecord>& history;
  std::size_t size() const { return history.size(); }
  const CounterOpRecord& at(std::size_t i) const { return history[i]; }
  static bool completed(const CounterOpRecord& /*r*/) { return true; }
};

/// A HistoryBuffer's slots from first_op on, read in place; a slot that
/// never completed is no op (snapshot() leaves it out).
struct Slots {
  const concurrent::HistoryBuffer& history;
  std::size_t first_op;
  std::size_t size() const {
    return history.capacity() > first_op ? history.capacity() - first_op : 0;
  }
  CounterOpRecord at(std::size_t i) const {
    return history.record(first_op + i);
  }
  static bool completed(const CounterOpRecord& r) { return r.responded != 0; }
};

/// Positions by value, when the ops' values are exactly lo..lo+m-1 for
/// some lo >= 0, each once; empty otherwise (no completed op, a gap, a
/// duplicate or a negative value, which the sort sweep, its running
/// maximum starting at -1, does not treat as a plain value). 4 bytes
/// per op.
template <class Source>
std::vector<std::uint32_t> index_by_value(const Source& history) {
  constexpr auto kEmpty = std::numeric_limits<std::uint32_t>::max();
  const std::size_t size = history.size();
  if (size >= kEmpty) return {};
  std::size_t m = 0;
  Value lo = std::numeric_limits<Value>::max();
  Value hi = std::numeric_limits<Value>::min();
  for (std::size_t i = 0; i < size; ++i) {
    const CounterOpRecord& r = history.at(i);
    if (!Source::completed(r)) continue;
    ++m;
    lo = std::min(lo, r.value);
    hi = std::max(hi, r.value);
  }
  if (m == 0 || lo < 0 || static_cast<std::uint64_t>(hi - lo) != m - 1) {
    return {};
  }
  std::vector<std::uint32_t> index(m, kEmpty);
  for (std::size_t i = 0; i < size; ++i) {
    const CounterOpRecord& r = history.at(i);
    if (!Source::completed(r)) continue;
    std::uint32_t& slot = index[static_cast<std::size_t>(r.value - lo)];
    // m values in a range of m: a duplicate leaves a gap elsewhere.
    if (slot != kEmpty) return {};
    slot = static_cast<std::uint32_t>(i);
  }
  return index;
}

/// The real-time sweep over a value index, in O(m) with no copy. Op b
/// violates iff some op with a larger value responded before b was
/// invoked, i.e. iff the earliest response among larger values precedes
/// inv(b): the violating set of the sort sweep, found from the top
/// value down. first_b is the violator the sort sweep meets first (the
/// earliest invocation; ties to the smaller op id) and first_a its
/// running maximum there (the largest value that responded before
/// inv(first_b)).
template <class Source>
LinearizabilityReport sweep_by_value(const Source& history,
                                     const std::vector<std::uint32_t>& index) {
  LinearizabilityReport report;
  SimTime earliest_resp = std::numeric_limits<SimTime>::max();
  std::optional<CounterOpRecord> first_b;
  for (std::size_t v = index.size(); v-- > 0;) {
    const CounterOpRecord& b = history.at(index[v]);
    if (earliest_resp < b.invoked) {
      ++report.violations;
      if (!first_b || b.invoked < first_b->invoked ||
          (b.invoked == first_b->invoked && b.op < first_b->op)) {
        first_b = b;
      }
    }
    earliest_resp = std::min(earliest_resp, b.responded);
  }
  if (!first_b) return report;
  report.linearizable = false;
  report.first_b = first_b->op;
  for (std::size_t v = index.size(); v-- > 0;) {
    const CounterOpRecord& a = history.at(index[v]);
    if (a.responded < first_b->invoked) {
      report.first_a = a.op;
      break;
    }
  }
  return report;
}

}  // namespace

LinearizabilityReport check_linearizable(
    const std::vector<CounterOpRecord>& history) {
  if (history.empty()) return {};
  const Records records{history};
  const std::vector<std::uint32_t> index = index_by_value(records);
  if (!index.empty()) return sweep_by_value(records, index);
  return check_linearizable_by_sort(history);
}

LinearizabilityReport check_linearizable(
    const concurrent::HistoryBuffer& history, std::size_t first_op) {
  const Slots slots{history, first_op};
  const std::vector<std::uint32_t> index = index_by_value(slots);
  if (!index.empty()) return sweep_by_value(slots, index);
  return check_linearizable_by_sort(history.snapshot(first_op));
}

LinearizabilityReport check_linearizable_by_sort(
    const std::vector<CounterOpRecord>& history) {
  LinearizabilityReport report;
  if (history.empty()) return report;

  // A counter hands out distinct values; two ops returning the same
  // value cannot both be legal in any sequential witness, so duplicates
  // are violations in their own right (and would confuse the sweep's
  // max-value bookkeeping below, so they are rejected up front).
  {
    std::vector<CounterOpRecord> by_value = history;
    std::sort(by_value.begin(), by_value.end(),
              [](const CounterOpRecord& a, const CounterOpRecord& b) {
                return a.value < b.value;
              });
    for (std::size_t i = 1; i < by_value.size(); ++i) {
      if (by_value[i].value == by_value[i - 1].value) {
        ++report.duplicate_values;
        ++report.violations;
        if (report.linearizable) {
          report.linearizable = false;
          report.first_a = by_value[i - 1].op;
          report.first_b = by_value[i].op;
        }
      }
    }
    if (!report.linearizable) return report;
  }

  // Sweep invocations in time order; maintain the maximum value among
  // operations that had already responded strictly earlier. A violation
  // is an invocation whose (eventual) value undercuts that maximum.
  std::vector<CounterOpRecord> by_inv = history;
  std::sort(by_inv.begin(), by_inv.end(),
            [](const CounterOpRecord& a, const CounterOpRecord& b) {
              return a.invoked < b.invoked;
            });
  std::vector<CounterOpRecord> by_resp = history;
  std::sort(by_resp.begin(), by_resp.end(),
            [](const CounterOpRecord& a, const CounterOpRecord& b) {
              return a.responded < b.responded;
            });

  std::size_t resp_idx = 0;
  Value max_completed_value = -1;
  OpId max_completed_op = kNoOp;
  for (const CounterOpRecord& b : by_inv) {
    while (resp_idx < by_resp.size() &&
           by_resp[resp_idx].responded < b.invoked) {
      if (by_resp[resp_idx].value > max_completed_value) {
        max_completed_value = by_resp[resp_idx].value;
        max_completed_op = by_resp[resp_idx].op;
      }
      ++resp_idx;
    }
    if (max_completed_value > b.value) {
      ++report.violations;
      if (report.linearizable) {
        report.linearizable = false;
        report.first_a = max_completed_op;
        report.first_b = b.op;
      }
    }
  }
  return report;
}

LinearizabilityReport check_inc_read_linearizable(
    const std::vector<CounterOpRecord>& incs,
    const std::vector<CounterOpRecord>& reads) {
  LinearizabilityReport report;
  if (reads.empty()) return report;

  // Sorted event times of the incs: lower bound for a read is how many
  // inc responses precede its invocation, upper bound how many inc
  // invocations precede its response. Binary searches over these give
  // both in O(log m) per read.
  std::vector<SimTime> inc_inv(incs.size());
  std::vector<SimTime> inc_resp(incs.size());
  for (std::size_t i = 0; i < incs.size(); ++i) {
    inc_inv[i] = incs[i].invoked;
    inc_resp[i] = incs[i].responded;
  }
  std::sort(inc_inv.begin(), inc_inv.end());
  std::sort(inc_resp.begin(), inc_resp.end());

  for (const CounterOpRecord& r : reads) {
    const auto lower = static_cast<Value>(
        std::lower_bound(inc_resp.begin(), inc_resp.end(), r.invoked) -
        inc_resp.begin());
    const auto upper = static_cast<Value>(
        std::lower_bound(inc_inv.begin(), inc_inv.end(), r.responded) -
        inc_inv.begin());
    if (r.value < lower || r.value > upper) {
      ++report.violations;
      if (report.linearizable) {
        report.linearizable = false;
        report.first_a = r.op;
        report.first_b = r.op;
      }
    }
  }

  // Read monotonicity: sweep reads by invocation time, carrying the
  // maximum value among reads that responded strictly earlier — the
  // same sweep check_linearizable runs, with <= instead of < (two
  // reads may legally observe the same count).
  std::vector<CounterOpRecord> by_inv = reads;
  std::sort(by_inv.begin(), by_inv.end(),
            [](const CounterOpRecord& a, const CounterOpRecord& b) {
              return a.invoked < b.invoked;
            });
  std::vector<CounterOpRecord> by_resp = reads;
  std::sort(by_resp.begin(), by_resp.end(),
            [](const CounterOpRecord& a, const CounterOpRecord& b) {
              return a.responded < b.responded;
            });
  std::size_t resp_idx = 0;
  Value max_read = -1;
  OpId max_read_op = kNoOp;
  for (const CounterOpRecord& b : by_inv) {
    while (resp_idx < by_resp.size() &&
           by_resp[resp_idx].responded < b.invoked) {
      if (by_resp[resp_idx].value > max_read) {
        max_read = by_resp[resp_idx].value;
        max_read_op = by_resp[resp_idx].op;
      }
      ++resp_idx;
    }
    if (max_read > b.value) {
      ++report.violations;
      if (report.linearizable) {
        report.linearizable = false;
        report.first_a = max_read_op;
        report.first_b = b.op;
      }
    }
  }
  return report;
}

namespace concurrent {

std::vector<CounterOpRecord> HistoryBuffer::snapshot(
    std::size_t first_op) const {
  std::vector<CounterOpRecord> out;
  out.reserve(slots_.size() > first_op ? slots_.size() - first_op : 0);
  for (std::size_t i = first_op; i < slots_.size(); ++i) {
    const CounterOpRecord rec = record(i);
    if (rec.responded == 0) continue;
    // Field by field: GCC copies `rec` whole through the stack, which
    // made this loop almost twice as slow.
    out.push_back({rec.op, rec.invoked, rec.responded, rec.value});
  }
  return out;
}

}  // namespace concurrent
}  // namespace dcnt
