// Shared plumbing for the bench binaries: comma-separated list parsing
// for flags, a minimal JSON emitter for the checked-in BENCH_*.json
// baselines, and the one column table the wall-clock benches
// (bench_throughput, bench_net, bench_keys) report their rows through.
// Every bench that writes a baseline goes through JsonWriter so the
// files share one shape:
//
//   {
//     "bench": "...", <scalar header fields>,
//     "<sweep>": [
//       {"k": 2, "max_load": 14, ...},
//       ...
//     ]
//   }
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/result.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace dcnt {

/// Shared command-line entry for every bench binary. Handles `--help`
/// (prints the description and the accepted flags, exits 0) and
/// rejects flags outside `known` (prints the offender and the same
/// usage to stderr, exits 2); otherwise returns the parsed flags.
/// Every bench routes through this so a typo'd flag fails loudly
/// instead of silently running the default experiment.
Flags parse_bench_flags(int argc, char** argv, const std::string& description,
                        const std::vector<std::string>& known);

/// "2,3,4" -> {2, 3, 4}. Empty input yields an empty list.
std::vector<std::int64_t> parse_int_list(const std::string& text);

/// "0,0.05,0.2" -> {0.0, 0.05, 0.2}.
std::vector<double> parse_double_list(const std::string& text);

/// "tree,central" -> {"tree", "central"}.
std::vector<std::string> parse_string_list(const std::string& text);

/// One report value: an integer (bools as 1/0), a double printed at
/// its column's precision, or a string.
using Cell = std::variant<std::int64_t, double, std::string>;

/// Strings stay strings, floating point becomes double, every integer
/// type (and bool) becomes int64.
template <typename T>
Cell to_cell(const T& value) {
  if constexpr (std::is_convertible_v<T, std::string>) {
    return std::string(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<double>(value);
  } else {
    return static_cast<std::int64_t>(value);
  }
}

/// Streaming writer for the flat JSON baselines the benches emit.
/// Top-level fields go one per line; array rows are single-line
/// objects. The destructor closes the file and announces the path, so
/// a bench just writes fields in order and returns.
class JsonWriter {
 public:
  /// Opens `path` for writing and emits the opening brace.
  /// DCNT_CHECK-fails if the file cannot be opened.
  explicit JsonWriter(std::string path);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void field(const std::string& key, double value, int precision = 3);
  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  template <typename T,
            typename std::enable_if<std::is_integral<T>::value, int>::type = 0>
  void field(const std::string& key, T value) {
    field_int(key, static_cast<long long>(value));
  }

  /// Starts a top-level array of row objects.
  void begin_array(const std::string& key);
  void end_array();

  /// Starts one single-line row object inside the current array.
  void begin_object();
  void end_object();

 private:
  void field_int(const std::string& key, long long value);
  /// Writes the separator + indentation owed before the next item and
  /// returns the FILE* for the value itself.
  std::FILE* pre_key(const std::string& key);

  std::FILE* f_{nullptr};
  std::string path_;
  bool in_array_{false};
  bool in_row_{false};
  bool first_at_top_{true};
  bool first_in_array_{true};
  bool first_in_row_{true};
};

/// One row of a wall-clock bench: how it ran and what came back. The
/// option columns (inflight, window, rate, ...) read `load`, never a
/// copy of a result field.
template <typename Options, typename Result>
struct BenchRow {
  std::string mode;
  std::size_t parallelism{0};  ///< workers, threads or cluster nodes
  Options load;
  Result result;
};

/// bench_net and bench_keys rows: in-process rows carry their
/// HarnessResult in a ClusterResult whose wire counters stay zero.
using ClusterRow = BenchRow<net::ClusterOptions, net::ClusterResult>;

/// A report column: its JSON key (empty = table only), its table header
/// (empty = JSON only), the decimals a double is written with, and the
/// getter. A section names a column by its key, or by its header when
/// it has no key.
template <typename Row>
struct Column {
  std::string key;
  std::string header;
  int precision{0};
  std::function<Cell(const Row&)> get;

  const std::string& name() const { return key.empty() ? header : key; }
};

/// Column builders over one field of a row: `result` reads the run's
/// result, `load` the options it ran with (`field` is a member pointer).
template <typename Row>
struct Columns {
  static Column<Row> result(std::string key, std::string header, auto field,
                            int precision = 0) {
    return {std::move(key), std::move(header), precision,
            [field](const Row& r) { return to_cell(r.result.*field); }};
  }
  static Column<Row> load(std::string key, std::string header, auto field,
                          int precision = 0) {
    return {std::move(key), std::move(header), precision,
            [field](const Row& r) { return to_cell(r.load.*field); }};
  }
};

/// The HarnessResult columns every wall-clock bench reports, plus the
/// row and LoadOptions columns more than one bench reports, followed by
/// the caller's own `extra` columns. Each field is defined here once.
template <typename Row>
std::vector<Column<Row>> harness_columns(std::vector<Column<Row>> extra) {
  using C = Columns<Row>;
  std::vector<Column<Row>> columns{
      {"mode", "mode", 0, [](const Row& r) { return to_cell(r.mode); }},
      {"parallelism", "par", 0,
       [](const Row& r) { return to_cell(r.parallelism); }},
      C::result("counter", "counter", &HarnessResult::counter),
      C::result("n", "n", &HarnessResult::n),
      C::result("ops", "ops", &HarnessResult::ops),
      C::result("wall_seconds", "", &HarnessResult::wall_seconds, 4),
      C::result("ops_per_sec", "inc/s", &HarnessResult::ops_per_sec, 1),
      C::result("mean_us", "", &HarnessResult::mean_us, 2),
      C::result("p50_us", "p50_us", &HarnessResult::p50_us, 2),
      C::result("p95_us", "p95_us", &HarnessResult::p95_us, 2),
      C::result("p99_us", "p99_us", &HarnessResult::p99_us, 2),
      C::result("p999_us", "p999_us", &HarnessResult::p999_us, 2),
      C::result("p9999_us", "p9999_us", &HarnessResult::p9999_us, 2),
      C::result("max_us", "max_us", &HarnessResult::max_us, 2),
      C::result("slo_us", "", &HarnessResult::slo_us, 1),
      C::result("slo_ok", "", &HarnessResult::slo_ok),
      C::result("slo_den", "", &HarnessResult::slo_den),
      C::result("slo_attainment", "", &HarnessResult::slo_attainment, 6),
      {"", "slo%", 0,
       [](const Row& r) {
         return to_cell(r.result.slo_us > 0.0
                            ? format_double(100.0 * r.result.slo_attainment, 2)
                            : std::string("—"));
       }},
      C::result("hdr_recorder", "", &HarnessResult::hdr_recorder),
      {"", "hdr", 0,
       [](const Row& r) { return to_cell(r.result.hdr_recorder ? "y" : "n"); }},
      C::result("hdr_overflow", "", &HarnessResult::hdr_overflow),
      C::result("record_threads", "", &HarnessResult::record_threads),
      C::result("lin_checked", "", &HarnessResult::lin_checked),
      C::result("linearizable", "", &HarnessResult::linearizable),
      {"", "lin", 0,
       [](const Row& r) {
         const HarnessResult& h = r.result;
         return to_cell(!h.lin_checked ? "-" : h.linearizable ? "y" : "N");
       }},
      C::result("lin_violations", "viol", &HarnessResult::lin_violations),
      C::result("total_messages", "total_msgs", &HarnessResult::total_messages),
      C::result("max_load", "max_load", &HarnessResult::max_load),
      C::result("bottleneck", "", &HarnessResult::bottleneck),
      C::result("keys", "keys", &HarnessResult::keys),
      C::result("hot_key", "", &HarnessResult::hot_key),
      C::result("hot_key_ops", "hot_ops", &HarnessResult::hot_key_ops),
      C::result("hot_key_max_load", "hk_max", &HarnessResult::hot_key_max_load),
      C::result("keys_touched", "touched", &HarnessResult::keys_touched),
      C::result("live_instances", "", &HarnessResult::live_instances),
      C::result("lru_hits", "", &HarnessResult::lru_hits),
      C::result("lru_misses", "", &HarnessResult::lru_misses),
      C::result("lru_evicts", "evict", &HarnessResult::lru_evicts),
      C::result("lru_rehydrates", "rehyd", &HarnessResult::lru_rehydrates),
      C::load("inflight", "F", &LoadOptions::inflight),
      {"window", "window", 0,
       [](const Row& r) {
         return to_cell(r.load.concurrency * r.load.inflight);
       }},
      C::load("rate", "rate/s", &LoadOptions::open_rate, 1),
      C::load("shape", "shape", &LoadOptions::shape),
  };
  for (Column<Row>& column : extra) columns.push_back(std::move(column));
  return columns;
}

/// A run of consecutive section columns and the rows that carry them.
template <typename Row>
struct Part {
  /// Column names in JSON order; a trailing '*' also prints the column
  /// in the table.
  std::string names;
  /// Rows without these columns answer false; empty = every row. A
  /// conditional column is never printed.
  std::function<bool(const Row&)> when{};
};

/// Prints `rows` as a table under `title` (when there are any) and
/// writes them as the JSON array `array`, both through one column list:
/// the section's parts in order, each name resolved in `columns`.
template <typename Row>
void emit(JsonWriter& json, const std::string& array,
          const std::string& title, const std::vector<Column<Row>>& columns,
          const std::vector<Part<Row>>& section,
          const std::vector<Row>& rows) {
  std::vector<std::tuple<const Column<Row>*, bool, const Part<Row>*>> fields;
  std::vector<std::string> headers;
  for (const Part<Row>& part : section) {
    std::istringstream names(part.names);
    for (std::string name; names >> name;) {
      const bool printed = name.back() == '*';
      if (printed) name.pop_back();
      const auto it =
          std::find_if(columns.begin(), columns.end(),
                       [&](const Column<Row>& c) { return c.name() == name; });
      DCNT_CHECK_MSG(it != columns.end(), "section names an unknown column");
      DCNT_CHECK_MSG(printed ? !it->header.empty() && !part.when
                             : !it->key.empty(),
                     "column has no place to go in this section");
      if (printed) headers.push_back(it->header);
      fields.emplace_back(&*it, printed, &part);
    }
  }
  Table table(headers);
  json.begin_array(array);
  for (const Row& row : rows) {
    table.row();
    json.begin_object();
    for (const auto& [column, printed, part] : fields) {
      if (part->when && !part->when(row)) continue;
      const Cell cell = column->get(row);
      const std::string& key = column->key;
      const int p = column->precision;
      if (const auto* d = std::get_if<double>(&cell)) {
        if (printed) table.add(*d, p);
        if (!key.empty()) json.field(key, *d, p);
      } else if (const auto* i = std::get_if<std::int64_t>(&cell)) {
        if (printed) table.add(*i);
        if (!key.empty()) json.field(key, *i);
      } else {
        if (printed) table.add(std::get<std::string>(cell));
        if (!key.empty()) json.field(key, std::get<std::string>(cell));
      }
    }
    json.end_object();
  }
  json.end_array();
  if (!rows.empty()) table.print(std::cout, title);
}

}  // namespace dcnt
