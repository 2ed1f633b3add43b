// One benchmark trial: builds one workload through the library's public
// calls, runs a fixed number of incs, verifies every one of them, and
// prints a single JSON object with the trial's measurements on stdout.
//
//   perfbench_trial --workload=tree-closed --seed=7 --ops=162000
//                   --warmup=16200 [--node_bin=path/to/dcnt_node]
//                   [--trace=1 --trace_out=t.json --syscount_dir=dir]
//
// run.py is the intended caller: it picks the op counts, confines
// central-tcp to one CPU and preloads the syscall shim for traced trials.
//
// Workloads (each a closed loop generated from this one process):
//   tree-closed  the paper's tree counter (k=3, n=81) on one pinned
//                runtime worker, 16 clients with one inc in flight each
//   central-tcp  the central counter (n=16) on a one-node TCP cluster
//                with inline drive, 16 slots with 64 incs in flight each
//
// The trial measures the layers from outside: it times the public
// calls it makes (make_counter, the ThreadedRuntime constructor,
// run_workload, check_linearizable, merged_metrics, net::run_cluster)
// as spans and reads /proc around them. Spans are always recorded (a
// handful per trial); --trace=1 adds the per-thread /proc/self/task
// reads, the node-process scan and the socket syscall counts, and
// writes the spans as Chrome trace-event JSON to --trace_out.
//
// A failed check never aborts the trial silently: value permutation,
// linearizability and the central counter's exact message identities
// land in the JSON as "verified"; check_quiescent and the library's own
// DCNT_CHECKs abort the process, which run.py counts as a failed trial.
#include <dirent.h>
#include <dlfcn.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/history.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/schedule.hpp"
#include "runtime/threaded_runtime.hpp"
#include "runtime/workload.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace {

using dcnt::Value;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of "Key:\t<number>" in a /proc status-style file, 0 if absent.
std::int64_t status_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoll(text.c_str() + at + key.size() + 2, nullptr, 10);
}

// --- spans ------------------------------------------------------------------

/// In-memory spans (name, start, end, parent) plus counter samples,
/// written once at exit as Chrome trace-event JSON (Perfetto opens it).
class Tracer {
 public:
  int begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
    return seconds(id);
  }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  void counter(const std::string& name,
               const std::vector<std::pair<std::string, double>>& args) {
    counters_.push_back({name, now_ns(), args});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    const auto us = [t0](std::int64_t ns) {
      return static_cast<double>(ns - t0) * 1e-3;
    };
    const int pid = static_cast<int>(::getpid());
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (first ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":1,\"ts\":"
          << us(s.start_ns) << ",\"dur\":" << us(s.end_ns) - us(s.start_ns)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
    for (const Counter& c : counters_) {
      out << (first ? "" : ",") << "{\"name\":\"" << c.name
          << "\",\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":" << us(c.t_ns)
          << ",\"args\":{";
      for (std::size_t i = 0; i < c.args.size(); ++i) {
        out << (i ? "," : "") << "\"" << c.args[i].first
            << "\":" << c.args[i].second;
      }
      out << "}}";
      first = false;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  struct Counter {
    std::string name;
    std::int64_t t_ns;
    std::vector<std::pair<std::string, double>> args;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<Counter> counters_;
};

// --- /proc readers ------------------------------------------------------------

struct ThreadSample {
  std::int64_t cpu_ns{0};
  std::int64_t voluntary{0};
  std::int64_t involuntary{0};
};

/// CPU time (schedstat, ns) and context switches of every thread of
/// this process except the caller, keyed by tid.
std::map<int, ThreadSample> sample_threads() {
  std::map<int, ThreadSample> out;
  const int self_tid = static_cast<int>(::gettid());
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid <= 0 || tid == self_tid) continue;
    const std::string base = "/proc/self/task/" + std::string(e->d_name);
    ThreadSample s;
    s.cpu_ns = std::strtoll(read_file(base + "/schedstat").c_str(), nullptr, 10);
    const std::string status = read_file(base + "/status");
    s.voluntary = status_field(status, "voluntary_ctxt_switches");
    s.involuntary = status_field(status, "nonvoluntary_ctxt_switches");
    out[tid] = s;
  }
  ::closedir(dir);
  return out;
}

/// Sum over threads of (after - before); threads born in between count
/// from zero.
ThreadSample thread_delta(const std::map<int, ThreadSample>& before,
                          const std::map<int, ThreadSample>& after) {
  ThreadSample d;
  for (const auto& [tid, a] : after) {
    const auto it = before.find(tid);
    const ThreadSample b = it == before.end() ? ThreadSample{} : it->second;
    d.cpu_ns += a.cpu_ns - b.cpu_ns;
    d.voluntary += a.voluntary - b.voluntary;
    d.involuntary += a.involuntary - b.involuntary;
  }
  return d;
}

/// Host steal from the aggregate "cpu" line of /proc/stat.
struct StealSample {
  std::int64_t steal{0};
  std::int64_t total{0};
};

StealSample read_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  StealSample s;
  std::int64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double steal_pct(const StealSample& a, const StealSample& b) {
  const std::int64_t total = b.total - a.total;
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

struct Usage {
  double cpu_s{0.0};
  std::int64_t voluntary{0};
  std::int64_t involuntary{0};
  std::int64_t maxrss_kb{0};
};

Usage usage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw,
          ru.ru_maxrss};
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Socket syscall counts from the LD_PRELOAD shim (syscount.cpp):
/// {send-class, recv-class, bytes sent, bytes received}. All zero when
/// the shim is not loaded.
struct SysCount {
  std::int64_t writes{0};
  std::int64_t reads{0};
  std::int64_t bytes_written{0};
  std::int64_t bytes_read{0};
};

SysCount self_syscount() {
  using Fn = void (*)(std::int64_t*);
  const auto fn =
      reinterpret_cast<Fn>(::dlsym(RTLD_DEFAULT, "perfbench_syscount"));
  std::int64_t v[4] = {0, 0, 0, 0};
  if (fn != nullptr) fn(v);
  return {v[0], v[1], v[2], v[3]};
}

SysCount file_syscount(const std::string& path) {
  std::ifstream in(path);
  SysCount s;
  in >> s.writes >> s.reads >> s.bytes_written >> s.bytes_read;
  return s;
}

/// Finds this process's children by scanning /proc/*/stat for our pid
/// as parent (the kernel here has no /proc/<pid>/task/<tid>/children).
/// Runs on its own thread during a cluster run and rescans every 20 ms
/// until the node processes show up; pids() is valid after stop().
class ChildFinder {
 public:
  ChildFinder() : thread_([this] { loop(); }) {}
  ~ChildFinder() { stop(); }
  ChildFinder(const ChildFinder&) = delete;
  ChildFinder& operator=(const ChildFinder&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<int>& pids() const { return pids_; }

 private:
  void loop() {
    const int self = static_cast<int>(::getpid());
    while (pids_.empty() && !stop_.load(std::memory_order_relaxed)) {
      pids_ = scan_children(self);
      if (pids_.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  static std::vector<int> scan_children(int parent) {
    std::vector<int> out;
    DIR* dir = ::opendir("/proc");
    if (dir == nullptr) return out;
    while (const dirent* e = ::readdir(dir)) {
      const int pid = std::atoi(e->d_name);
      if (pid <= 0) continue;
      const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
      // Fields after the parenthesised comm: state, ppid, ...
      const std::size_t close = stat.rfind(')');
      char state = 0;
      int ppid = 0;
      if (close != std::string::npos &&
          std::sscanf(stat.c_str() + close + 1, " %c %d", &state, &ppid) == 2 &&
          ppid == parent) {
        out.push_back(pid);
      }
    }
    ::closedir(dir);
    return out;
  }

  std::vector<int> pids_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- options -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  std::size_t ops{0};
  std::size_t warmup{0};
  bool trace{false};
  std::string trace_out;
  std::string node_bin;
  std::string syscount_dir;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::stoull(val);
    else if (key == "--ops") o.ops = std::stoull(val);
    else if (key == "--warmup") o.warmup = std::stoull(val);
    else if (key == "--trace") o.trace = val == "1";
    else if (key == "--trace_out") o.trace_out = val;
    else if (key == "--node_bin") o.node_bin = val;
    else if (key == "--syscount_dir") o.syscount_dir = val;
    else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (o.ops == 0) {
    std::fprintf(stderr, "--ops must be > 0\n");
    std::exit(2);
  }
  return o;
}

// --- results -----------------------------------------------------------------------

/// Flat name -> number map printed as one JSON object.
class Row {
 public:
  void set(const std::string& key, double v) { num_.emplace_back(key, v); }
  void set_str(const std::string& key, const std::string& v) {
    str_.emplace_back(key, v);
  }
  void print() const {
    std::printf("{");
    bool first = true;
    for (const auto& [k, v] : str_) {
      std::printf("%s\"%s\":\"%s\"", first ? "" : ",", k.c_str(), v.c_str());
      first = false;
    }
    for (const auto& [k, v] : num_) {
      std::printf("%s\"%s\":%.10g", first ? "" : ",", k.c_str(), v);
      first = false;
    }
    std::printf("}\n");
  }

 private:
  std::vector<std::pair<std::string, double>> num_;
  std::vector<std::pair<std::string, std::string>> str_;
};

/// What every workload reports back to main().
struct Outcome {
  std::int64_t n{0};
  std::size_t ops{0};
  double measured_s{0.0};
  double p50_us{0.0};
  double p95_us{0.0};
  double max_us{0.0};
  std::int64_t samples{0};
  std::int64_t hdr_overflow{0};
  std::int64_t total_messages{0};
  std::int64_t max_load{0};
  bool values_ok{false};
  bool linearizable{false};
  std::int64_t lin_violations{0};
  /// Wall time of the run call (run_workload / run_cluster) and the
  /// part of it outside the measured phase.
  double run_call_s{0.0};
  std::int64_t run_call_start_ns{0};
  double factory_s{0.0};
  double runtime_start_s{0.0};
  double controller_cpu_s{0.0};
  // Traced runs only.
  ThreadSample workers;
  SysCount controller_sys;
  SysCount node_sys;
  std::size_t nodes_seen{0};
};

bool is_permutation_of_iota(std::vector<Value> values) {
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != static_cast<Value>(i)) return false;
  }
  return true;
}

/// Each processor initiates the same number of incs: `blocks` seeded
/// permutations of 0..n-1 back to back.
std::vector<dcnt::ProcessorId> balanced_initiators(std::int64_t n,
                                                   std::size_t blocks,
                                                   std::uint64_t seed) {
  dcnt::Rng rng(seed);
  std::vector<dcnt::ProcessorId> out;
  out.reserve(blocks * static_cast<std::size_t>(n));
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto perm = dcnt::schedule_permutation(n, rng);
    out.insert(out.end(), perm.begin(), perm.end());
  }
  return out;
}

/// Exits unless ops and warmup split evenly over the n processors (the
/// balanced schedules and the central identities rely on it).
void require_multiple_of_n(const Options& o, std::int64_t n) {
  const auto un = static_cast<std::size_t>(n);
  if (o.ops % un != 0 || o.warmup % un != 0) {
    std::fprintf(stderr, "ops and warmup must be multiples of n=%lld\n",
                 static_cast<long long>(n));
    std::exit(2);
  }
}

/// tree-closed: the paper's §4 tree (k=3, n=81) on one pinned worker,
/// 16 closed-loop clients with one inc in flight each.
Outcome run_tree(const Options& o, Tracer& tr) {
  Outcome out;
  int s = tr.begin("harness.make_counter");
  auto protocol = dcnt::make_counter(dcnt::CounterKind::kTree, 81);
  out.factory_s = tr.end(s);
  out.n = static_cast<std::int64_t>(protocol->num_processors());
  require_multiple_of_n(o, out.n);
  const std::size_t total = o.warmup + o.ops;

  dcnt::RuntimeConfig config;
  config.workers = 1;
  config.seed = o.seed;
  config.max_ops = total;
  config.placement = dcnt::Placement::kCompact;
  s = tr.begin("runtime.ThreadedRuntime");
  dcnt::ThreadedRuntime rt(std::move(protocol), config);
  out.runtime_start_s = tr.end(s);

  s = tr.begin("harness.prepare");
  dcnt::concurrent::HistoryBuffer history(total);
  // run_workload cycles warmup through the initiator sequence,
  // so balanced blocks keep both phases balanced.
  const auto initiators = balanced_initiators(
      out.n, o.ops / static_cast<std::size_t>(out.n), o.seed);
  dcnt::WorkloadOptions wl;
  wl.concurrency = 16;
  wl.inflight = 1;
  wl.warmup = o.warmup;
  wl.history = &history;
  tr.end(s);

  std::map<int, ThreadSample> before;
  if (o.trace) before = sample_threads();
  const double cpu0 = thread_cpu_s();
  out.run_call_start_ns = now_ns();
  s = tr.begin("runtime.run_workload");
  const dcnt::WorkloadResult run = dcnt::run_workload(rt, initiators, wl);
  out.run_call_s = tr.end(s);
  out.controller_cpu_s = thread_cpu_s() - cpu0;
  if (o.trace) {
    // Workers are joined by the runtime's destructor, so read them now.
    out.workers = thread_delta(before, sample_threads());
    tr.counter("runtime.workers", {{"cpu_ms", out.workers.cpu_ns * 1e-6},
                                   {"voluntary", double(out.workers.voluntary)},
                                   {"involuntary", double(out.workers.involuntary)}});
  }
  out.ops = run.ops;
  out.measured_s = run.wall_seconds;
  out.p50_us = run.traffic.p50_us;
  out.p95_us = run.traffic.p95_us;
  out.max_us = run.traffic.max_us;
  out.samples = run.traffic.count;
  out.hdr_overflow = run.traffic.hdr_overflow;

  s = tr.begin("harness.check_values");
  std::vector<Value> values(total, -1);
  bool all_done = true;
  for (std::size_t i = 0; i < total; ++i) {
    const auto v = rt.result(static_cast<dcnt::OpId>(i));
    all_done = all_done && v.has_value();
    if (v) values[i] = *v;
  }
  out.values_ok = all_done && run.ops == o.ops && is_permutation_of_iota(values);
  tr.end(s);

  s = tr.begin("core.check_quiescent");
  rt.protocol().check_quiescent(total);  // aborts on violation
  tr.end(s);

  s = tr.begin("concurrent.check_linearizable");
  const auto report = dcnt::check_linearizable(history.snapshot(o.warmup));
  out.linearizable = report.linearizable;
  out.lin_violations = report.violations;
  tr.end(s);

  s = tr.begin("runtime.merged_metrics");
  const dcnt::Metrics metrics = rt.merged_metrics();
  out.total_messages = metrics.total_messages();
  out.max_load = metrics.max_load();
  tr.end(s);
  return out;
}

/// central-tcp: the central counter (n=16) on a one-node TCP cluster
/// with inline drive, 16 slots with 64 incs in flight each.
Outcome run_tcp(const Options& o, Tracer& tr) {
  Outcome out;
  dcnt::net::ClusterOptions c;
  c.counter = "central";
  c.min_processors = 16;
  // The benchmark needs n for the message identities; the controller
  // makes the same call inside run_cluster to size the cluster.
  int s = tr.begin("harness.make_counter");
  out.n = static_cast<std::int64_t>(
      dcnt::make_counter(dcnt::CounterKind::kCentral, c.min_processors)
          ->num_processors());
  out.factory_s = tr.end(s);
  require_multiple_of_n(o, out.n);
  c.nodes = 1;
  c.shards_per_node = 0;  // inline drive
  c.loops = 1;
  c.ops = o.ops;
  c.warmup = o.warmup;
  // Round-robin initiators keep every processor's share exact, which
  // the message identity needs; the seed drives the node's rng streams.
  c.initiators = "roundrobin";
  c.seed = o.seed;
  c.concurrency = 16;
  c.inflight = 64;
  c.lin_check = true;
  c.timeout_seconds = 60.0;
  c.node_binary = o.node_bin;

  std::unique_ptr<ChildFinder> finder;
  SysCount sys0;
  if (o.trace) {
    finder = std::make_unique<ChildFinder>();
    sys0 = self_syscount();
  }
  const double cpu0 = thread_cpu_s();
  out.run_call_start_ns = now_ns();
  s = tr.begin("net.run_cluster");
  const dcnt::net::ClusterResult r = dcnt::net::run_cluster(c);
  out.run_call_s = tr.end(s);
  out.controller_cpu_s = thread_cpu_s() - cpu0;
  if (o.trace) {
    finder->stop();
    const SysCount sys1 = self_syscount();
    out.controller_sys = {sys1.writes - sys0.writes, sys1.reads - sys0.reads,
                          sys1.bytes_written - sys0.bytes_written,
                          sys1.bytes_read - sys0.bytes_read};
    out.nodes_seen = finder->pids().size();
    for (const int pid : finder->pids()) {
      const SysCount n = file_syscount(o.syscount_dir + "/syscount-" +
                                       std::to_string(pid) + ".txt");
      out.node_sys.writes += n.writes;
      out.node_sys.reads += n.reads;
      out.node_sys.bytes_written += n.bytes_written;
      out.node_sys.bytes_read += n.bytes_read;
    }
    tr.counter("net.syscalls",
               {{"controller_send", double(out.controller_sys.writes)},
                {"controller_recv", double(out.controller_sys.reads)},
                {"node_send", double(out.node_sys.writes)},
                {"node_recv", double(out.node_sys.reads)}});
  }
  out.ops = r.ops;
  out.measured_s = r.wall_seconds;
  out.p50_us = r.p50_us;
  out.p95_us = r.p95_us;
  out.max_us = r.max_us;
  out.samples = static_cast<std::int64_t>(r.ops);
  out.hdr_overflow = r.hdr_overflow;
  out.total_messages = r.total_messages;
  out.max_load = r.max_load;
  out.values_ok = r.values_ok && r.ops == o.ops &&
                  is_permutation_of_iota(r.values);
  out.linearizable = r.lin_checked && r.linearizable;
  out.lin_violations = r.lin_violations;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t t_start = now_ns();
  const Options o = parse(argc, argv);
  const StealSample steal0 = read_steal();
  Tracer tr;
  const int root = tr.begin(o.workload.c_str());

  Outcome out;
  if (o.workload == "tree-closed") {
    out = run_tree(o, tr);
  } else if (o.workload == "central-tcp") {
    out = run_tcp(o, tr);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  tr.end(root);

  const Usage self = usage(RUSAGE_SELF);
  const Usage kids = usage(RUSAGE_CHILDREN);
  const StealSample steal1 = read_steal();
  const std::string status = read_file("/proc/self/status");

  const double incs = static_cast<double>(o.warmup + o.ops);
  const double ops = static_cast<double>(std::max<std::size_t>(out.ops, 1));
  const double n = static_cast<double>(out.n);
  // The central counter's exact identities: every inc from a processor
  // other than the holder costs one request and one reply, both at the
  // holder, so msgs = max_load = 2 (n-1)/n per inc exactly.
  const bool central = o.workload == "central-tcp";
  const std::int64_t identity = 2 * (out.n - 1) * static_cast<std::int64_t>(out.ops);
  const bool identities_ok =
      !central || (out.total_messages * out.n == identity &&
                   out.max_load * out.n == identity);
  const bool verified = out.values_ok && out.linearizable &&
                        out.lin_violations == 0 && identities_ok;
  const double unmeasured_s = out.run_call_s - out.measured_s;
  // Wall time before the first measured inc: everything from main()
  // up to the run call, plus the run call's own unmeasured part
  // (warmup; for run_cluster also node spawn, handshake and the
  // quiescence barrier, which it does not separate out).
  const double setup_s =
      static_cast<double>(out.run_call_start_ns - t_start) * 1e-9 +
      unmeasured_s;

  Row row;
  row.set_str("workload", o.workload);
  row.set_str("build_type", PERFBENCH_BUILD_TYPE);
  row.set("seed", static_cast<double>(o.seed));
  row.set("n", n);
  row.set("ops", static_cast<double>(out.ops));
  row.set("warmup", static_cast<double>(o.warmup));
  row.set("verified", verified ? 1 : 0);
  row.set("values_ok", out.values_ok ? 1 : 0);
  row.set("linearizable", out.linearizable ? 1 : 0);
  row.set("lin_violations", static_cast<double>(out.lin_violations));
  row.set("identities_ok", identities_ok ? 1 : 0);
  row.set("total_messages", static_cast<double>(out.total_messages));
  row.set("max_load", static_cast<double>(out.max_load));
  // End-to-end.
  row.set("inc_per_s", ops / out.measured_s);
  row.set("p50_us", out.p50_us);
  row.set("p95_us", out.p95_us);
  row.set("samples", static_cast<double>(out.samples));
  row.set("cpu_us_per_inc", (self.cpu_s + kids.cpu_s) * 1e6 / incs);
  row.set("setup_s", setup_s);
  row.set("peak_rss_mb",
          static_cast<double>(status_field(status, "VmHWM") + kids.maxrss_kb) /
              1024.0);
  row.set("msgs_per_inc", static_cast<double>(out.total_messages) / ops);
  row.set("max_load_per_inc", static_cast<double>(out.max_load) / ops);
  // Per layer.
  row.set("harness.factory_ms", out.factory_s * 1e3);
  row.set("harness.unmeasured_s", unmeasured_s);
  row.set("harness.controller_cpu_us_per_inc", out.controller_cpu_s * 1e6 / incs);
  row.set("runtime.start_ms", out.runtime_start_s * 1e3);
  row.set("core.load_imbalance",
          out.total_messages > 0
              ? static_cast<double>(out.max_load) /
                    (2.0 * static_cast<double>(out.total_messages) / n)
              : 0.0);
  row.set("traffic.max_ms", out.max_us * 1e-3);
  row.set("traffic.hdr_overflow", static_cast<double>(out.hdr_overflow));
  row.set("host.steal_pct", steal_pct(steal0, steal1));
  if (o.trace) {
    const double worker_ns = static_cast<double>(out.workers.cpu_ns);
    row.set("runtime.worker_cpu_us_per_inc", worker_ns * 1e-3 / incs);
    row.set("runtime.cpu_ns_per_msg",
            out.total_messages > 0
                ? worker_ns / static_cast<double>(out.total_messages)
                : 0.0);
    row.set("runtime.voluntary_switches_per_kinc",
            static_cast<double>(out.workers.voluntary) * 1e3 / incs);
    row.set("runtime.involuntary_switches_per_kinc",
            static_cast<double>(out.workers.involuntary) * 1e3 / incs);
    const SysCount& cs = out.controller_sys;
    const SysCount& ns = out.node_sys;
    const double writes = static_cast<double>(cs.writes + ns.writes);
    row.set("net.nodes_seen", static_cast<double>(out.nodes_seen));
    row.set("net.node_cpu_us_per_inc", kids.cpu_s * 1e6 / incs);
    row.set("net.node_voluntary_switches_per_kinc",
            static_cast<double>(kids.voluntary) * 1e3 / incs);
    row.set("net.write_syscalls_per_inc", writes / incs);
    row.set("net.read_syscalls_per_inc",
            static_cast<double>(cs.reads + ns.reads) / incs);
    row.set("net.bytes_per_write",
            writes > 0 ? static_cast<double>(cs.bytes_written + ns.bytes_written) /
                             writes
                       : 0.0);
    if (!o.trace_out.empty()) tr.write(o.trace_out);
  }
  row.print();
  return 0;
}
