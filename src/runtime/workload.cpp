#include "runtime/workload.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "support/check.hpp"

namespace dcnt {

namespace {

class RuntimePort final : public traffic::LoadPort {
 public:
  RuntimePort(ThreadedRuntime& rt, const std::vector<ProcessorId>& initiators,
              const WorkloadOptions& options, std::vector<KeyId>& key_of_op)
      : rt_(rt), initiators_(initiators), options_(options),
        key_of_op_(key_of_op) {}

  OpId issue(std::size_t entry) override {
    const std::size_t i =
        traffic::schedule_slot(entry, options_.warmup, initiators_.size());
    if (options_.keys.empty()) return rt_.begin_inc(initiators_[i]);
    const KeyId key = options_.keys[i];
    const OpId op = rt_.begin_op(initiators_[i], {key});
    key_of_op_[static_cast<std::size_t>(op)] = key;
    return op;
  }

  void wait(std::int64_t until_ns) override {
    // kForever is steady_clock's own time_point::max().
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock,
                   std::chrono::steady_clock::time_point(
                       std::chrono::nanoseconds(until_ns)),
                   [&] { return woken_; });
    woken_ = false;
  }

  /// Completion side: the driver asked for its thread.
  void wake() {
    std::lock_guard<std::mutex> lock(mu_);
    woken_ = true;
    cv_.notify_all();
  }

  void quiesce() override {
    rt_.wait_quiescent();
    if (options_.quiesce_between_ops) {
      rt_.protocol().check_quiescent(rt_.ops_started());
    }
  }
  void reset_metrics() override { rt_.reset_metrics(); }

 private:
  ThreadedRuntime& rt_;
  const std::vector<ProcessorId>& initiators_;
  const WorkloadOptions& options_;
  std::vector<KeyId>& key_of_op_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool woken_{false};
};

}  // namespace

WorkloadResult run_workload(ThreadedRuntime& rt,
                            const std::vector<ProcessorId>& initiators,
                            const WorkloadOptions& options) {
  const std::size_t ops = initiators.size();
  DCNT_CHECK_MSG(rt.ops_started() == 0, "run_workload needs a fresh runtime");
  DCNT_CHECK_MSG(options.keys.empty() || options.keys.size() == ops,
                 "keys must pair 1:1 with initiators");
  WorkloadResult result;
  if (!options.keys.empty()) {
    result.key_of_op.assign(options.warmup + ops, kNoKey);
  }

  RuntimePort port(rt, initiators, options, result.key_of_op);
  traffic::LoadDriver driver(port, options, ops);
  // Spans of one: a completion's reissue goes out inside its own
  // handler, so the generation order (and the tree's message counts)
  // stays what a per-op driver produced.
  rt.set_completion([&](OpId op, Value value) {
    const Completion done{op, value};
    if (driver.on_complete({&done, 1})) port.wake();
  });
  static_cast<traffic::DriverResult&>(result) = driver.run();
  rt.set_completion(nullptr);
  return result;
}

}  // namespace dcnt
