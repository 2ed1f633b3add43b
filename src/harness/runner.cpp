#include "harness/runner.hpp"

#include "harness/result.hpp"
#include "support/check.hpp"

namespace dcnt {

namespace {

/// The simulator as a LoadPort. Op ids count from the run's first op
/// (the driver sizes its recorder by them). The completion hook only
/// collects: a reissue must not start inside a handler, so wait hands
/// the completions over after the delivery that produced them.
class SimPort final : public traffic::LoadPort {
 public:
  SimPort(Simulator& sim, const std::vector<ProcessorId>& order,
          std::size_t warmup, const RunOptions& options)
      : sim_(sim), order_(order), warmup_(warmup), options_(options),
        first_(static_cast<OpId>(sim.ops_started())) {
    sim_.set_completion([this](OpId op, Value value) {
      done_.push_back({op - first_, value});
    });
  }
  ~SimPort() { sim_.set_completion(nullptr); }

  traffic::LoadDriver* driver{nullptr};

  OpId issue(std::size_t entry) override {
    return sim_.begin_inc(
               order_[traffic::schedule_slot(entry, warmup_, order_.size())]) -
           first_;
  }

  /// Steps until an op completed (one that completed inside its own
  /// begin_inc is already waiting), then hands the driver every
  /// completion so far as one span. Its reissues that complete at once
  /// land in the emptied done_ and go with the next wait.
  void wait(std::int64_t /*until_ns*/) override {
    for (std::int64_t steps = 1; done_.empty(); ++steps) {
      DCNT_CHECK_MSG(sim_.step(), "inc did not complete at quiescence");
      DCNT_CHECK_MSG(steps <= options_.max_steps_per_op,
                     "protocol failed to quiesce within max_steps");
    }
    span_.swap(done_);
    driver->on_complete(span_);
    span_.clear();
  }

  void quiesce() override {
    sim_.run_until_quiescent(options_.max_steps_per_op);
    if (options_.check_each_op) {
      sim_.counter().check_quiescent(sim_.ops_completed());
    }
  }

  void reset_metrics() override { sim_.mutable_metrics().reset(); }

 private:
  Simulator& sim_;
  const std::vector<ProcessorId>& order_;
  const std::size_t warmup_;
  const RunOptions& options_;
  const OpId first_;
  std::vector<Completion> done_;
  std::vector<Completion> span_;
};

}  // namespace

RunResult run_load(Simulator& sim, const std::vector<ProcessorId>& order,
                   const traffic::DriverOptions& load, std::size_t unit,
                   const RunOptions& options) {
  DCNT_CHECK_MSG(load.shape.rate <= 0.0 && load.duration_s <= 0.0,
                 "the simulator runs closed loops without a duration cut");
  const auto first = static_cast<OpId>(sim.ops_started());
  if (!order.empty()) {
    SimPort port(sim, order, load.warmup, options);
    traffic::LoadDriver driver(port, load, order.size(), unit);
    port.driver = &driver;
    driver.run();
  }
  RunResult res;
  for (OpId op = first; op < static_cast<OpId>(sim.ops_started()); ++op) {
    const auto result = sim.result(op);
    DCNT_CHECK_MSG(result.has_value(), "inc did not complete at quiescence");
    res.values.push_back(*result);
  }
  HarnessResult check;
  verify_values(check, res.values, {}, first);
  res.values_ok = check.values_ok;
  res.max_load = sim.metrics().max_load();
  res.bottleneck = sim.metrics().bottleneck();
  res.total_messages = sim.metrics().total_messages();
  // Every message is sent once and received once.
  res.mean_load = 2.0 * static_cast<double>(res.total_messages) /
                  static_cast<double>(sim.num_processors());
  return res;
}

RunResult run_sequential(Simulator& sim, const std::vector<ProcessorId>& order,
                         const RunOptions& options) {
  const auto first = static_cast<Value>(sim.ops_started());
  traffic::DriverOptions load;
  load.quiesce_between_ops = true;
  RunResult res = run_load(sim, order, load, 1, options);
  for (std::size_t i = 0; i < res.values.size(); ++i) {
    DCNT_CHECK_MSG(res.values[i] == first + static_cast<Value>(i),
                   "sequential inc returned a wrong value");
  }
  return res;
}

RunResult run_concurrent(Simulator& sim, const std::vector<ProcessorId>& order,
                         std::size_t width, const RunOptions& options) {
  DCNT_CHECK(width > 0);
  traffic::DriverOptions load;
  load.quiesce_between_ops = true;
  return run_load(sim, order, load, width, options);
}

std::vector<CounterOpRecord> counter_history(const Simulator& sim) {
  std::vector<CounterOpRecord> history;
  history.reserve(sim.ops_started());
  for (OpId op = 0; op < static_cast<OpId>(sim.ops_started()); ++op) {
    const auto result = sim.result(op);
    DCNT_CHECK_MSG(result.has_value(), "history has an incomplete op");
    CounterOpRecord rec;
    rec.op = op;
    rec.invoked = sim.op_invoked_at(op);
    rec.responded = sim.op_responded_at(op);
    rec.value = *result;
    history.push_back(rec);
  }
  return history;
}

}  // namespace dcnt
