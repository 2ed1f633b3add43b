// Causal message tracing.
//
// The paper visualizes an inc operation as a DAG of messages (Figure 1)
// and linearizes it into a communication list (Figure 2). The trace
// records, for every network message, which delivery caused its send —
// exactly the arcs of that DAG — so the analysis layer can reconstruct
// the DAG, the list, and the participant sets I_p.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace dcnt {

/// Index into Trace::records(). -1 = the send was an operation initiation
/// (the source node of the paper's DAG).
using RecordId = std::int64_t;
inline constexpr RecordId kNoRecord = -1;

struct MessageRecord {
  RecordId id{kNoRecord};
  RecordId parent{kNoRecord};  ///< delivery that caused this send
  ProcessorId src{kNoProcessor};
  ProcessorId dst{kNoProcessor};
  std::int32_t tag{0};
  OpId op{kNoOp};
  SimTime send_time{0};
  SimTime deliver_time{0};
  std::size_t words{0};
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a send of `msg` over the hop src -> dst (a routed message's
  /// hops differ from its endpoints); the record takes msg's tag, op
  /// and size. Returns its RecordId (kNoRecord when disabled).
  RecordId on_send(RecordId parent, ProcessorId src, ProcessorId dst,
                   const struct Message& msg, SimTime send_time);
  void on_deliver(RecordId id, SimTime deliver_time);

  const std::vector<MessageRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

 private:
  bool enabled_{false};
  std::vector<MessageRecord> records_;
};

}  // namespace dcnt
