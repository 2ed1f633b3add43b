// Fundamental identifier types shared across the simulator and all
// protocols.
//
// Paper model (§2): processors are identified 1..n; we use 0..n-1
// internally and translate only in human-facing output.
#pragma once

#include <cstdint>

namespace dcnt {

/// Processor index in [0, n). -1 means "none" (e.g. the root's parent).
using ProcessorId = std::int32_t;

/// Identifier of one counting operation (assigned by the simulator in
/// initiation order). kNoOp marks protocol-internal traffic that is not
/// attributable to a single operation (none in the paper's protocols,
/// but supported).
using OpId = std::int64_t;

/// Simulated time. Message delays are positive integers; the absolute
/// scale is meaningless — only ordering matters to the protocols.
using SimTime = std::int64_t;

/// Counter values.
using Value = std::int64_t;

/// Identifier of one named counter in the multi-key service fabric
/// (src/service/). kNoKey marks single-counter traffic — everything
/// predating the fabric — which keeps the classic paths byte-identical.
using KeyId = std::int64_t;

inline constexpr ProcessorId kNoProcessor = -1;
inline constexpr OpId kNoOp = -1;
inline constexpr KeyId kNoKey = -1;

/// One finished operation and the value it returned: what a substrate
/// reports to its load driver, and one entry of the wire's
/// kCompleteBatch frame.
struct Completion {
  OpId op{kNoOp};
  Value value{0};
};

}  // namespace dcnt
