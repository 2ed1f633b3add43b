// The paper's §4 machinery, generalized.
//
// §2 notes that the Hot Spot Lemma — and with it the whole lower bound
// — applies to "the family of all distributed data structures in which
// an operation depends on the operation that immediately precedes it.
// Examples for such data structures are a bit that can be accessed and
// flipped, and a priority queue." Dually, the §4 *upper-bound*
// construction only uses the counter in one place: the root applies an
// operation to a small piece of state and replies. TreeService factors
// the construction so that any such sequential object can ride the
// communication tree and inherit the O(k) bottleneck:
//
//   * TreeCounter       — root state {value};           the paper's §4
//   * TreeFlipBit       — root state {bit};             §2's example
//   * TreePriorityQueue — root state = a binary heap;   §2's example,
//     with a caveat the stats expose: handing the root role over ships
//     the whole heap, so the paper's O(log n)-bits-per-message property
//     survives only for constant-size root state
//     (stats().max_handover_words makes the difference measurable).
//
// Protocol recap (see tree_counter.hpp for the counter-specific story):
// leaves forward operations up a fan-out-k tree; the root incumbent
// applies them; inner nodes age by two per forwarded message and one
// per notification, retire at the (configurable, default 4k) threshold,
// handing their role to the next processor of their disjoint id pool
// with k+1 short messages and notifying parent and children with k+1
// more. Misdirected messages are forwarded by ex-incumbents; messages
// that beat their own handover are stashed until it commits. All extra
// messages are counted. A combinable service (the counter) packs the
// incs that reach a non-root role between two of its dry points (a
// delay-0 Context::send_local) into one climb of at most kMaxCombine,
// and the root answers every origin directly, so overlapping incs stop
// multiplying the messages in flight to a role.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/tree_layout.hpp"
#include "sim/protocol.hpp"
#include "support/relaxed.hpp"

namespace dcnt {

struct TreeServiceParams {
  int k{2};
  /// Age at which a node retires. 0 selects the default 4k. Use
  /// std::numeric_limits<int64_t>::max() for the no-retirement ablation.
  /// Thresholds <= k+1 are unstable: each retirement ages its k+1
  /// neighbours by one message, so the cascade reproduces itself
  /// (a "retirement storm") and the system never quiesces.
  std::int64_t age_threshold{0};
  /// If true, the k+1 handover messages count toward the new incumbent's
  /// starting age (the paper's accounting excludes them; ablatable).
  bool count_handover_in_age{false};
  /// Self-healing mode (DESIGN.md §8): per-origin operation serials with
  /// an exactly-once journal at the root, primary-backup replication of
  /// the root role to its pool successor (replies are write-ahead gated
  /// on the backup ack), crash handover driven by transport suspicion
  /// (Protocol::on_peer_unreachable), and end-to-end operation retry at
  /// the origin. Changes the wire format of Inc / Value / the root's
  /// TakeOver. Off by default; off means bit-identical behavior to the
  /// paper's fault-free protocol.
  bool self_healing{false};
  /// Origin-side end-to-end retry (self_healing only): delay before the
  /// first re-send of an unanswered operation.
  SimTime inc_retry_timeout{64};
  /// Backoff cap for the origin retry timer (doubles per attempt).
  static constexpr SimTime kIncRetryMaxTimeout = 1024;
  /// Attempts (1 original + retries) before the origin gives up — which
  /// aborts loudly, since a counter op must not vanish.
  static constexpr int kIncRetryLimit = 40;
};

/// Housekeeping counters; exposed for lemma audits and benches.
/// RelaxedCounter because these are bumped from handlers at arbitrary
/// processors — under the threaded runtime those run on different
/// shards, and a plain int64 would be a data race (the counters carry
/// no synchronization, so relaxed ordering is exact; see
/// support/relaxed.hpp).
struct TreeServiceStats {
  RelaxedCounter retirements_total{0};
  std::vector<RelaxedCounter> retirements_by_level;
  /// A pool ran out and wrapped around — never happens for the paper's
  /// workload with the default threshold (asserted in tests).
  RelaxedCounter pool_wraps{0};
  /// Misdirected messages re-sent to a role's successor.
  RelaxedCounter forwarded_messages{0};
  /// Messages that arrived for a role before its handover did.
  RelaxedCounter orphan_stashes{0};
  /// Retirements whose pool has size 1 (successor == retiree).
  RelaxedCounter self_handovers{0};
  /// Largest payload (in words) of any handover message — O(1) for the
  /// counter and the flip bit, Theta(queue size) for the priority queue.
  RelaxedCounter max_handover_words{0};
  // Self-healing counters (faults plane; all zero in the fault-free
  // model and with self_healing off).
  /// Crash-triggered promotions: a suspected incumbent was replaced by a
  /// pool successor without a handover from the incumbent itself.
  RelaxedCounter crash_handovers{0};
  /// End-to-end operation re-sends by origins (distinct from the
  /// transport's per-message retransmissions in RetryStats).
  RelaxedCounter retransmissions{0};
  /// Origin retry timers that fired and found their op still unanswered.
  RelaxedCounter timeouts_fired{0};
  /// Root-state backups shipped to the pool successor.
  RelaxedCounter backups_sent{0};
  /// Retried operations answered from the root's journal instead of
  /// being applied a second time (the exactly-once dedup hits).
  RelaxedCounter replayed_replies{0};
  /// Promote requests ignored because the target already held, was
  /// receiving, or had already passed on the role.
  RelaxedCounter promotes_ignored{0};
};

/// One retirement, for the Retirement / Number-of-Retirements Lemma
/// audits (analysis/audit.hpp).
struct RetirementEvent {
  OpId op{kNoOp};
  NodeId node{kNoNode};
  int level{0};
  ProcessorId old_pid{kNoProcessor};
  ProcessorId new_pid{kNoProcessor};
};

class TreeService : public CounterProtocol {
 public:
  explicit TreeService(TreeServiceParams params);

  // Message tags (public so traces can be decoded by the analysis layer).
  // Self-healing mode inserts a per-origin serial: Inc becomes
  // [origin, target_node, serial, op_args...] and Value [value, serial].
  static constexpr std::int32_t kTagInc = 1;       ///< [origin, target_node, op_args...]
  static constexpr std::int32_t kTagValue = 2;     ///< [value]
  static constexpr std::int32_t kTagTakeOver = 3;  ///< [node, parent_pid, root_state...]; healing root: [0, parent_pid, bseq, J, (origin,serial,value)*J, G, (origin,serial,value,op)*G, root_state...]
  static constexpr std::int32_t kTagChildInfo = 4; ///< [node, child_idx, child_pid]
  static constexpr std::int32_t kTagNewId = 5;     ///< [target_node, retiring_node, new_pid]; target -1 = "you as leaf"
  // Self-healing tags (DESIGN.md §8; never sent with self_healing off).
  static constexpr std::int32_t kTagBackup = 6;    ///< [0, seq, J, (origin,serial,value)*J, child_pids*k, root_state...]
  static constexpr std::int32_t kTagBackupAck = 7; ///< [0, seq]
  static constexpr std::int32_t kTagPromote = 8;   ///< [node, dead_pid]
  static constexpr std::int32_t kTagIncRetry = 9;  ///< local [serial]: origin retry timer
  // Combining tags (combinable() services only; see PROTOCOL.md).
  static constexpr std::int32_t kTagMulti = 10;  ///< [origin_1, target_node, op_2*n+origin_2, (op_3*n+origin_3)]; op_1 in msg.op
  static constexpr std::int32_t kTagFlush = 11;  ///< local, delay 0 [node]: the role's dry point
  /// Most incs one climb carries: one kTagMulti is then at most 4 words,
  /// which still fits MessageArgs::kInline behind the reliable
  /// transport's 2-word envelope.
  static constexpr int kMaxCombine = 3;

  // CounterProtocol:
  std::size_t num_processors() const override;
  void start_inc(Context& ctx, ProcessorId origin, OpId op) override;
  void start_op(Context& ctx, ProcessorId origin, OpId op,
                std::span<const std::int64_t> args) override;
  void on_message(Context& ctx, const Message& msg) override;
  void on_peer_unreachable(Context& ctx, ProcessorId self,
                           ProcessorId peer) override;
  void check_quiescent(std::size_t ops_completed) const override;
  /// The fault-free tree honours the state-slicing invariant at the
  /// memory level (each role/stash/forward lives in its holder's
  /// ProcState; incumbent_[node] writes are ordered by the handover
  /// message chain; stats are RelaxedCounters). Healing mode relies on
  /// transport timeouts and suspicion that the runtime does not model,
  /// so it stays simulator-only.
  bool shard_safe() const override { return !self_healing_; }
  /// Sharded execution disables the retirement log: it is an optional
  /// audit aid (analysis/audit.hpp), and a global append vector cannot
  /// be written from concurrent handlers.
  void on_shard_start(std::size_t workers) override;

  // Introspection.
  const TreeLayout& layout() const { return layout_; }
  std::int64_t age_threshold() const { return threshold_; }
  const TreeServiceStats& stats() const { return stats_; }
  const std::vector<RetirementEvent>& retirement_log() const {
    return retirement_log_;
  }
  /// Current incumbent of an inner node (committed view).
  ProcessorId incumbent(NodeId node) const;
  /// Exhaustive structural invariants; O(n) — for tests, not the hot path.
  void deep_check() const;

 protected:
  /// The sequential object living at the root. Called once per
  /// operation, under the root incumbent; must return the reply value.
  virtual Value root_apply(std::vector<std::int64_t>& state,
                           std::span<const std::int64_t> op_args) = 0;
  /// Root state before any operation.
  virtual std::vector<std::int64_t> initial_root_state() const = 0;
  /// True when operations carry no arguments, so that the incs reaching
  /// a role between two of its dry points may climb as one message
  /// (kTagMulti). Read once, by finish_init(). Default: no combining.
  virtual bool combinable() const { return false; }
  /// Service-specific quiescent invariant on the root state (default:
  /// none).
  virtual void check_root_state(std::size_t ops_completed,
                                const std::vector<std::int64_t>& state) const {
    (void)ops_completed;
    (void)state;
  }

  /// Committed root state; requires quiescence. For subclass accessors.
  const std::vector<std::int64_t>& root_state() const;

  /// Must be called at the end of every concrete subclass constructor:
  /// installs initial_root_state() at the root incumbent (virtual
  /// dispatch is not available in the base constructor).
  void finish_init();

 private:
  /// One applied operation remembered for exactly-once dedup: the last
  /// serial each origin got through the root, with its reply value.
  /// Per-origin serials are sequential (one outstanding op per origin),
  /// so one entry per origin suffices. Kept sorted by origin.
  struct JournalEntry {
    ProcessorId origin{kNoProcessor};
    std::int64_t serial{-1};
    Value value{0};
  };
  /// A reply the root has applied but not yet released: write-ahead
  /// gating — the Value goes out only once backup `backup_seq` is acked,
  /// so a promoted successor can never hand out a second, different
  /// value for the same serial.
  struct GatedReply {
    std::int64_t backup_seq{-1};
    ProcessorId origin{kNoProcessor};
    std::int64_t serial{-1};
    Value value{0};
    OpId op{kNoOp};
  };
  /// An inc waiting at a non-root role for the role's next flush.
  struct BufferedInc {
    ProcessorId origin{kNoProcessor};
    OpId op{kNoOp};
  };
  /// State of one inner-node role held by a processor.
  struct Role {
    NodeId node{kNoNode};
    ProcessorId parent_pid{kNoProcessor};  // kNoProcessor for the root
    std::vector<ProcessorId> child_pids;   // inner incumbents or leaf ids
    std::int64_t age{0};
    // Combining (non-root roles of a combinable service): incs received
    // since the last flush, and whether a kTagFlush is pending.
    std::array<BufferedInc, kMaxCombine> buffer{};
    int buffered{0};
    bool flush_armed{false};
    std::vector<std::int64_t> state;  // root only
    // Self-healing root bookkeeping (empty unless node == 0 and
    // self_healing is on).
    std::vector<JournalEntry> journal;
    std::vector<GatedReply> gated;
    std::int64_t backup_next_seq{0};
    /// Backup receiver; kNoProcessor = the default pool successor.
    /// Re-targeted past a suspect when the successor itself dies.
    ProcessorId backup_target{kNoProcessor};
  };
  /// Handover being assembled at the successor: the role it will hold
  /// (node, links, state and, for the healing root, its exactly-once
  /// machinery) as the handover messages fill it in.
  struct PendingTakeover {
    Role role;
    bool has_main{false};  // kTagTakeOver arrived
    int children_received{0};
  };
  struct ProcState {
    /// Incumbent of this leaf's parent node, as this leaf believes.
    ProcessorId leaf_parent_pid{kNoProcessor};
    std::vector<Role> roles;
    std::vector<PendingTakeover> pending;
    /// node -> successor, for roles this processor gave up.
    std::vector<std::pair<NodeId, ProcessorId>> forwards;
    /// Messages for roles we do not (yet) hold.
    std::vector<Message> stash;
    // --- Self-healing state ---
    /// Next operation serial this origin will issue.
    std::int64_t next_serial{0};
    /// The one outstanding op (healing mode is sequential per origin);
    /// -1 = none.
    std::int64_t out_serial{-1};
    std::vector<std::int64_t> out_args;
    int out_attempts{0};
    SimTime out_timeout{0};
    /// Peers this processor has declared unreachable (f = 1 keeps this
    /// tiny); pool walks skip them.
    std::vector<ProcessorId> suspects;
    /// Shadow of the root role (its state, child_pids and journal),
    /// maintained from kTagBackup messages while this processor is the
    /// root's backup target. seq -1 = none.
    std::int64_t shadow_seq{-1};
    Role shadow;
  };

  Role* find_role(ProcState& ps, NodeId node);
  const Role* find_role(const ProcState& ps, NodeId node) const;
  PendingTakeover* find_pending(ProcState& ps, NodeId node);
  ProcessorId* find_forward(ProcState& ps, NodeId node);

  void handle_role_message(Context& ctx, ProcessorId self, Role& role,
                           const Message& msg);
  void route_node_message(Context& ctx, ProcessorId self, NodeId target,
                          const Message& msg);
  void bump_age(Context& ctx, ProcessorId self, Role& role,
                std::int64_t amount, OpId op);
  /// The root applies one op and answers its origin directly.
  void reply_from_root(Context& ctx, ProcessorId self, Role& role,
                       ProcessorId origin, OpId op,
                       std::span<const std::int64_t> op_args);
  /// Adds one inc to a non-root role's buffer: flushes when it is full,
  /// else arms the role's dry-point flush.
  void buffer_inc(Context& ctx, ProcessorId self, Role& role,
                  ProcessorId origin, OpId op);
  /// Sends the buffered incs up as one kTagInc or kTagMulti.
  void flush_role(Context& ctx, ProcessorId self, Role& role);
  void retire(Context& ctx, ProcessorId self, NodeId node, OpId op);
  /// Tells role's parent (none at the root) and children: succ holds it.
  void announce_succession(Context& ctx, ProcessorId self, const Role& role,
                           ProcessorId succ);
  /// The initial layout's children of `node`: leaf ids or incumbents.
  std::vector<ProcessorId> initial_child_pids(NodeId node) const;
  void commit_takeover(Context& ctx, ProcessorId self, Role role);
  void drain_stash(Context& ctx, ProcessorId self, NodeId node);

  // Self-healing helpers (all no-ops / unreachable with healing off).
  JournalEntry* find_journal(Role& role, ProcessorId origin);
  /// The journal in a root TakeOver or backup: [n][n x (origin, serial,
  /// value)]; read_journal decodes it at args[i], advancing i past it.
  static void append_journal(MessageArgs& args,
                             const std::vector<JournalEntry>& journal);
  static void read_journal(const MessageArgs& args, std::size_t& i,
                           std::vector<JournalEntry>& journal);
  void handle_root_op(Context& ctx, ProcessorId self, Role& role,
                      const Message& msg);
  void handle_backup(Context& ctx, ProcessorId self, const Message& msg);
  void handle_backup_ack(Context& ctx, ProcessorId self, Role& role,
                         const Message& msg);
  void handle_promote(Context& ctx, ProcessorId self, const Message& msg);
  void handle_inc_retry(Context& ctx, ProcessorId self, const Message& msg);
  void send_backup(Context& ctx, ProcessorId self, Role& role,
                   std::int64_t seq);
  ProcessorId backup_target_of(const Role& role, ProcessorId self) const;
  /// Best local guess at a node's incumbent: ourselves if we hold the
  /// role, else the first unsuspected pool member from the initial pid.
  ProcessorId believed_incumbent(const ProcState& ps, NodeId node,
                                 ProcessorId self) const;
  /// First pool member after `from` (inclusive) not suspected by `ps`;
  /// gives up (returns `from`) after a full pool lap.
  ProcessorId next_unsuspected(const ProcState& ps, NodeId node,
                               ProcessorId from) const;

  TreeLayout layout_;
  std::int64_t threshold_;
  bool count_handover_in_age_;
  bool self_healing_;
  /// combinable() && !self_healing_, fixed by finish_init().
  bool combine_{false};
  SimTime inc_retry_timeout_;
  std::vector<ProcState> procs_;
  /// Committed incumbent per inner node (kNoProcessor while in handover).
  std::vector<ProcessorId> incumbent_;
  TreeServiceStats stats_;
  std::vector<RetirementEvent> retirement_log_;
  // O(1) quiescence counters (RelaxedCounter: bumped from handlers at
  // arbitrary processors, read only at quiescence).
  RelaxedCounter live_pending_{0};
  RelaxedCounter live_stash_{0};
  /// Incs buffered in every role's combining buffer.
  RelaxedCounter live_buffered_{0};
  /// True once on_shard_start ran: handlers may execute concurrently,
  /// so the (optional) retirement log stops recording.
  bool shard_mode_{false};
  bool initialized_{false};
};

}  // namespace dcnt
