#include "core/tree_service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/check.hpp"

namespace dcnt {

namespace {
constexpr NodeId kLeafTarget = -1;  // kTagNewId addressed to a leaf
}

TreeService::TreeService(TreeServiceParams params)
    : layout_(params.k),
      threshold_(params.age_threshold == 0
                     ? 4 * static_cast<std::int64_t>(params.k)
                     : params.age_threshold),
      count_handover_in_age_(params.count_handover_in_age),
      self_healing_(params.self_healing),
      inc_retry_timeout_(params.inc_retry_timeout) {
  DCNT_CHECK(threshold_ > 0);
  if (self_healing_) {
    DCNT_CHECK(inc_retry_timeout_ >= 1);
    DCNT_CHECK(TreeServiceParams::kIncRetryMaxTimeout >= inc_retry_timeout_);
  }
  const std::int64_t n = layout_.n();
  procs_.resize(static_cast<std::size_t>(n));
  incumbent_.assign(static_cast<std::size_t>(layout_.num_inner()),
                    kNoProcessor);
  stats_.retirements_by_level.assign(static_cast<std::size_t>(layout_.k()) + 1,
                                     0);

  for (ProcessorId p = 0; p < n; ++p) {
    procs_[static_cast<std::size_t>(p)].leaf_parent_pid =
        layout_.initial_pid(layout_.leaf_parent(p));
  }
  for (NodeId node = 0; node < layout_.num_inner(); ++node) {
    const ProcessorId pid = layout_.initial_pid(node);
    Role role;
    role.node = node;
    const NodeId up = layout_.parent(node);
    role.parent_pid = up == kNoNode ? kNoProcessor : layout_.initial_pid(up);
    role.child_pids = initial_child_pids(node);
    procs_[static_cast<std::size_t>(pid)].roles.push_back(std::move(role));
    incumbent_[static_cast<std::size_t>(node)] = pid;
  }
}

std::vector<ProcessorId> TreeService::initial_child_pids(NodeId node) const {
  std::vector<ProcessorId> pids(static_cast<std::size_t>(layout_.k()));
  for (int c = 0; c < layout_.k(); ++c) {
    pids[static_cast<std::size_t>(c)] =
        layout_.children_are_leaves(node)
            ? layout_.leaf_child(node, c)
            : layout_.initial_pid(layout_.child(node, c));
  }
  return pids;
}

void TreeService::append_journal(MessageArgs& args,
                                 const std::vector<JournalEntry>& journal) {
  args.push_back(static_cast<std::int64_t>(journal.size()));
  for (const auto& e : journal) {
    args.push_back(e.origin);
    args.push_back(e.serial);
    args.push_back(e.value);
  }
}

void TreeService::read_journal(const MessageArgs& args, std::size_t& i,
                               std::vector<JournalEntry>& journal) {
  journal.resize(static_cast<std::size_t>(args.at(i++)));
  for (auto& e : journal) {
    e.origin = static_cast<ProcessorId>(args.at(i++));
    e.serial = args.at(i++);
    e.value = args.at(i++);
  }
}

void TreeService::finish_init() {
  DCNT_CHECK(!initialized_);
  ProcState& root_ps = procs_[static_cast<std::size_t>(incumbent_[0])];
  Role* root = find_role(root_ps, 0);
  DCNT_CHECK(root != nullptr);
  root->state = initial_root_state();
  combine_ = combinable() && !self_healing_;
  initialized_ = true;
}

std::size_t TreeService::num_processors() const {
  return static_cast<std::size_t>(layout_.n());
}

TreeService::Role* TreeService::find_role(ProcState& ps, NodeId node) {
  for (auto& r : ps.roles) {
    if (r.node == node) return &r;
  }
  return nullptr;
}

const TreeService::Role* TreeService::find_role(const ProcState& ps,
                                                NodeId node) const {
  for (const auto& r : ps.roles) {
    if (r.node == node) return &r;
  }
  return nullptr;
}

TreeService::PendingTakeover* TreeService::find_pending(ProcState& ps,
                                                        NodeId node) {
  for (auto& pt : ps.pending) {
    if (pt.role.node == node) return &pt;
  }
  return nullptr;
}

ProcessorId* TreeService::find_forward(ProcState& ps, NodeId node) {
  for (auto& f : ps.forwards) {
    if (f.first == node) return &f.second;
  }
  return nullptr;
}

void TreeService::start_inc(Context& ctx, ProcessorId origin, OpId op) {
  start_op(ctx, origin, op, {});
}

void TreeService::start_op(Context& ctx, ProcessorId origin, OpId /*op*/,
                           std::span<const std::int64_t> args) {
  DCNT_CHECK_MSG(initialized_,
                 "subclass constructor must call finish_init()");
  auto& ps = procs_[static_cast<std::size_t>(origin)];
  Message m;
  m.src = origin;
  m.dst = ps.leaf_parent_pid;
  m.tag = kTagInc;
  m.args = {origin, layout_.leaf_parent(origin)};
  if (self_healing_) {
    DCNT_CHECK_MSG(ps.out_serial < 0,
                   "self-healing mode allows one outstanding op per origin");
    const std::int64_t serial = ps.next_serial++;
    m.args.push_back(serial);
    ps.out_serial = serial;
    ps.out_args.assign(args.begin(), args.end());
    ps.out_attempts = 1;
    ps.out_timeout = inc_retry_timeout_;
    ctx.send_local(origin, kTagIncRetry, {serial}, ps.out_timeout);
  }
  m.args.insert(m.args.end(), args.begin(), args.end());
  ctx.send(std::move(m));
}

void TreeService::on_message(Context& ctx, const Message& msg) {
  const ProcessorId self = msg.dst;
  auto& ps = procs_[static_cast<std::size_t>(self)];
  switch (msg.tag) {
    case kTagValue:
      if (self_healing_) {
        // A replayed or late reply for an op we already completed is
        // dropped by serial; only the outstanding op may complete.
        if (ps.out_serial != msg.args.at(1)) return;
        ps.out_serial = -1;
        ps.out_args.clear();
      }
      ctx.complete(msg.op, msg.args.at(0));
      return;

    case kTagInc:
    case kTagMulti:
      route_node_message(ctx, self, msg.args.at(1), msg);
      return;

    case kTagFlush:
      // The role's dry point. A role given up since the flush was armed
      // was flushed by retire(), so nothing waits for this one.
      if (Role* role = find_role(ps, msg.args.at(0))) {
        role->flush_armed = false;
        flush_role(ctx, self, *role);
      }
      return;

    case kTagNewId: {
      const NodeId target = msg.args.at(0);
      if (target == kLeafTarget) {
        // This processor, in its leaf capacity, learns its parent node's
        // new incumbent.
        DCNT_CHECK(layout_.leaf_parent(self) == msg.args.at(1));
        ps.leaf_parent_pid = static_cast<ProcessorId>(msg.args.at(2));
        return;
      }
      route_node_message(ctx, self, target, msg);
      return;
    }

    case kTagTakeOver:
    case kTagChildInfo: {
      const NodeId node = msg.args.at(0);
      PendingTakeover* pt = find_pending(ps, node);
      if (pt == nullptr) {
        PendingTakeover fresh;
        fresh.role.node = node;
        fresh.role.child_pids.assign(static_cast<std::size_t>(layout_.k()),
                                     kNoProcessor);
        ps.pending.push_back(std::move(fresh));
        ++live_pending_;
        pt = &ps.pending.back();
      }
      if (msg.tag == kTagTakeOver) {
        DCNT_CHECK(!pt->has_main);
        pt->has_main = true;
        Role& role = pt->role;
        role.parent_pid = static_cast<ProcessorId>(msg.args.at(1));
        if (self_healing_ && node == 0) {
          // Root handover ships the exactly-once machinery too.
          std::size_t i = 2;
          role.backup_next_seq = msg.args.at(i++);
          read_journal(msg.args, i, role.journal);
          const auto gn = static_cast<std::size_t>(msg.args.at(i++));
          role.gated.resize(gn);
          for (auto& g : role.gated) {
            g.origin = static_cast<ProcessorId>(msg.args.at(i++));
            g.serial = msg.args.at(i++);
            g.value = msg.args.at(i++);
            g.op = msg.args.at(i++);
          }
          role.state.assign(msg.args.begin() + static_cast<std::ptrdiff_t>(i),
                            msg.args.end());
        } else {
          role.state.assign(msg.args.begin() + 2, msg.args.end());
        }
      } else {
        const auto idx = static_cast<std::size_t>(msg.args.at(1));
        std::vector<ProcessorId>& child_pids = pt->role.child_pids;
        DCNT_CHECK(child_pids.at(idx) == kNoProcessor);
        child_pids[idx] = static_cast<ProcessorId>(msg.args.at(2));
        ++pt->children_received;
      }
      if (pt->has_main && pt->children_received == layout_.k()) {
        Role done = std::move(pt->role);
        ps.pending.erase(ps.pending.begin() + (pt - ps.pending.data()));
        --live_pending_;
        commit_takeover(ctx, self, std::move(done));
      }
      return;
    }

    case kTagBackup:
      handle_backup(ctx, self, msg);
      return;

    case kTagBackupAck:
      // Addressed to the root *role*, wherever it lives now.
      route_node_message(ctx, self, msg.args.at(0), msg);
      return;

    case kTagPromote:
      handle_promote(ctx, self, msg);
      return;

    case kTagIncRetry:
      handle_inc_retry(ctx, self, msg);
      return;

    default:
      DCNT_CHECK_MSG(false, "unknown message tag");
  }
}

void TreeService::route_node_message(Context& ctx, ProcessorId self,
                                     NodeId target, const Message& msg) {
  auto& ps = procs_[static_cast<std::size_t>(self)];
  if (Role* role = find_role(ps, target)) {
    handle_role_message(ctx, self, *role, msg);
    return;
  }
  if (find_pending(ps, target) != nullptr) {
    ps.stash.push_back(msg);
    ++live_stash_;
    return;
  }
  if (ProcessorId* succ = find_forward(ps, target)) {
    // We retired from this role; pass the message along to the successor
    // (the "constant number of extra messages" handshake of the paper).
    Message fwd = msg;
    fwd.src = self;
    fwd.dst = *succ;
    ++stats_.forwarded_messages;
    ctx.send(std::move(fwd));
    return;
  }
  // We are about to become this node's incumbent but the handover has
  // not fully arrived yet; park the message until it does.
  ps.stash.push_back(msg);
  ++live_stash_;
  ++stats_.orphan_stashes;
}

void TreeService::handle_role_message(Context& ctx, ProcessorId self,
                                      Role& role, const Message& msg) {
  if (msg.tag == kTagBackupAck) {
    DCNT_CHECK(self_healing_ && role.node == 0);
    // Replication bookkeeping, not tree traffic: no age bump.
    handle_backup_ack(ctx, self, role, msg);
    return;
  }
  if (msg.tag == kTagInc || msg.tag == kTagMulti) {
    const auto origin = static_cast<ProcessorId>(msg.args.at(0));
    if (role.node == 0 && self_healing_) {
      handle_root_op(ctx, self, role, msg);
      return;
    }
    if (msg.tag == kTagMulti) {
      // Ops in message order; each later one packs op * n + origin.
      const std::int64_t n = layout_.n();
      const auto take = [&](ProcessorId from, OpId op) {
        if (role.node == 0) {
          reply_from_root(ctx, self, role, from, op, {});
        } else {
          buffer_inc(ctx, self, role, from, op);
        }
      };
      take(origin, msg.op);
      for (std::size_t i = 2; i < msg.args.size(); ++i) {
        take(static_cast<ProcessorId>(msg.args[i] % n), msg.args[i] / n);
      }
    } else if (role.node == 0) {
      reply_from_root(ctx, self, role, origin, msg.op,
                      std::span<const std::int64_t>(msg.args).subspan(2));
    } else if (combine_) {
      buffer_inc(ctx, self, role, origin, msg.op);
    } else {
      Message up = msg;  // preserves op and op_args
      up.src = self;
      up.dst = role.parent_pid;
      up.args[1] = layout_.parent(role.node);
      ctx.send(std::move(up));
    }
    bump_age(ctx, self, role, 2, msg.op);
    return;
  }
  DCNT_CHECK(msg.tag == kTagNewId);
  const NodeId retiring = msg.args.at(1);
  const auto new_pid = static_cast<ProcessorId>(msg.args.at(2));
  if (layout_.parent(role.node) == retiring) {
    role.parent_pid = new_pid;
  } else {
    DCNT_CHECK_MSG(!layout_.children_are_leaves(role.node),
                   "leaves never retire");
    bool found = false;
    for (int c = 0; c < layout_.k(); ++c) {
      if (layout_.child(role.node, c) == retiring) {
        role.child_pids[static_cast<std::size_t>(c)] = new_pid;
        found = true;
        break;
      }
    }
    DCNT_CHECK_MSG(found, "kTagNewId from a non-neighbour");
  }
  bump_age(ctx, self, role, 1, msg.op);
}

void TreeService::reply_from_root(Context& ctx, ProcessorId self, Role& role,
                                  ProcessorId origin, OpId op,
                                  std::span<const std::int64_t> op_args) {
  Message reply;
  reply.src = self;
  reply.dst = origin;
  reply.tag = kTagValue;
  // Carry the op explicitly: when a stashed inc is drained during a
  // handover commit, the ambient op is the handover's, not the inc's.
  reply.op = op;
  reply.args = {root_apply(role.state, op_args)};
  ctx.send(std::move(reply));
}

void TreeService::buffer_inc(Context& ctx, ProcessorId self, Role& role,
                             ProcessorId origin, OpId op) {
  role.buffer[static_cast<std::size_t>(role.buffered++)] = {origin, op};
  ++live_buffered_;
  if (role.buffered == kMaxCombine) {
    flush_role(ctx, self, role);
  } else if (!role.flush_armed) {
    role.flush_armed = true;
    ctx.send_local(self, kTagFlush, {role.node}, 0);
  }
}

void TreeService::flush_role(Context& ctx, ProcessorId self, Role& role) {
  if (role.buffered == 0) return;
  const BufferedInc& first = role.buffer[0];
  Message up;
  up.src = self;
  up.dst = role.parent_pid;
  // A lone inc climbs exactly as it would without combining.
  up.tag = role.buffered == 1 ? kTagInc : kTagMulti;
  up.op = first.op;
  up.args = {first.origin, layout_.parent(role.node)};
  for (int i = 1; i < role.buffered; ++i) {
    const BufferedInc& b = role.buffer[static_cast<std::size_t>(i)];
    DCNT_CHECK(b.op >= 0);
    up.args.push_back(b.op * layout_.n() + b.origin);
  }
  live_buffered_ += -role.buffered;
  role.buffered = 0;
  ctx.send(std::move(up));
}

void TreeService::bump_age(Context& ctx, ProcessorId self, Role& role,
                           std::int64_t amount, OpId op) {
  role.age += amount;
  // retire() erases the role from the vector `role` points into.
  if (role.age >= threshold_) retire(ctx, self, role.node, op);
}

void TreeService::retire(Context& ctx, ProcessorId self, NodeId node,
                         OpId op) {
  auto& ps = procs_[static_cast<std::size_t>(self)];
  const int level = layout_.level_of(node);
  const int k = layout_.k();
  // Walk the pool past any processor this one has declared dead
  // (self-healing only; the suspect list is empty otherwise).
  const ProcessorId succ =
      next_unsuspected(ps, node, layout_.successor(node, self));

  RetirementEvent ev;
  ev.op = op;
  ev.node = node;
  ev.level = level;
  ev.old_pid = self;
  ev.new_pid = succ;
  if (!shard_mode_) retirement_log_.push_back(ev);
  ++stats_.retirements_total;
  ++stats_.retirements_by_level[static_cast<std::size_t>(level)];

  const auto live =
      std::find_if(ps.roles.begin(), ps.roles.end(),
                   [node](const Role& r) { return r.node == node; });
  DCNT_CHECK(live != ps.roles.end());
  DCNT_CHECK_MSG(incumbent_[static_cast<std::size_t>(node)] == self,
                 "a role retired away from its incumbent");
  if (succ == self) {
    // Degenerate pool of size 1 (level-k nodes under aggressive
    // thresholds): "retire" to ourselves — just reset the age.
    ++stats_.self_handovers;
    live->age = count_handover_in_age_ ? k + 1 : 0;
    return;
  }
  if (succ == layout_.pool_begin(node)) ++stats_.pool_wraps;
  // Buffered incs climb before the handover, so the successor never
  // inherits them.
  flush_role(ctx, self, *live);

  // Drop the role, remember where it went. The role's buffers move out
  // first; its handover messages are built from them below.
  const Role role = std::move(*live);
  ps.roles.erase(live);
  if (ProcessorId* fwd = find_forward(ps, node)) {
    *fwd = succ;
  } else {
    ps.forwards.emplace_back(node, succ);
  }
  incumbent_[static_cast<std::size_t>(node)] = kNoProcessor;

  // k+1 handover messages to the successor. For the paper's counter the
  // root ships one value and every message stays O(log n) bits; richer
  // root state (the priority queue) shows up in max_handover_words.
  {
    Message m;
    m.src = self;
    m.dst = succ;
    m.tag = kTagTakeOver;
    m.args = {node, role.parent_pid};
    if (self_healing_ && node == 0) {
      m.args.push_back(role.backup_next_seq);
      append_journal(m.args, role.journal);
      m.args.push_back(static_cast<std::int64_t>(role.gated.size()));
      for (const auto& g : role.gated) {
        m.args.push_back(g.origin);
        m.args.push_back(g.serial);
        m.args.push_back(g.value);
        m.args.push_back(g.op);
      }
    }
    m.args.insert(m.args.end(), role.state.begin(), role.state.end());
    stats_.max_handover_words.update_max(
        static_cast<std::int64_t>(m.size_words()));
    ctx.send(std::move(m));
  }
  for (int c = 0; c < k; ++c) {
    Message m;
    m.src = self;
    m.dst = succ;
    m.tag = kTagChildInfo;
    m.args = {node, c, role.child_pids[static_cast<std::size_t>(c)]};
    ctx.send(std::move(m));
  }
  announce_succession(ctx, self, role, succ);
}

void TreeService::announce_succession(Context& ctx, ProcessorId self,
                                      const Role& role, ProcessorId succ) {
  // New-id notifications: parent (unless root — the paper's root "saves
  // the message that would inform the parent") and all children.
  const NodeId node = role.node;
  if (node != 0) {
    Message m;
    m.src = self;
    m.dst = role.parent_pid;
    m.tag = kTagNewId;
    m.args = {layout_.parent(node), node, succ};
    ctx.send(std::move(m));
  }
  for (int c = 0; c < layout_.k(); ++c) {
    Message m;
    m.src = self;
    m.dst = role.child_pids[static_cast<std::size_t>(c)];
    m.tag = kTagNewId;
    const NodeId child_target = layout_.children_are_leaves(node)
                                    ? kLeafTarget
                                    : layout_.child(node, c);
    m.args = {child_target, node, succ};
    ctx.send(std::move(m));
  }
}

void TreeService::commit_takeover(Context& ctx, ProcessorId self,
                                  Role role) {
  auto& ps = procs_[static_cast<std::size_t>(self)];
  const NodeId node = role.node;
  DCNT_CHECK_MSG(find_role(ps, node) == nullptr,
                 "takeover for a role we already hold");
  role.age = count_handover_in_age_ ? layout_.k() + 1 : 0;
  if (self_healing_ && node == 0) {
    // We were the previous root's backup target; now we are the primary.
    ps.shadow_seq = -1;
    ps.shadow = Role{};
  }
  // If we once held this role (pool wrap-around), we are no longer a
  // forwarder for it.
  auto fwd = std::find_if(ps.forwards.begin(), ps.forwards.end(),
                          [&](const auto& f) { return f.first == node; });
  if (fwd != ps.forwards.end()) ps.forwards.erase(fwd);
  ps.roles.push_back(std::move(role));
  incumbent_[static_cast<std::size_t>(node)] = self;

  if (self_healing_ && node == 0) {
    // First act as the new primary: a full backup to *our* pool
    // successor. It seeds the next shadow immediately (so a crash right
    // after this handover still finds a replica) and any gated replies
    // inherited from the predecessor are rebound to its ack.
    Role& fresh = ps.roles.back();
    const std::int64_t seq = fresh.backup_next_seq++;
    for (auto& g : fresh.gated) g.backup_seq = seq;
    send_backup(ctx, self, fresh, seq);
  }

  // Drain messages that arrived for this role during the handover.
  drain_stash(ctx, self, node);
}

void TreeService::drain_stash(Context& ctx, ProcessorId self, NodeId node) {
  auto& ps = procs_[static_cast<std::size_t>(self)];
  std::vector<Message> parked;
  for (auto it = ps.stash.begin(); it != ps.stash.end();) {
    const NodeId target = it->tag == kTagInc || it->tag == kTagMulti
                              ? it->args.at(1)
                              : it->args.at(0);
    if (target == node) {
      parked.push_back(std::move(*it));
      it = ps.stash.erase(it);
      --live_stash_;
    } else {
      ++it;
    }
  }
  for (auto& m : parked) {
    // Re-route: if the freshly committed role retires mid-drain, the
    // remaining messages will be forwarded to its successor.
    route_node_message(ctx, self, node, m);
  }
}

TreeService::JournalEntry* TreeService::find_journal(Role& role,
                                                     ProcessorId origin) {
  auto it = std::lower_bound(
      role.journal.begin(), role.journal.end(), origin,
      [](const JournalEntry& e, ProcessorId o) { return e.origin < o; });
  if (it == role.journal.end() || it->origin != origin) return nullptr;
  return &*it;
}

void TreeService::handle_root_op(Context& ctx, ProcessorId self, Role& role,
                                 const Message& msg) {
  const auto origin = static_cast<ProcessorId>(msg.args.at(0));
  const std::int64_t serial = msg.args.at(2);
  JournalEntry* je = find_journal(role, origin);
  if (je != nullptr && serial <= je->serial) {
    if (serial == je->serial) {
      // A retry of an op we already applied: exactly-once means we
      // answer from the journal, never apply again.
      ++stats_.replayed_replies;
      auto g = std::find_if(role.gated.begin(), role.gated.end(),
                            [&](const GatedReply& gr) {
                              return gr.origin == origin && gr.serial == serial;
                            });
      if (g != role.gated.end()) {
        // Still write-ahead gated: the backup or its ack went missing.
        // Re-ship the backup under a fresh seq so the reply can release
        // even when no reliable transport runs underneath.
        const std::int64_t seq = role.backup_next_seq++;
        g->backup_seq = seq;
        send_backup(ctx, self, role, seq);
      } else {
        Message reply;
        reply.src = self;
        reply.dst = origin;
        reply.tag = kTagValue;
        reply.op = msg.op;
        reply.args = {je->value, serial};
        ctx.send(std::move(reply));
      }
    }
    // serial < je->serial: a stale duplicate the origin completed long
    // ago (it moved on to a later serial); nothing to do.
  } else {
    DCNT_CHECK_MSG(serial == (je == nullptr ? 0 : je->serial + 1),
                   "origin serials must be sequential");
    const Value value = root_apply(
        role.state, std::span<const std::int64_t>(msg.args).subspan(3));
    if (je != nullptr) {
      je->serial = serial;
      je->value = value;
    } else {
      JournalEntry e;
      e.origin = origin;
      e.serial = serial;
      e.value = value;
      role.journal.insert(
          std::lower_bound(
              role.journal.begin(), role.journal.end(), origin,
              [](const JournalEntry& a, ProcessorId o) { return a.origin < o; }),
          e);
    }
    const std::int64_t seq = role.backup_next_seq++;
    GatedReply g;
    g.backup_seq = seq;
    g.origin = origin;
    g.serial = serial;
    g.value = value;
    g.op = msg.op;
    role.gated.push_back(g);
    send_backup(ctx, self, role, seq);
  }
  bump_age(ctx, self, role, 2, msg.op);
}

void TreeService::send_backup(Context& ctx, ProcessorId self, Role& role,
                              std::int64_t seq) {
  // Every backup is a full snapshot (state + journal + links): backups
  // may be lost or reordered, and a shadow assembled from partial
  // deltas could pair a new state with an old journal — exactly the
  // double-apply hazard the journal exists to prevent.
  Message m;
  m.src = self;
  m.dst = backup_target_of(role, self);
  m.tag = kTagBackup;
  m.args = {0, seq};
  append_journal(m.args, role.journal);
  for (const ProcessorId pid : role.child_pids) m.args.push_back(pid);
  m.args.insert(m.args.end(), role.state.begin(), role.state.end());
  ++stats_.backups_sent;
  ctx.send(std::move(m));
}

ProcessorId TreeService::backup_target_of(const Role& role,
                                          ProcessorId self) const {
  if (role.backup_target != kNoProcessor) return role.backup_target;
  const auto& ps = procs_[static_cast<std::size_t>(self)];
  return next_unsuspected(ps, 0, layout_.successor(0, self));
}

ProcessorId TreeService::believed_incumbent(const ProcState& ps, NodeId node,
                                            ProcessorId self) const {
  if (find_role(ps, node) != nullptr) return self;
  return next_unsuspected(ps, node, layout_.initial_pid(node));
}

ProcessorId TreeService::next_unsuspected(const ProcState& ps, NodeId node,
                                          ProcessorId from) const {
  ProcessorId cur = from;
  for (std::int64_t lap = 0; lap < layout_.pool_size(node); ++lap) {
    if (std::find(ps.suspects.begin(), ps.suspects.end(), cur) ==
        ps.suspects.end()) {
      return cur;
    }
    cur = layout_.successor(node, cur);
  }
  return from;  // the whole pool is suspected: no good choice exists
}

void TreeService::handle_backup(Context& ctx, ProcessorId self,
                                const Message& msg) {
  DCNT_CHECK(self_healing_);
  DCNT_CHECK(msg.args.at(0) == 0);
  const std::int64_t seq = msg.args.at(1);
  auto& ps = procs_[static_cast<std::size_t>(self)];
  if (seq > ps.shadow_seq) {
    std::size_t i = 2;
    read_journal(msg.args, i, ps.shadow.journal);
    ps.shadow.child_pids.resize(static_cast<std::size_t>(layout_.k()));
    for (auto& pid : ps.shadow.child_pids) {
      pid = static_cast<ProcessorId>(msg.args.at(i++));
    }
    ps.shadow.state.assign(msg.args.begin() + static_cast<std::ptrdiff_t>(i),
                           msg.args.end());
    ps.shadow_seq = seq;
  }
  // Always ack, stale or not: the primary's gated replies wait on it and
  // an earlier ack may have been lost.
  Message ack;
  ack.src = self;
  ack.dst = msg.src;
  ack.tag = kTagBackupAck;
  ack.op = msg.op;
  ack.args = {0, seq};
  ctx.send(std::move(ack));
}

void TreeService::handle_backup_ack(Context& ctx, ProcessorId self, Role& role,
                                    const Message& msg) {
  const std::int64_t seq = msg.args.at(1);
  // Backups are full snapshots, so an ack for seq covers every earlier
  // seq too: release all gated replies at or below it.
  for (auto it = role.gated.begin(); it != role.gated.end();) {
    if (it->backup_seq <= seq) {
      Message reply;
      reply.src = self;
      reply.dst = it->origin;
      reply.tag = kTagValue;
      reply.op = it->op;
      reply.args = {it->value, it->serial};
      ctx.send(std::move(reply));
      it = role.gated.erase(it);
    } else {
      ++it;
    }
  }
}

void TreeService::handle_promote(Context& ctx, ProcessorId self,
                                 const Message& msg) {
  DCNT_CHECK(self_healing_);
  const NodeId node = msg.args.at(0);
  const auto dead = static_cast<ProcessorId>(msg.args.at(1));
  auto& ps = procs_[static_cast<std::size_t>(self)];
  // Anyone who holds the role, is mid-takeover for it, or has already
  // passed it on knows more than the suspicion does.
  if (find_role(ps, node) != nullptr || find_pending(ps, node) != nullptr ||
      find_forward(ps, node) != nullptr) {
    ++stats_.promotes_ignored;
    return;
  }
  if (std::find(ps.suspects.begin(), ps.suspects.end(), dead) ==
      ps.suspects.end()) {
    ps.suspects.push_back(dead);
  }
  ++stats_.crash_handovers;
  const int k = layout_.k();
  const int level = layout_.level_of(node);
  Role role;
  role.node = node;
  role.age = 0;
  role.child_pids.resize(static_cast<std::size_t>(k));
  if (node == 0) {
    role.parent_pid = kNoProcessor;
    if (ps.shadow_seq >= 0) {
      // The last backup's state, children and journal; no parent, age 0.
      role = std::move(ps.shadow);
      role.node = node;
      role.backup_next_seq = ps.shadow_seq + 1;
      ps.shadow_seq = -1;
      ps.shadow = Role{};
    } else {
      // The incumbent died before any backup reached us. With f = 1 the
      // promote target is the dead root's backup target, so no released
      // value can predate our shadow — restarting from the initial
      // state loses only applied-but-gated work, which the origins will
      // re-submit.
      role.state = initial_root_state();
      role.child_pids = initial_child_pids(0);
    }
  } else {
    // Rebuild links from local knowledge plus the static layout: a role
    // we hold ourselves resolves to us, anything else to the first
    // unsuspected member of the node's pool starting from its initial
    // incumbent. Stale-but-alive guesses heal via the ex-incumbents'
    // forwarding chains.
    role.parent_pid = believed_incumbent(ps, layout_.parent(node), self);
    for (int c = 0; c < k; ++c) {
      role.child_pids[static_cast<std::size_t>(c)] =
          layout_.children_are_leaves(node)
              ? layout_.leaf_child(node, c)
              : believed_incumbent(ps, layout_.child(node, c), self);
    }
  }
  ps.roles.push_back(std::move(role));
  Role& fresh = ps.roles.back();
  incumbent_[static_cast<std::size_t>(node)] = self;

  // Announce the succession to the believed neighbours, exactly like a
  // voluntary retirement would have (stale beliefs heal via forwards).
  announce_succession(ctx, self, fresh, self);
  if (node == 0) {
    // Seed the next shadow right away.
    const std::int64_t seq = fresh.backup_next_seq++;
    send_backup(ctx, self, fresh, seq);
  }
  drain_stash(ctx, self, node);

  // One death can sever several incumbencies at once: processors hold
  // many roles (the initial root also holds node 1, say). If the same
  // suspicion makes US the rightful incumbent of a tree-neighbour we do
  // not hold, promote ourselves right away — traffic we aim at that
  // neighbour would go to our own stash without ever crossing the
  // transport, so no abandonment could trigger the promotion later.
  std::vector<NodeId> neighbours;
  if (level > 0) neighbours.push_back(layout_.parent(node));
  if (!layout_.children_are_leaves(node)) {
    for (int c = 0; c < k; ++c) neighbours.push_back(layout_.child(node, c));
  }
  for (const NodeId nb : neighbours) {
    if (find_role(ps, nb) != nullptr || find_pending(ps, nb) != nullptr ||
        find_forward(ps, nb) != nullptr) {
      continue;
    }
    if (believed_incumbent(ps, nb, self) != self) continue;
    Message m;
    m.src = self;
    m.dst = self;
    m.tag = kTagPromote;
    m.args = {nb, dead};
    handle_promote(ctx, self, m);
  }
}

void TreeService::handle_inc_retry(Context& ctx, ProcessorId self,
                                   const Message& msg) {
  DCNT_CHECK(self_healing_);
  auto& ps = procs_[static_cast<std::size_t>(self)];
  const std::int64_t serial = msg.args.at(0);
  if (ps.out_serial != serial) return;  // answered in the meantime
  ++stats_.timeouts_fired;
  DCNT_CHECK_MSG(ps.out_attempts < TreeServiceParams::kIncRetryLimit,
                 "origin retry limit exhausted; operation lost");
  ++ps.out_attempts;
  ++stats_.retransmissions;
  Message m;
  m.src = self;
  m.dst = ps.leaf_parent_pid;
  m.tag = kTagInc;
  m.op = msg.op;
  m.args = {self, layout_.leaf_parent(self), serial};
  m.args.insert(m.args.end(), ps.out_args.begin(), ps.out_args.end());
  ctx.send(std::move(m));
  ps.out_timeout =
      std::min(ps.out_timeout * 2, TreeServiceParams::kIncRetryMaxTimeout);
  ctx.send_local(self, kTagIncRetry, {serial}, ps.out_timeout);
}

void TreeService::on_peer_unreachable(Context& ctx, ProcessorId self,
                                      ProcessorId peer) {
  if (!self_healing_) return;
  auto& ps = procs_[static_cast<std::size_t>(self)];
  if (std::find(ps.suspects.begin(), ps.suspects.end(), peer) ==
      ps.suspects.end()) {
    ps.suspects.push_back(peer);
  }
  auto suspect_node = [&](NodeId node) {
    // Singleton pools (the level-k nodes) have no spare to promote; a
    // crash there is beyond the f = 1 design point.
    const ProcessorId first = layout_.successor(node, peer);
    if (first == peer) return;
    const ProcessorId target = next_unsuspected(ps, node, first);
    if (target == peer) return;
    Message m;
    m.src = self;
    m.dst = target;
    m.tag = kTagPromote;
    m.args = {node, peer};
    ctx.send(std::move(m));
  };
  // Besides promoting a successor, re-aim our own links past the corpse:
  // the promote is IGNORED when its target already took the role over,
  // so waiting for an announcement is not enough — a stale link would
  // keep sending into the void forever.
  const auto realign = [&](NodeId node, ProcessorId current) -> ProcessorId {
    const ProcessorId first = layout_.successor(node, peer);
    if (first == peer) return current;  // singleton pool: unrecoverable
    return next_unsuspected(ps, node, first);
  };
  if (ps.leaf_parent_pid == peer) {
    const NodeId lp = layout_.leaf_parent(self);
    suspect_node(lp);
    ps.leaf_parent_pid = realign(lp, ps.leaf_parent_pid);
  }
  for (auto& role : ps.roles) {
    const NodeId up = layout_.parent(role.node);
    if (up != kNoNode && role.parent_pid == peer) {
      suspect_node(up);
      role.parent_pid = realign(up, role.parent_pid);
    }
    if (!layout_.children_are_leaves(role.node)) {
      for (int c = 0; c < layout_.k(); ++c) {
        ProcessorId& cp = role.child_pids[static_cast<std::size_t>(c)];
        if (cp == peer) {
          suspect_node(layout_.child(role.node, c));
          cp = realign(layout_.child(role.node, c), cp);
        }
      }
    }
    if (role.node == 0) {
      const ProcessorId prev_target = role.backup_target != kNoProcessor
                                          ? role.backup_target
                                          : layout_.successor(0, self);
      if (prev_target == peer) {
        // Our replica died: re-target past it and re-ship everything so
        // the gated replies can release against the new shadow.
        role.backup_target =
            next_unsuspected(ps, 0, layout_.successor(0, peer));
        const std::int64_t seq = role.backup_next_seq++;
        for (auto& g : role.gated) g.backup_seq = seq;
        send_backup(ctx, self, role, seq);
      }
    }
  }
  for (auto& f : ps.forwards) {
    if (f.second == peer) {
      suspect_node(f.first);
      // Keep the forwarding chain alive past the corpse.
      f.second = next_unsuspected(ps, f.first, layout_.successor(f.first, peer));
    }
  }
}

void TreeService::on_shard_start(std::size_t workers) {
  (void)workers;
  DCNT_CHECK_MSG(!self_healing_,
                 "healing tree is simulator-only (see shard_safe)");
  shard_mode_ = true;
  retirement_log_.clear();
}

void TreeService::check_quiescent(std::size_t ops_completed) const {
  // After a crash handover, state stranded inside dead processors
  // (their stashes, half-assembled takeovers) legitimately never
  // drains; the liveness checks only apply to crash-free executions.
  const bool crashed = self_healing_ && stats_.crash_handovers > 0;
  if (!crashed) {
    DCNT_CHECK_MSG(live_pending_ == 0, "handover still pending at quiescence");
    DCNT_CHECK_MSG(live_stash_ == 0, "stashed messages at quiescence");
  }
  DCNT_CHECK_MSG(incumbent_[0] != kNoProcessor, "root in flight");
  DCNT_CHECK_MSG(live_buffered_ == 0, "buffered incs at quiescence");
  check_root_state(ops_completed, root_state());
}

const std::vector<std::int64_t>& TreeService::root_state() const {
  const ProcessorId pid = incumbent_[0];
  DCNT_CHECK_MSG(pid != kNoProcessor, "root handover in flight");
  const Role* role = find_role(procs_[static_cast<std::size_t>(pid)], 0);
  DCNT_CHECK(role != nullptr);
  return role->state;
}

ProcessorId TreeService::incumbent(NodeId node) const {
  DCNT_CHECK(node >= 0 && node < layout_.num_inner());
  return incumbent_[static_cast<std::size_t>(node)];
}

void TreeService::deep_check() const {
  for (const auto& ps : procs_) {
    DCNT_CHECK(ps.pending.empty());
    DCNT_CHECK(ps.stash.empty());
  }
  for (NodeId node = 0; node < layout_.num_inner(); ++node) {
    const ProcessorId pid = incumbent_[static_cast<std::size_t>(node)];
    DCNT_CHECK(pid != kNoProcessor);
    const Role* role = find_role(procs_[static_cast<std::size_t>(pid)], node);
    DCNT_CHECK(role != nullptr);
    DCNT_CHECK(role->buffered == 0);
    const NodeId up = layout_.parent(node);
    if (up == kNoNode) {
      DCNT_CHECK(role->parent_pid == kNoProcessor);
    } else {
      DCNT_CHECK(role->parent_pid == incumbent_[static_cast<std::size_t>(up)]);
    }
    for (int c = 0; c < layout_.k(); ++c) {
      const ProcessorId believed =
          role->child_pids[static_cast<std::size_t>(c)];
      if (layout_.children_are_leaves(node)) {
        DCNT_CHECK(believed == layout_.leaf_child(node, c));
      } else {
        const NodeId child = layout_.child(node, c);
        DCNT_CHECK(believed == incumbent_[static_cast<std::size_t>(child)]);
      }
    }
  }
  for (ProcessorId p = 0; p < layout_.n(); ++p) {
    const NodeId up = layout_.leaf_parent(p);
    DCNT_CHECK(procs_[static_cast<std::size_t>(p)].leaf_parent_pid ==
               incumbent_[static_cast<std::size_t>(up)]);
  }
}

}  // namespace dcnt
