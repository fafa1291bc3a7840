#include "testbed/sessions.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/bfs.h"
#include "lp/fee_min.h"
#include "routing/spider.h"

namespace flash::testbed {

namespace {
constexpr Amount kEps = 1e-9;
}

// ---------------------------------------------------------------------------
// PaymentSession base
// ---------------------------------------------------------------------------

PaymentSession::PaymentSession(Network& net, Amount amount, DoneCallback done)
    : net_(&net), amount_(amount), done_(std::move(done)) {}

void PaymentSession::finish(bool success) {
  if (finished_) return;
  finished_ = true;
  succeeded_ = success;
  for (const std::uint64_t id : listening_) net_->unregister_session(id);
  listening_.clear();
  if (done_) done_(success);
}

void PaymentSession::listen(std::uint64_t trans_id,
                            Network::SenderCallback cb) {
  net_->register_session(trans_id, std::move(cb));
  listening_.push_back(trans_id);
}

void PaymentSession::unlisten(std::uint64_t trans_id) {
  net_->unregister_session(trans_id);
  std::erase(listening_, trans_id);
}

void PaymentSession::run_two_phase(std::vector<Part> parts) {
  if (parts.empty()) {
    finish(false);
    return;
  }
  tp_parts_ = std::move(parts);
  tp_resolved_ = 0;
  tp_any_failed_ = false;
  tp_fail_hops_.clear();

  for (Part& part : tp_parts_) {
    part.trans_id = net_->fresh_trans_id();
    listen(part.trans_id, [this, id = part.trans_id](const Message& msg) {
      if (msg.type == MsgType::kCommitAck) {
        tp_on_commit_result(id, true, 0);
      } else if (msg.type == MsgType::kCommitNack) {
        tp_on_commit_result(id, false, msg.fail_hop);
      }
    });
  }
  // Originate all COMMITs (the sender serializes them; they travel in
  // parallel).
  for (const Part& part : tp_parts_) {
    Message m;
    m.trans_id = part.trans_id;
    m.type = MsgType::kCommit;
    m.path = part.path;
    m.commit = part.amount;
    net_->originate(std::move(m));
  }
}

void PaymentSession::tp_on_commit_result(std::uint64_t trans_id, bool ok,
                                         std::size_t fail_hop) {
  if (!ok) {
    tp_any_failed_ = true;
    tp_fail_hops_[trans_id] = fail_hop;
  }
  if (++tp_resolved_ < tp_parts_.size()) return;
  tp_settle();
}

void PaymentSession::tp_settle() {
  if (!tp_any_failed_) {
    confirm_parts(std::move(tp_parts_));
    return;
  }
  // At least one sub-payment failed: REVERSE everything (§5.1). Fully
  // committed parts reverse over the whole path; NACKed parts only up to
  // the hop that refused.
  std::vector<Part> to_reverse;
  for (Part& part : tp_parts_) {
    const auto it = tp_fail_hops_.find(part.trans_id);
    if (it == tp_fail_hops_.end()) {
      to_reverse.push_back(std::move(part));  // committed in full
    } else if (it->second > 0) {
      part.reverse_horizon = it->second;  // held up to the NACKing hop
      to_reverse.push_back(std::move(part));
    }
    // fail_hop == 0: the sender itself refused; nothing was held.
  }
  reverse_parts(std::move(to_reverse), [this] { finish(false); });
}

void PaymentSession::confirm_parts(std::vector<Part> parts) {
  if (parts.empty()) {
    finish(true);
    return;
  }
  tp_acks_expected_ = parts.size();
  tp_acks_seen_ = 0;
  for (const Part& part : parts) {
    listen(part.trans_id, [this](const Message& msg) {
      if (msg.type != MsgType::kConfirmAck) return;
      if (++tp_acks_seen_ == tp_acks_expected_) finish(true);
    });
    Message m;
    m.trans_id = part.trans_id;
    m.type = MsgType::kConfirm;
    m.path = part.path;
    m.commit = part.amount;
    net_->originate(std::move(m));
  }
}

void PaymentSession::reverse_parts(std::vector<Part> parts,
                                   std::function<void()> on_reversed) {
  if (parts.empty()) {
    on_reversed();
    return;
  }
  // Shared countdown across the REVERSE_ACKs.
  auto remaining = std::make_shared<std::size_t>(parts.size());
  for (const Part& part : parts) {
    listen(part.trans_id,
           [this, remaining, on_reversed](const Message& msg) {
             if (msg.type != MsgType::kReverseAck) return;
             if (--*remaining == 0) on_reversed();
           });
    Message m;
    m.trans_id = part.trans_id;
    m.type = MsgType::kReverse;
    m.path = part.path;
    m.commit = part.amount;
    m.fail_hop = std::min(part.reverse_horizon, part.path.size() - 1);
    net_->originate(std::move(m));
  }
}

// ---------------------------------------------------------------------------
// SP
// ---------------------------------------------------------------------------

SpSession::SpSession(Network& net, NodePath path, Amount amount,
                     DoneCallback done)
    : PaymentSession(net, amount, std::move(done)), path_(std::move(path)) {}

void SpSession::start() {
  if (path_.size() < 2 || amount() <= 0) {
    finish(false);
    return;
  }
  Part part;
  part.path = path_;
  part.amount = amount();
  run_two_phase({std::move(part)});
}

// ---------------------------------------------------------------------------
// Spider
// ---------------------------------------------------------------------------

SpiderSession::SpiderSession(Network& net, std::vector<NodePath> paths,
                             Amount amount, DoneCallback done)
    : PaymentSession(net, amount, std::move(done)), paths_(std::move(paths)) {}

void SpiderSession::start() {
  if (paths_.empty() || amount() <= 0) {
    finish(false);
    return;
  }
  caps_.assign(paths_.size(), 0);
  probes_pending_ = paths_.size();
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const std::uint64_t id = net().fresh_trans_id();
    listen(id, [this, i](const Message& msg) {
      if (msg.type == MsgType::kProbeAck) on_probe_ack(i, msg);
    });
    Message m;
    m.trans_id = id;
    m.type = MsgType::kProbe;
    m.path = paths_[i];
    net().originate(std::move(m));
  }
}

void SpiderSession::on_probe_ack(std::size_t index, const Message& msg) {
  Amount cap = std::numeric_limits<Amount>::max();
  for (const Amount a : msg.capacity) cap = std::min(cap, a);
  caps_[index] = msg.capacity.empty() ? 0 : cap;
  if (--probes_pending_ == 0) allocate_and_commit();
}

void SpiderSession::allocate_and_commit() {
  const std::vector<Amount> alloc = SpiderRouter::waterfill(caps_, amount());
  const Amount placed =
      std::accumulate(alloc.begin(), alloc.end(), Amount{0});
  if (placed + kEps < amount()) {
    finish(false);  // not enough probed capacity; nothing was held
    return;
  }
  std::vector<Part> parts;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (alloc[i] <= kEps) continue;
    Part part;
    part.path = paths_[i];
    part.amount = alloc[i];
    parts.push_back(std::move(part));
  }
  run_two_phase(std::move(parts));
}

// ---------------------------------------------------------------------------
// Flash mice
// ---------------------------------------------------------------------------

FlashMiceSession::FlashMiceSession(Network& net, std::vector<NodePath> paths,
                                   Amount amount, Rng& rng, DoneCallback done)
    : PaymentSession(net, amount, std::move(done)),
      paths_(std::move(paths)),
      remaining_(amount) {
  rng.shuffle(paths_);
}

void FlashMiceSession::start() {
  if (paths_.empty() || amount() <= 0) {
    finish(false);
    return;
  }
  try_next_path();
}

void FlashMiceSession::try_next_path() {
  if (remaining_ <= kEps) {
    confirm_parts(std::move(held_));
    return;
  }
  if (index_ >= paths_.size()) {
    reverse_parts(std::move(held_), [this] { finish(false); });
    return;
  }
  const NodePath path = paths_[index_];  // value: outlives the callbacks
  // Trial: the full remainder, no probe.
  const std::uint64_t id = net().fresh_trans_id();
  listen(id, [this, id, path](const Message& msg) {
    if (msg.type == MsgType::kCommitAck) {
      Part part;
      part.trans_id = id;
      part.path = path;
      part.amount = remaining_;
      held_.push_back(std::move(part));
      remaining_ = 0;
      confirm_parts(std::move(held_));
    } else if (msg.type == MsgType::kCommitNack) {
      unlisten(id);
      if (msg.fail_hop > 0) {
        // Roll back the partially held hops, then probe.
        Message rev;
        rev.trans_id = id;
        rev.type = MsgType::kReverse;
        rev.path = path;
        rev.fail_hop = msg.fail_hop;
        listen(id, [this, path](const Message& ack) {
          if (ack.type == MsgType::kReverseAck) probe_then_partial(path);
        });
        net().originate(std::move(rev));
      } else {
        probe_then_partial(path);
      }
    }
  });
  Message m;
  m.trans_id = id;
  m.type = MsgType::kCommit;
  m.path = path;
  m.commit = remaining_;
  net().originate(std::move(m));
}

void FlashMiceSession::probe_then_partial(NodePath path) {
  const std::uint64_t id = net().fresh_trans_id();
  listen(id, [this, path](const Message& msg) {
    if (msg.type != MsgType::kProbeAck) return;
    Amount cap = std::numeric_limits<Amount>::max();
    for (const Amount a : msg.capacity) cap = std::min(cap, a);
    if (msg.capacity.empty()) cap = 0;
    if (cap <= kEps) {
      ++index_;
      try_next_path();
      return;
    }
    const Amount part_amount = std::min(cap, remaining_);
    const std::uint64_t cid = net().fresh_trans_id();
    listen(cid, [this, cid, path, part_amount](const Message& cm) {
      if (cm.type == MsgType::kCommitAck) {
        Part part;
        part.trans_id = cid;
        part.path = path;
        part.amount = part_amount;
        held_.push_back(std::move(part));
        remaining_ -= part_amount;
        ++index_;
        try_next_path();
      } else if (cm.type == MsgType::kCommitNack) {
        // Balance changed between probe and commit: roll back and move on.
        unlisten(cid);
        if (cm.fail_hop > 0) {
          Message rev;
          rev.trans_id = cid;
          rev.type = MsgType::kReverse;
          rev.path = path;
          rev.fail_hop = cm.fail_hop;
          listen(cid, [this](const Message& ack) {
            if (ack.type == MsgType::kReverseAck) {
              ++index_;
              try_next_path();
            }
          });
          net().originate(std::move(rev));
        } else {
          ++index_;
          try_next_path();
        }
      }
    });
    Message cm;
    cm.trans_id = cid;
    cm.type = MsgType::kCommit;
    cm.path = path;
    cm.commit = part_amount;
    net().originate(std::move(cm));
  });
  Message m;
  m.trans_id = id;
  m.type = MsgType::kProbe;
  m.path = path;
  net().originate(std::move(m));
}

// ---------------------------------------------------------------------------
// Flash elephant
// ---------------------------------------------------------------------------

FlashElephantSession::FlashElephantSession(
    Network& net, const Graph& graph, const FeeSchedule& fees, NodeId sender,
    NodeId receiver, Amount amount, std::size_t max_paths, DoneCallback done)
    : PaymentSession(net, amount, std::move(done)),
      graph_(&graph),
      fees_(&fees),
      sender_(sender),
      receiver_(receiver),
      max_paths_(max_paths) {
  capacities_.reset(graph.num_edges());
}

void FlashElephantSession::start() {
  if (sender_ == receiver_ || amount() <= 0) {
    finish(false);
    return;
  }
  probe_round();
}

void FlashElephantSession::probe_round() {
  // Algorithm 1 probes up to k paths before checking the demand (no early
  // exit at f >= d), so the LP split has surplus capacity to choose from.
  if (edge_paths_.size() >= max_paths_) {
    split_and_commit();
    return;
  }
  const auto admit = [this](EdgeId e) {
    const auto it = residual_.find(e);
    return it == residual_.end() || it->second > kEps;
  };
  Path edge_path;
  if (!bfs_path_core(*graph_, sender_, receiver_, scratch_, admit,
                     edge_path) ||
      edge_path.empty()) {
    split_and_commit();
    return;
  }
  const std::uint64_t id = net().fresh_trans_id();
  listen(id, [this, edge_path](const Message& msg) {
    if (msg.type == MsgType::kProbeAck) on_probe_ack(edge_path, msg);
  });
  Message m;
  m.trans_id = id;
  m.type = MsgType::kProbe;
  m.path = graph_->path_nodes(edge_path, sender_);
  net().originate(std::move(m));
}

void FlashElephantSession::on_probe_ack(const Path& edge_path,
                                        const Message& msg) {
  // capacity[i] is the forward balance of edge i; capacity_reverse[j]
  // covers forward edge (n-1-j) (appended receiver-first on the way back).
  const std::size_t n = edge_path.size();
  for (std::size_t i = 0; i < n && i < msg.capacity.size(); ++i) {
    const EdgeId e = edge_path[i];
    if (!capacities_.contains(e)) {
      capacities_.insert(e, msg.capacity[i]);
      residual_[e] = msg.capacity[i];
    }
  }
  for (std::size_t j = 0; j < n && j < msg.capacity_reverse.size(); ++j) {
    const EdgeId rev = graph_->reverse(edge_path[n - 1 - j]);
    if (!capacities_.contains(rev)) {
      capacities_.insert(rev, msg.capacity_reverse[j]);
      residual_[rev] = msg.capacity_reverse[j];
    }
  }
  Amount bottleneck = std::numeric_limits<Amount>::max();
  for (const EdgeId e : edge_path) {
    bottleneck = std::min(bottleneck, residual_[e]);
  }
  bottleneck = std::max<Amount>(bottleneck, 0);
  edge_paths_.push_back(edge_path);
  if (bottleneck > kEps) {
    flow_ += bottleneck;
    for (const EdgeId e : edge_path) {
      residual_[e] -= bottleneck;
      residual_[graph_->reverse(e)] += bottleneck;
    }
  }
  probe_round();
}

void FlashElephantSession::split_and_commit() {
  if (flow_ + kEps < amount() || edge_paths_.empty()) {
    finish(false);  // Algorithm 1 infeasible: nothing held, nothing to undo
    return;
  }
  SplitResult split;
  optimize_fee_split_core(*graph_, edge_paths_, amount(), capacities_, *fees_,
                          split_ws_, split);
  if (!split.feasible) {
    sequential_split_core(*graph_, edge_paths_, amount(), capacities_, *fees_,
                          split_ws_, split);
  }
  if (!split.feasible) {
    finish(false);
    return;
  }
  std::vector<Part> parts;
  for (std::size_t i = 0; i < edge_paths_.size(); ++i) {
    if (split.amounts[i] <= kEps) continue;
    Part part;
    part.path = graph_->path_nodes(edge_paths_[i], sender_);
    part.amount = split.amounts[i];
    parts.push_back(std::move(part));
  }
  run_two_phase(std::move(parts));
}

}  // namespace flash::testbed
