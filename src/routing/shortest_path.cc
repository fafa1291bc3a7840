#include "routing/shortest_path.h"

#include "graph/bfs.h"
#include "ledger/htlc.h"

namespace flash {

// Path cache keyed by pair_key(s, t) from graph/types.h.

ShortestPathRouter::ShortestPathRouter(const Graph& graph,
                                       const FeeSchedule& fees,
                                       std::size_t max_hops)
    : graph_(&graph), fees_(&fees), max_hops_(max_hops) {}

const Path& ShortestPathRouter::shortest_path(NodeId s, NodeId t) {
  const auto key = pair_key(s, t);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    Path p;
    if (open_mask_) {
      const unsigned char* mask = open_mask_;
      bfs_path_core(*graph_, s, t, scratch(),
                    [mask](EdgeId e) { return mask[e] != 0; }, p);
    } else {
      bfs_path_core(*graph_, s, t, scratch(), AdmitAll{}, p);
    }
    it = cache_.emplace(key, std::move(p)).first;
  }
  return it->second;
}

bool ShortestPathRouter::borrow_workspace(Router& lender) {
  auto* sp = dynamic_cast<ShortestPathRouter*>(&lender);
  if (!sp || sp == this) return false;
  borrowed_ = &sp->scratch();
  return true;
}

std::size_t ShortestPathRouter::apply_topology_delta(
    std::span<const EdgeId> closed, std::span<const EdgeId> reopened,
    bool strict) {
  (void)reopened;
  if (strict) {
    const std::size_t n = cache_.size();
    cache_.clear();
    return n;
  }
  if (closed.empty()) return 0;
  std::size_t dropped = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    bool dead = false;
    for (const EdgeId e : it->second) {
      if (!open_mask_[e]) {
        dead = true;
        break;
      }
    }
    if (dead) {
      it = cache_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

RouteResult ShortestPathRouter::route(const Transaction& tx,
                                      NetworkState& state) {
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;
  const Path& path = shortest_path(tx.sender, tx.receiver);
  if (path.empty()) return result;  // unreachable
  // Timelock budget: the fewest-hops path already exceeds it, so every
  // path does — the payment is infeasible for this sender.
  if (max_hops_ != 0 && path.size() > max_hops_) return result;

  AtomicPayment payment(state);
  if (!payment.add_part(path, tx.amount)) return result;
  payment.commit();
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fees_->path_fee(path, tx.amount);
  result.paths_used = 1;
  return result;
}

}  // namespace flash
