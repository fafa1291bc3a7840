#include "routing/spider.h"

#include <algorithm>
#include <numeric>

#include "graph/edge_disjoint.h"
#include "ledger/htlc.h"

namespace flash {

// Path-set cache keyed by pair_key(s, t) from graph/types.h.

SpiderRouter::SpiderRouter(const Graph& graph, const FeeSchedule& fees,
                           SpiderConfig config)
    : graph_(&graph), fees_(&fees), config_(config) {}

const std::vector<Path>& SpiderRouter::paths_for(NodeId s, NodeId t) {
  const auto key = pair_key(s, t);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    std::vector<Path> paths;
    edge_disjoint_core(*graph_, s, t, config_.num_paths, scratch(), paths,
                       open_mask_);
    if (config_.max_hops != 0) {
      std::erase_if(paths, [this](const Path& p) {
        return p.size() > config_.max_hops;
      });
    }
    it = cache_.emplace(key, std::move(paths)).first;
  }
  return it->second;
}

bool SpiderRouter::borrow_workspace(Router& lender) {
  auto* spider = dynamic_cast<SpiderRouter*>(&lender);
  if (!spider || spider == this) return false;
  borrowed_ = &spider->scratch();
  return true;
}

std::size_t SpiderRouter::apply_topology_delta(std::span<const EdgeId> closed,
                                               std::span<const EdgeId> reopened,
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
    for (const Path& p : it->second) {
      for (const EdgeId e : p) {
        if (!open_mask_[e]) {
          dead = true;
          break;
        }
      }
      if (dead) break;
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

std::vector<Amount> SpiderRouter::waterfill(const std::vector<Amount>& caps,
                                            Amount demand) {
  // Find the water level L such that sum_i max(0, caps[i] - L) = demand;
  // allocation_i = max(0, caps[i] - L). If total capacity < demand, take
  // everything (L = 0).
  std::vector<Amount> alloc(caps.size(), 0);
  const Amount total = std::accumulate(caps.begin(), caps.end(), Amount{0});
  if (demand <= 0 || caps.empty()) return alloc;
  if (total <= demand) {
    for (std::size_t i = 0; i < caps.size(); ++i) {
      alloc[i] = std::max<Amount>(0, caps[i]);
    }
    return alloc;
  }
  std::vector<Amount> sorted(caps);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  // Lower the level step by step over the sorted capacities.
  Amount level = sorted.front();
  Amount poured = 0;
  std::size_t active = 1;
  for (std::size_t i = 1; i <= sorted.size(); ++i) {
    const Amount next_level = (i < sorted.size()) ? sorted[i] : Amount{0};
    const Amount step = (level - next_level) * static_cast<Amount>(active);
    if (poured + step >= demand) {
      level -= (demand - poured) / static_cast<Amount>(active);
      poured = demand;
      break;
    }
    poured += step;
    level = next_level;
    ++active;
  }
  for (std::size_t i = 0; i < caps.size(); ++i) {
    alloc[i] = std::max<Amount>(0, caps[i] - level);
  }
  return alloc;
}

RouteResult SpiderRouter::route(const Transaction& tx, NetworkState& state) {
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;
  const std::uint64_t probes_before = state.probe_messages();
  const std::vector<Path>& paths = paths_for(tx.sender, tx.receiver);
  if (paths.empty()) return result;

  // Probe every path on every payment: waterfilling needs instantaneous
  // available capacities.
  std::vector<Amount> caps(paths.size(), 0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto balances = state.probe_path(paths[i]);
    caps[i] = *std::min_element(balances.begin(), balances.end());
    ++result.probes;
  }

  const std::vector<Amount> alloc = waterfill(caps, tx.amount);
  const Amount placed = std::accumulate(alloc.begin(), alloc.end(), Amount{0});
  result.probe_messages = state.probe_messages() - probes_before;
  if (placed + 1e-9 < tx.amount) return result;  // insufficient capacity

  AtomicPayment payment(state);
  Amount fee = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (alloc[i] <= 0) continue;
    if (!payment.add_part(paths[i], alloc[i])) {
      return result;  // capacity changed under us; atomic abort
    }
    fee += fees_->path_fee(paths[i], alloc[i]);
    ++result.paths_used;
  }
  payment.commit();
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fee;
  return result;
}

}  // namespace flash
