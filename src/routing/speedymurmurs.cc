#include "routing/speedymurmurs.h"

#include <algorithm>
#include <limits>

#include "graph/bfs.h"
#include "ledger/htlc.h"

namespace flash {

SpeedyMurmursRouter::SpeedyMurmursRouter(const Graph& graph,
                                         const FeeSchedule& fees,
                                         SpeedyMurmursConfig config)
    : graph_(&graph), fees_(&fees), config_(config) {
  build_embeddings();
}

void SpeedyMurmursRouter::build_embeddings() {
  landmarks_.clear();
  coords_.clear();
  const std::size_t n = graph_->num_nodes();
  if (n == 0) return;

  // Landmarks: the highest-degree nodes (well-connected roots give short
  // tree paths, the usual choice in landmark routing).
  std::vector<NodeId> by_degree(n);
  for (NodeId v = 0; v < n; ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return graph_->out_degree(a) > graph_->out_degree(b);
                   });
  const std::size_t count = std::min(config_.num_landmarks, n);
  landmarks_.assign(by_degree.begin(),
                    by_degree.begin() + static_cast<long>(count));

  coords_.resize(landmarks_.size());
  GraphScratch scratch;
  std::vector<NodeId> order;
  for (std::size_t tree = 0; tree < landmarks_.size(); ++tree) {
    const NodeId root = landmarks_[tree];
    // One BFS yields both the spanning tree (scratch.parent) and each
    // node's depth in it (scratch.hops).
    bfs_core<true>(*graph_, root, kInvalidNode, scratch, AdmitAll{});
    auto& coord = coords_[tree];
    coord.assign(n, {});
    // Assign coordinates in BFS order so parents are done before children.
    order.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (scratch.hops.contains(v)) order.push_back(v);
    }
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return scratch.hops.get(a) < scratch.hops.get(b);
    });
    for (NodeId v : order) {
      if (v == root) {
        coord[v] = {v};
        continue;
      }
      const NodeId p = graph_->from(scratch.parent.get(v));
      coord[v] = coord[p];
      coord[v].push_back(v);
    }
  }
}

std::uint32_t SpeedyMurmursRouter::tree_distance(std::size_t tree, NodeId a,
                                                 NodeId b) const {
  const auto& ca = coords_.at(tree).at(a);
  const auto& cb = coords_.at(tree).at(b);
  if (ca.empty() || cb.empty()) {
    return std::numeric_limits<std::uint32_t>::max();  // outside the tree
  }
  std::size_t common = 0;
  const std::size_t limit = std::min(ca.size(), cb.size());
  while (common < limit && ca[common] == cb[common]) ++common;
  return static_cast<std::uint32_t>((ca.size() - common) +
                                    (cb.size() - common));
}

Path SpeedyMurmursRouter::greedy_route(std::size_t tree, NodeId s, NodeId t,
                                       Amount share,
                                       const NetworkState& state) const {
  Path path;
  NodeId cur = s;
  std::uint32_t cur_dist = tree_distance(tree, cur, t);
  if (cur_dist == std::numeric_limits<std::uint32_t>::max()) return {};
  while (cur != t) {
    EdgeId best_edge = kInvalidEdge;
    std::uint32_t best_dist = cur_dist;
    for (EdgeId e : graph_->out_edges(cur)) {
      const NodeId w = graph_->to(e);
      // Local knowledge only: the node sees its own channels' balances.
      if (state.balance(e) < share) continue;
      const std::uint32_t d = tree_distance(tree, w, t);
      if (d < best_dist) {
        best_dist = d;
        best_edge = e;
      }
    }
    if (best_edge == kInvalidEdge) return {};  // stuck
    path.push_back(best_edge);
    cur = graph_->to(best_edge);
    cur_dist = best_dist;
  }
  return path;
}

RouteResult SpeedyMurmursRouter::route(const Transaction& tx,
                                       NetworkState& state) {
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;
  if (landmarks_.empty()) return result;

  // One equal share per landmark tree; the payment succeeds only if every
  // share can be placed (multipath atomicity).
  const std::size_t trees = landmarks_.size();
  const Amount share = tx.amount / static_cast<Amount>(trees);
  if (share <= 0) return result;

  AtomicPayment payment(state);
  Amount fee = 0;
  for (std::size_t tree = 0; tree < trees; ++tree) {
    const Path path = greedy_route(tree, tx.sender, tx.receiver, share, state);
    if (path.empty()) return result;
    if (config_.max_hops != 0 && path.size() > config_.max_hops) {
      return result;  // over the timelock budget
    }
    // Greedy checked balances against the pre-hold view; holding may still
    // fail when shares overlap a channel. Atomicity aborts earlier shares.
    if (!payment.add_part(path, share)) return result;
    fee += fees_->path_fee(path, share);
    ++result.paths_used;
  }
  payment.commit();
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fee;
  return result;
}

}  // namespace flash
