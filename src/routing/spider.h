// Spider baseline [Sivaraman et al.]: dynamic routing over 4 edge-disjoint
// shortest paths with a "waterfilling" heuristic that balances the load
// toward the paths with maximum available capacity (paper §4.1).
//
// Spider treats every payment the same: it probes all of its paths on every
// payment (that is what makes its probing overhead high in Fig. 8), then
// splits the payment so that the most-available paths are used first.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "ledger/fee_policy.h"
#include "routing/router.h"

namespace flash {

struct SpiderConfig {
  /// Number of edge-disjoint shortest paths per pair (paper: 4).
  std::size_t num_paths = 4;
  /// Timelock budget as a hop cap (0 = unlimited): paths longer than this
  /// are dropped from the per-pair set before waterfilling, so capacity on
  /// over-budget paths never counts toward feasibility.
  std::size_t max_hops = 0;
};

class SpiderRouter : public Router {
 public:
  SpiderRouter(const Graph& graph, const FeeSchedule& fees,
               SpiderConfig config = {});

  RouteResult route(const Transaction& tx, NetworkState& state) override;
  std::string name() const override { return "Spider"; }
  void on_topology_update() override { cache_.clear(); }

  bool supports_incremental_maintenance() const override { return true; }
  void set_open_mask(const unsigned char* mask) override { open_mask_ = mask; }
  /// Same invalidation rule as ShortestPathRouter, applied to the whole
  /// edge-disjoint set: a pair is dropped iff any of its cached paths
  /// crosses a now-closed edge (the greedy BFS sequence is stable under
  /// deleting edges no cached path uses; see docs/ARCHITECTURE.md).
  std::size_t apply_topology_delta(std::span<const EdgeId> closed,
                                   std::span<const EdgeId> reopened,
                                   bool strict) override;
  /// Searches in the scratch `lender` (a SpiderRouter) searches in.
  bool borrow_workspace(Router& lender) override;

  /// Waterfilling split of `demand` across paths with available capacities
  /// `caps`: repeatedly pours into the path(s) with the most remaining
  /// capacity, leveling them downward. Returns per-path amounts summing to
  /// min(demand, sum caps). Exposed for unit testing.
  static std::vector<Amount> waterfill(const std::vector<Amount>& caps,
                                       Amount demand);

 private:
  const Graph* graph_;
  const FeeSchedule* fees_;
  SpiderConfig config_;
  const unsigned char* open_mask_ = nullptr;  // borrowed; null = all open
  /// Edge-disjoint shortest paths are static per pair; cache them.
  std::unordered_map<std::uint64_t, std::vector<Path>> cache_;
  GraphScratch scratch_;  // path-search workspace for cache misses
  GraphScratch* borrowed_ = nullptr;  // the lender's (borrow_workspace)
  GraphScratch& scratch() { return borrowed_ ? *borrowed_ : scratch_; }

  const std::vector<Path>& paths_for(NodeId s, NodeId t);
};

}  // namespace flash
