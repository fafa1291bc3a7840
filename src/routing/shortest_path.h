// Shortest Path (SP) baseline: route the whole payment over the single
// fewest-hops path (paper §4.1). Static: no probing, no balance awareness;
// the payment fails if any hop lacks balance.
#pragma once

#include <unordered_map>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "ledger/fee_policy.h"
#include "routing/router.h"

namespace flash {

class ShortestPathRouter : public Router {
 public:
  /// `fees` is used only for reporting the fee metric; it must outlive the
  /// router, as must `graph`. `max_hops` caps route length (0 = unlimited):
  /// a payment whose shortest path exceeds it fails — the HTLC timelock
  /// budget (scenario engine) rejects paths whose cumulative timelock the
  /// sender cannot afford.
  ShortestPathRouter(const Graph& graph, const FeeSchedule& fees,
                     std::size_t max_hops = 0);

  RouteResult route(const Transaction& tx, NetworkState& state) override;
  std::string name() const override { return "SP"; }
  void on_topology_update() override { cache_.clear(); }

  bool supports_incremental_maintenance() const override { return true; }
  void set_open_mask(const unsigned char* mask) override { open_mask_ = mask; }
  /// Lazy mode drops only pairs whose cached path crosses a now-closed
  /// edge; surviving paths are provably what a fresh masked BFS would
  /// return (FIFO discovery order is stable under deleting non-path
  /// edges — see docs/ARCHITECTURE.md). Reopens keep entries stale (a
  /// cached path stays valid; a newly shorter one is not picked up).
  std::size_t apply_topology_delta(std::span<const EdgeId> closed,
                                   std::span<const EdgeId> reopened,
                                   bool strict) override;

 private:
  const Graph* graph_;
  const FeeSchedule* fees_;
  std::size_t max_hops_ = 0;                  // 0 = unlimited
  const unsigned char* open_mask_ = nullptr;  // borrowed; null = all open
  /// Shortest paths are static given the topology, so cache per pair.
  std::unordered_map<std::uint64_t, Path> cache_;
  GraphScratch scratch_;  // BFS workspace for cache misses

  const Path& shortest_path(NodeId s, NodeId t);
};

}  // namespace flash
