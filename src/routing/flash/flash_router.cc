#include "routing/flash/flash_router.h"

namespace flash {

FlashRouter::FlashRouter(const Graph& graph, const FeeSchedule& fees,
                         FlashConfig config)
    : graph_(&graph),
      fees_(&fees),
      config_(config),
      table_(graph, RoutingTableConfig{config.m_mice_paths,
                                       config.spare_paths,
                                       config.table_timeout,
                                       config.table_recompute_on_exhaustion,
                                       config.max_route_hops}),
      rng_(config.seed) {}

RouteResult FlashRouter::route(const Transaction& tx, NetworkState& state) {
  Workspace& w = ws();
  if (routes_as_elephant(tx.amount)) {
    ElephantConfig ec;
    ec.max_paths = config_.k_elephant_paths;
    ec.optimize_fees = config_.optimize_fees;
    ec.open_mask = open_mask_;
    ec.max_hops = config_.max_route_hops;
    RouteResult r = route_elephant(*graph_, tx, state, *fees_, ec, w.scratch,
                                   w.probe, w.split);
    r.elephant = is_elephant(tx.amount);
    return r;
  }
  RouteResult r =
      config_.mice_selection == MiceSelection::kWaterfill
          ? route_mice_waterfill(*graph_, tx, state, *fees_, table_, w.scratch)
          : route_mice(*graph_, tx, state, *fees_, table_, rng_, w.scratch);
  r.elephant = false;
  return r;
}

bool FlashRouter::start_prefetch(std::size_t helpers) {
  // If even amount 0 routes as an elephant, so does every positive amount:
  // no mouse ever reaches the table.
  if (routes_as_elephant(0)) return false;
  return table_.start_prefetch(helpers);
}

bool FlashRouter::borrow_prefetch(Router& lender) {
  auto* flash = dynamic_cast<FlashRouter*>(&lender);
  if (!flash || flash == this || !flash->table_.prefetcher()) return false;
  table_.borrow_prefetch(*flash->table_.prefetcher());
  return true;
}

bool FlashRouter::borrow_workspace(Router& lender) {
  auto* flash = dynamic_cast<FlashRouter*>(&lender);
  if (!flash || flash == this) return false;
  borrowed_ws_ = &flash->ws();
  return true;
}

void FlashRouter::prefetch(const Transaction& tx) {
  // Exactly the payments whose route() reaches table_.lookup: mice that
  // pass route_mice's (and route_mice_waterfill's) early return.
  if (routes_as_elephant(tx.amount) || tx.amount <= 0 ||
      tx.sender == tx.receiver) {
    return;
  }
  table_.prefetch(tx.sender, tx.receiver);
}

std::size_t FlashRouter::apply_topology_delta(std::span<const EdgeId> closed,
                                              std::span<const EdgeId> reopened,
                                              bool strict) {
  (void)reopened;  // lazy mode keeps entries stale-but-usable on reopen
  if (strict) {
    const std::size_t n = table_.size();
    table_.clear();
    return n;
  }
  // Elephant probing is stateless per payment (it re-runs the residual BFS
  // against the masked graph every time), so only the mice table holds
  // state to patch — and only closes can make a cached path invalid.
  if (closed.empty()) return 0;
  return table_.invalidate_closed_paths();
}

}  // namespace flash
