// Mice payment routing: routing table + trial-and-error loop (paper §3.3).
//
// The sender looks up its top-m shortest paths for the receiver and walks
// them in random order. On each path it first tries to send the full
// remaining amount *without probing*; only if that fails does it probe the
// path and send a partial payment equal to the path's effective capacity.
// Probing therefore happens only when necessary - the heart of Flash's
// overhead savings (Fig. 8). Paths with zero effective capacity are
// replaced by the next shortest path. If all m paths are exhausted with
// demand left, the payment fails and all partial holds are rolled back.
#pragma once

#include "graph/graph.h"
#include "graph/scratch.h"
#include "ledger/fee_policy.h"
#include "ledger/network_state.h"
#include "routing/flash/routing_table.h"
#include "routing/router.h"
#include "util/rng.h"

namespace flash {

/// Routes one mice payment. `table` is the sender-side routing table,
/// `rng` drives the random path order. The path-order buffer, probe
/// balances and dead-path staging all live in `scratch` (same
/// thread-affinity contract as the graph algorithms), so a table-hit
/// payment allocates nothing in the routing layer. Mutates `state`,
/// `table`, `rng` and `scratch`: concurrent calls must not share any of
/// them (one router — and so one table/rng/scratch — per concurrent
/// simulation).
RouteResult route_mice(const Graph& g, const Transaction& tx,
                       NetworkState& state, const FeeSchedule& fees,
                       MiceRoutingTable& table, Rng& rng,
                       GraphScratch& scratch);

/// Extension (paper §6 future work: congestion-aware load balancing):
/// probe all table paths up front and split the payment by waterfilling,
/// like Spider does — paying probing overhead on every mice payment in
/// exchange for balance-aware path use. Exposed for the ablation bench
/// that quantifies this tradeoff against the paper's trial-and-error.
/// Same sharing rules as route_mice (minus the rng).
RouteResult route_mice_waterfill(const Graph& g, const Transaction& tx,
                                 NetworkState& state, const FeeSchedule& fees,
                                 MiceRoutingTable& table,
                                 GraphScratch& scratch);

}  // namespace flash
