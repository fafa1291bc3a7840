// Elephant payment routing: Algorithm 1 + fee-minimizing split (paper §3.2).
//
// Path finding runs the paper's modified Edmonds-Karp: BFS on the residual
// graph (edges assumed to have capacity until probed), probe each new path
// to learn real balances, update residuals, for at most k paths; the
// demand check happens after the loop (Algorithm 1 lines 25-28), so the
// path set usually carries surplus capacity. Path selection then solves
// program (1) to split the payment across the found paths with minimum
// total fees; the sequential (discovery-order) split is available as the
// "w/o optimization" ablation of Fig. 9.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "ledger/fee_policy.h"
#include "ledger/network_state.h"
#include "lp/fee_min.h"
#include "routing/router.h"

namespace flash {

/// Tuning knobs for the elephant pipeline. Plain value type.
struct ElephantConfig {
  /// Maximum number of paths to find and probe (the paper's k; default 20,
  /// with 20-30 recommended for realistic topologies, §3.2/§4.1).
  std::size_t max_paths = 20;
  /// When false, skip the LP and fill paths in discovery order (Fig. 9
  /// baseline).
  bool optimize_fees = true;
  /// Optional per-directed-edge open mask (borrowed; null = all open):
  /// the residual BFS refuses masked-closed edges, so probing behaves as
  /// if they were absent (incremental maintenance, sim/scenario.h).
  const unsigned char* open_mask = nullptr;
  /// Timelock budget as a hop cap (0 = unlimited): the probe loop stops
  /// once the residual BFS (shortest-path) augmenting path exceeds it —
  /// every remaining augmenting path at that point is at least as long.
  std::size_t max_hops = 0;
};

/// Outcome of the probing phase (Algorithm 1).
struct ElephantProbeResult {
  bool feasible = false;            // f >= d after the loop
  std::vector<Path> paths;          // the path set P
  std::vector<Amount> bottlenecks;  // per-path residual bottleneck c
  /// Probed capacity matrix C, in probe order: each directed edge is
  /// recorded when it is first probed. That insertion order is the fee
  /// LP's constraint order — canonical and portable (no dependence on any
  /// standard library's hash iteration order).
  ProbedCapacities capacities;
  Amount max_flow = 0;              // f
  std::uint32_t probes = 0;         // number of path probes issued
};

/// Algorithm 1: modified Edmonds-Karp with probing against `state`, run
/// in `scratch` (residuals and the per-iteration BFS live in flat
/// epoch-stamped edge arrays — no hash-map lookups anywhere) into
/// `result`, whose buffers are reused, including the flat probed capacity
/// matrix. Zero steady-state allocations. Mutates only `state` (probe
/// metering), `scratch` and `result`; safe to call concurrently on
/// distinct NetworkStates with distinct workspaces.
void elephant_find_paths_into(const Graph& g, NodeId s, NodeId t,
                              Amount demand, std::size_t max_paths,
                              NetworkState& state, GraphScratch& scratch,
                              ElephantProbeResult& result,
                              const unsigned char* open_mask = nullptr,
                              std::size_t max_hops = 0);

/// Full elephant pipeline: find paths, split (LP or sequential), execute
/// atomically against the ledger. The caller's workspaces run the whole
/// pipeline: graph scratch for probing/netting, a reusable probe result,
/// and the split workspace for program (1) (FlashRouter passes its own).
/// Allocation-free in steady state. Mutates only `state` and the
/// workspaces; safe to call concurrently on distinct NetworkStates with
/// distinct workspaces.
RouteResult route_elephant(const Graph& g, const Transaction& tx,
                           NetworkState& state, const FeeSchedule& fees,
                           const ElephantConfig& config, GraphScratch& scratch,
                           ElephantProbeResult& probe_buf,
                           SplitWorkspace& split_ws);

}  // namespace flash
