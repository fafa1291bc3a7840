#include "routing/flash/elephant.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "graph/bfs.h"

namespace flash {

namespace {
constexpr Amount kEps = 1e-9;
}

void elephant_find_paths_into(const Graph& g, NodeId s, NodeId t,
                              Amount demand, std::size_t max_paths,
                              NetworkState& state, GraphScratch& scratch,
                              ElephantProbeResult& result,
                              const unsigned char* open_mask,
                              std::size_t max_hops) {
  result.feasible = false;
  result.bottlenecks.clear();
  // O(1) epoch reset; entries accumulate in probe order, which is the fee
  // LP's canonical constraint order (identical across standard libraries,
  // unlike the unordered_map this replaced).
  result.capacities.reset(g.num_edges());
  result.max_flow = 0;
  result.probes = 0;
  std::size_t num_paths = 0;
  auto finish = [&] {
    result.paths.resize(num_paths);
    result.feasible = result.max_flow + kEps >= demand;
  };
  if (s == t || demand <= 0) {
    // Not finish(): a degenerate request must stay infeasible, while
    // finish() would report feasible for demand <= 0 (0 + eps >= demand).
    result.paths.resize(0);
    return;
  }

  // Residual capacity matrix C' (line 5), flat and epoch-stamped: unknown
  // (unstamped) edges are treated as having capacity (= infinity) so BFS
  // may explore them; probed edges use their residual value.
  auto& residual = scratch.edge_amount;
  residual.reset(g.num_edges());
  // Raw view (see StampedArray::View): keeps the epoch and array bases in
  // registers inside the BFS inner loop. Updates through `residual` stay
  // visible — the view aliases the same storage and the epoch does not
  // change until the next reset().
  const auto rview = residual.view();
  // The mask test stays ahead of the residual read: a masked-closed edge
  // must look absent (never probed, never entered in C'), exactly like an
  // edge the sender's compacted view graph would not contain.
  const unsigned char* mask = open_mask;
  auto residual_admits = [rview, mask](EdgeId e) {
    if (mask != nullptr && mask[e] == 0) return false;
    return rview.stamp[e] != rview.epoch || rview.vals[e] > kEps;
  };

  Path& p = scratch.pool.alloc();
  auto& balances = scratch.balance_buf;
  while (num_paths < max_paths) {
    // Line 7: BFS on G with residual filter.
    p.clear();
    if (!bfs_path_core(g, s, t, scratch, residual_admits, p) || p.empty()) {
      break;  // line 8-9
    }
    // Timelock budget: the residual BFS path is the shortest augmenting
    // path, so once it exceeds the hop cap probing stops (paths are never
    // probed, so the HTLC sender cannot lock funds it could not unwind
    // within its budget).
    if (max_hops != 0 && p.size() > max_hops) break;

    // Line 11: probe each channel on p. The probe returns the balances of
    // both directions of every channel on the path (the PROBE_ACK carries
    // the Capacity field both ways, §5.1 / Algorithm 1 lines 17-22).
    state.probe_path_into(p, balances);
    ++result.probes;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const EdgeId e = p[i];
      const EdgeId rev = g.reverse(e);
      if (!residual.contains(e)) {  // line 17: first time
        result.capacities.insert(e, balances[i]);
        residual.set(e, balances[i]);
      }
      if (!residual.contains(rev)) {  // line 20
        const Amount rev_balance = state.balance(rev);
        result.capacities.insert(rev, rev_balance);
        residual.set(rev, rev_balance);
      }
    }

    // Line 12: bottleneck over the *residual* capacities (fresh edges have
    // residual == probed balance; edges reused across paths keep their
    // reduced residual).
    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (EdgeId e : p) bottleneck = std::min(bottleneck, residual.get(e));
    bottleneck = std::max<Amount>(bottleneck, 0);

    assign_path_slot(result.paths, num_paths++, p);
    result.bottlenecks.push_back(bottleneck);

    if (bottleneck > kEps) {
      result.max_flow += bottleneck;  // line 13
      for (EdgeId e : p) {
        residual.slot(e) -= bottleneck;               // line 23
        residual.slot(g.reverse(e)) += bottleneck;    // line 24
      }
    }
    // Note: no early exit when f >= d. Algorithm 1 checks the demand only
    // after the loop (lines 25-28), i.e. it always gathers up to k paths.
    // The surplus capacity is what gives program (1) room to shift flow
    // onto cheap paths (the ~40 % fee saving of Fig. 9).
  }
  scratch.pool.pop();
  finish();
}

RouteResult route_elephant(const Graph& g, const Transaction& tx,
                           NetworkState& state, const FeeSchedule& fees,
                           const ElephantConfig& config, GraphScratch& scratch,
                           ElephantProbeResult& probe_buf,
                           SplitWorkspace& split_ws) {
  RouteResult result;
  result.elephant = true;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;

  const std::uint64_t msgs_before = state.probe_messages();
  ElephantProbeResult& probe = probe_buf;
  elephant_find_paths_into(g, tx.sender, tx.receiver, tx.amount,
                           config.max_paths, state, scratch, probe,
                           config.open_mask, config.max_hops);
  result.probes = probe.probes;
  result.probe_messages = state.probe_messages() - msgs_before;
  if (!probe.feasible) return result;  // Algorithm 1 returns empty set

  // Path selection: program (1), or the discovery-order fill ablation.
  SplitResult& split = split_ws.split_buf;
  if (config.optimize_fees) {
    optimize_fee_split_core(g, probe.paths, tx.amount, probe.capacities,
                            fees, split_ws, split);
    if (!split.feasible) {
      // LP numerically degenerate (rare): fall back to the sequential
      // fill, which is feasible whenever Algorithm 1 reported f >= d.
      sequential_split_core(g, probe.paths, tx.amount, probe.capacities,
                            fees, split_ws, split);
    }
  } else {
    sequential_split_core(g, probe.paths, tx.amount, probe.capacities, fees,
                          split_ws, split);
  }
  if (!split.feasible) return result;

  // Net the split into per-edge amounts: opposite directions offset
  // (program (1) allows it, and committing the net flow is what the
  // channel balances experience after all partial payments settle).
  // Sparse: only the channels the used paths touch are visited, not the
  // whole edge array; `channels` records them in first-touch order.
  auto& net = scratch.edge_amount;
  net.reset(g.num_edges());
  auto& channels = split_ws.net_channels;
  channels.clear();
  for (std::size_t i = 0; i < probe.paths.size(); ++i) {
    if (split.amounts[i] <= kEps) continue;
    ++result.paths_used;
    for (EdgeId e : probe.paths[i]) {
      const EdgeId fwd = e & ~1u;
      if (!net.contains(fwd) && !net.contains(g.reverse(fwd))) {
        channels.push_back(fwd);
      }
      net.slot(e) += split.amounts[i];
    }
  }
  auto& flow = scratch.flow_buf;
  flow.clear();
  for (const EdgeId e : channels) {
    const EdgeId r = g.reverse(e);
    const Amount delta = net.get_or(e, 0) - net.get_or(r, 0);
    if (delta > kEps) {
      flow.emplace_back(e, delta);
    } else if (delta < -kEps) {
      flow.emplace_back(r, -delta);
    }
  }

  // Single netted flow, held then committed (hold_flow aggregates and
  // checks feasibility atomically, so this is the AMP contract with one
  // part; nothing is held on failure).
  const auto hold = state.hold_flow(flow);
  if (!hold) {
    return result;  // balances changed since probing; atomic failure
  }
  state.commit(*hold);
  result.success = true;
  result.delivered = tx.amount;
  result.fee = split.total_fee;
  return result;
}

}  // namespace flash
