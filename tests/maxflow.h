// Classical Edmonds-Karp max-flow on known capacities: a test oracle.
//
// The paper's Algorithm 1 is a *probing* variant of Edmonds-Karp that only
// learns capacities lazily; this header implements the classical algorithm
// with full capacity knowledge. It is the ground truth the tests compare
// Algorithm 1 against; no library code calls it, so it lives with the
// tests.
#pragma once

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

struct MaxFlowResult {
  Amount value = 0;                 // total s->t flow
  std::vector<Amount> edge_flow;    // net flow per directed edge (may be 0)
  std::vector<Path> paths;          // augmenting paths in discovery order
  std::vector<Amount> path_amounts; // bottleneck pushed along each path
};

/// Edmonds-Karp max flow from s to t under `capacity` (a callable giving
/// each directed edge's capacity, >= 0), running in `scratch` and reusing
/// `result`'s buffers (allocation-free once both are warm). Residuals live
/// in scratch.amount_buf; the per-iteration BFS runs on the scratch queue
/// and epoch-stamped parent marks.
///
/// `limit` optionally stops the search once the flow reaches `limit`
/// (useful when only "is there a flow of at least d" matters, as in
/// elephant routing feasibility checks). Pass a negative limit for the
/// full max flow. `max_paths` caps the number of augmenting iterations
/// (0 = unlimited), which yields the k-iteration variant the paper builds
/// Algorithm 1 from.
template <typename CapacityFn>
void edmonds_karp_core(const Graph& g, NodeId s, NodeId t,
                       CapacityFn&& capacity, Amount limit,
                       std::size_t max_paths, GraphScratch& scratch,
                       MaxFlowResult& result) {
  result.value = 0;
  result.edge_flow.assign(g.num_edges(), 0);
  result.path_amounts.clear();
  std::size_t num_paths = 0;
  auto finish = [&] { result.paths.resize(num_paths); };
  if (s == t || s >= g.num_nodes() || t >= g.num_nodes()) {
    finish();
    return;
  }

  // Residual capacity of edge e = capacity(e) - flow(e) + flow(reverse(e)):
  // pushing flow on the reverse direction frees capacity here. We track
  // residuals directly for O(1) updates.
  auto& residual = scratch.amount_buf;
  residual.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) residual[e] = capacity(e);

  constexpr Amount kEps = 1e-12;
  Path& path = scratch.pool.alloc();
  while (max_paths == 0 || num_paths < max_paths) {
    if (limit >= 0 && result.value >= limit) break;
    // BFS over edges with positive residual.
    bfs_core(g, s, t, scratch,
             [&residual](EdgeId e) { return residual[e] > kEps; });
    if (!scratch.parent.contains(t)) break;

    // Extract the augmenting path and its bottleneck.
    path.clear();
    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (NodeId cur = t; cur != s; cur = g.from(scratch.parent.get(cur))) {
      const EdgeId e = scratch.parent.get(cur);
      path.push_back(e);
      bottleneck = std::min(bottleneck, residual[e]);
    }
    std::reverse(path.begin(), path.end());
    if (limit >= 0) bottleneck = std::min(bottleneck, limit - result.value);
    assert(bottleneck > 0);

    for (EdgeId e : path) {
      residual[e] -= bottleneck;
      residual[g.reverse(e)] += bottleneck;
      result.edge_flow[e] += bottleneck;
    }
    result.value += bottleneck;
    assign_path_slot(result.paths, num_paths++, path);
    result.path_amounts.push_back(bottleneck);
  }
  scratch.pool.pop();

  // Report net flow per edge (cancel opposite directions).
  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    const EdgeId r = g.reverse(e);
    const Amount net = result.edge_flow[e] - result.edge_flow[r];
    result.edge_flow[e] = std::max<Amount>(net, 0);
    result.edge_flow[r] = std::max<Amount>(-net, 0);
  }
  finish();
}

}  // namespace flash
