// k edge-disjoint shortest paths.
//
// Spider routes every payment over 4 edge-disjoint shortest paths
// (paper §4.1); the paths are found greedily: repeatedly take a fewest-hops
// path and remove its edges. Figure 5(b) of the paper discusses why
// edge-disjointness is not always ideal — which is exactly the behaviour
// this module lets the benchmarks demonstrate.
#pragma once

#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

/// Writes up to k pairwise edge-disjoint s->t paths into `out`
/// (slot-reused, then resized; see assign_path_slot), each a fewest-hops
/// path in the graph remaining after removing the previously chosen paths'
/// edges. Only the traversed direction of a channel is removed; the reverse
/// direction stays available (channel directions have independent
/// balances). Used edges are tracked as scratch.edge_ban marks;
/// allocation-free once the scratch is warm.
inline void edge_disjoint_core(const Graph& g, NodeId s, NodeId t,
                               std::size_t k, GraphScratch& scratch,
                               std::vector<Path>& out,
                               const unsigned char* open_mask = nullptr) {
  std::size_t found = 0;
  if (s != t && s < g.num_nodes() && t < g.num_nodes()) {
    scratch.edge_ban.reset(g.num_edges());
    // Optional open mask (incremental maintenance): masked-closed edges are
    // treated exactly like edges consumed by an earlier path — invisible.
    auto admit = [&scratch, open_mask](EdgeId e) {
      if (open_mask != nullptr && open_mask[e] == 0) return false;
      return !scratch.edge_ban.get_or(e, 0);
    };
    Path& p = scratch.pool.alloc();
    while (found < k) {
      p.clear();
      if (!bfs_path_core(g, s, t, scratch, admit, p) || p.empty()) break;
      for (EdgeId e : p) scratch.edge_ban.set(e, 1);
      assign_path_slot(out, found++, p);
    }
    scratch.pool.pop();
  }
  out.resize(found);
}

}  // namespace flash
