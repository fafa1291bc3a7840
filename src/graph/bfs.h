// Breadth-first search primitives.
//
// BFS over admissible edges is the path-discovery core of the paper's
// Algorithm 1 ("Breath-First-Search(G, C', s, t)"): Flash repeatedly finds a
// fewest-hops path whose residual capacity is non-zero.
//
// Like every graph algorithm here, the searches are templated,
// allocation-free *_core functions that run in a caller-provided
// GraphScratch; read results from the scratch or the caller's path buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

/// Hop count of a node no search reached.
inline constexpr std::uint32_t kUnreachable = 0xffffffffu;

/// Admit-everything filter: pass it where every edge may be traversed.
struct AdmitAll {
  bool operator()(EdgeId) const { return true; }
};

/// Core BFS from src over edges accepted by `admit`, recording the
/// discovering edge of each reached node in scratch.parent (src itself is
/// stamped with kInvalidEdge; scratch.parent.contains(v) == "v reached").
/// Stops early once `stop_at` is discovered (kInvalidNode explores the full
/// reachable set). Hop counts land in scratch.hops only when kRecordHops is
/// set — path queries skip that store in the hottest loop (elephant
/// probing). No-op for out-of-range src.
template <bool kRecordHops = false, typename FilterFn>
void bfs_core(const Graph& g, NodeId src, NodeId stop_at,
              GraphScratch& scratch, FilterFn&& admit) {
  const std::size_t n = g.num_nodes();
  scratch.parent.reset(n);
  if constexpr (kRecordHops) scratch.hops.reset(n);
  if (src >= n) return;
  auto& queue = scratch.bfs_queue;
  scratch.parent.set(src, kInvalidEdge);
  if constexpr (kRecordHops) scratch.hops.set(src, 0);
  if (g.finalized()) {
    // Packed-arc fast path: identical traversal order, but (a) the head
    // node rides in the same sequential stream as the edge id (no random
    // to(e) load per visited edge), and (b) the stamped arrays and the
    // queue are driven through raw-pointer views so the epoch, array
    // bases and queue cursor live in registers across the whole search
    // (this loop is the probing hot path of Algorithm 1). Every node is
    // enqueued at most once, so sizing the buffer to num_nodes once (it
    // never shrinks) lets the queue be a plain cursor-driven array —
    // entries beyond `tail` are stale garbage from earlier queries, which
    // is fine for scratch-internal working state.
    if (queue.size() < n) queue.resize(n);
    NodeId* const q = queue.data();
    std::size_t tail = 0;
    const auto parent = scratch.parent.view();
    q[tail++] = src;
    for (std::size_t head = 0; head < tail; ++head) {
      const NodeId u = q[head];
      for (const Graph::Arc a : g.out_arcs(u)) {
        const NodeId v = a.head;
        if (parent.contains(v)) continue;
        if (!admit(a.edge)) continue;
        parent.set(v, a.edge);
        if constexpr (kRecordHops) {
          scratch.hops.set(v, scratch.hops.get(u) + 1);
        }
        if (v == stop_at) return;
        q[tail++] = v;
      }
    }
    return;
  }
  queue.clear();
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.to(e);
      if (scratch.parent.contains(v)) continue;
      if (!admit(e)) continue;
      scratch.parent.set(v, e);
      if constexpr (kRecordHops) {
        scratch.hops.set(v, scratch.hops.get(u) + 1);
      }
      if (v == stop_at) return;
      queue.push_back(v);
    }
  }
}

/// Core fewest-hops path: appends the s->t edge sequence found by bfs_core
/// to `path_out` (cleared by the caller if a fresh path is wanted). Returns
/// true when t was reached (s == t counts: valid zero-length path).
template <typename FilterFn>
bool bfs_path_core(const Graph& g, NodeId s, NodeId t, GraphScratch& scratch,
                   FilterFn&& admit, Path& path_out) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) return false;
  if (s == t) return true;
  bfs_core(g, s, t, scratch, std::forward<FilterFn>(admit));
  if (!scratch.parent.contains(t)) return false;
  const std::size_t first = path_out.size();
  NodeId cur = t;
  while (cur != s) {
    const EdgeId e = scratch.parent.get(cur);
    path_out.push_back(e);
    cur = g.from(e);
  }
  std::reverse(path_out.begin() + static_cast<long>(first), path_out.end());
  return true;
}

}  // namespace flash
