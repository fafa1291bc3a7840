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
#include <cassert>
#include <cstdint>

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

namespace bfs_detail {

/// Appends the edges of `u`'s parent chain in scratch.parent (s -> u).
inline void append_parent_chain(const Graph& g, NodeId s, NodeId u,
                                const GraphScratch& scratch, Path& path_out) {
  const std::size_t first = path_out.size();
  for (NodeId cur = u; cur != s;) {
    const EdgeId e = scratch.parent.get(cur);
    path_out.push_back(e);
    cur = g.from(e);
  }
  std::reverse(path_out.begin() + static_cast<long>(first), path_out.end());
}

/// Bidirectional search of bfs_path_core on a finalized graph, s != t.
template <typename FilterFn>
bool bidirectional_path(const Graph& g, NodeId s, NodeId t,
                        GraphScratch& scratch, FilterFn& admit,
                        Path& path_out) {
  const std::size_t n = g.num_nodes();
  scratch.parent.reset(n);
  scratch.hops.reset(n);
  if (scratch.bfs_queue.size() < n) scratch.bfs_queue.resize(n);
  if (scratch.bfs_back_queue.size() < n) scratch.bfs_back_queue.resize(n);
  // Forward side: parent (as in bfs_core) and queue fq; backward side: the
  // distance to t in `to_t` and queue bq. Each side's last complete layer
  // is [begin, end) of its queue; `b` is the backward layer's distance.
  NodeId* const fq = scratch.bfs_queue.data();
  NodeId* const bq = scratch.bfs_back_queue.data();
  const auto parent = scratch.parent.view();
  const auto to_t = scratch.hops.view();
  parent.set(s, kInvalidEdge);
  to_t.set(t, 0);
  fq[0] = s;
  bq[0] = t;
  std::size_t f_begin = 0, f_end = 1, b_begin = 0, b_end = 1;
  std::uint32_t b = 0;
  // The meeting arc: the first admitted arc, in forward scan order, from
  // the forward frontier into backward distance b.
  NodeId meet = kInvalidNode;
  EdgeId meet_edge = kInvalidEdge;
  for (;;) {
    if (f_end - f_begin <= b_end - b_begin) {
      // Forward layer: bfs_core's loop, which meets the other side at the
      // first admitted arc into a node with a distance to t.
      std::size_t tail = f_end;
      for (std::size_t i = f_begin; i < f_end && meet == kInvalidNode; ++i) {
        const NodeId u = fq[i];
        for (const Graph::Arc a : g.out_arcs(u)) {
          const NodeId v = a.head;
          if (parent.contains(v)) continue;
          if (!admit(a.edge)) continue;
          if (to_t.contains(v)) {
            meet = u;
            meet_edge = a.edge;
            break;
          }
          parent.set(v, a.edge);
          fq[tail++] = v;
        }
      }
      if (meet != kInvalidNode) break;
      if (tail == f_end) return false;  // s's side ran dry
      f_begin = f_end;
      f_end = tail;
    } else {
      // Backward layer over admitted in-arcs: x -> w is reverse(w -> x).
      std::size_t tail = b_end;
      bool met = false;
      for (std::size_t i = b_begin; i < b_end && !met; ++i) {
        for (const Graph::Arc a : g.out_arcs(bq[i])) {
          const NodeId x = a.head;
          if (to_t.contains(x)) continue;
          if (!admit(g.reverse(a.edge))) continue;
          if (parent.contains(x)) {
            met = true;
            break;
          }
          to_t.set(x, b + 1);
          bq[tail++] = x;
        }
      }
      if (met) {
        // Find the meeting arc the forward scan would have met first.
        for (std::size_t i = f_begin; i < f_end && meet == kInvalidNode;
             ++i) {
          for (const Graph::Arc a : g.out_arcs(fq[i])) {
            if (to_t.get_or(a.head, kUnreachable) == b && admit(a.edge)) {
              meet = fq[i];
              meet_edge = a.edge;
              break;
            }
          }
        }
        break;
      }
      if (tail == b_end) return false;  // t's side ran dry
      b_begin = b_end;
      b_end = tail;
      ++b;
    }
  }
  append_parent_chain(g, s, meet, scratch, path_out);
  path_out.push_back(meet_edge);
  // Walk down to t: each step takes the first admitted arc one step closer.
  NodeId cur = g.to(meet_edge);
  for (std::uint32_t d = to_t.get(cur); d > 0; --d) {
    for (const Graph::Arc a : g.out_arcs(cur)) {
      if (to_t.get_or(a.head, kUnreachable) == d - 1 && admit(a.edge)) {
        path_out.push_back(a.edge);
        cur = a.head;
        break;
      }
    }
  }
  assert(cur == t);
  return true;
}

}  // namespace bfs_detail

/// Core fewest-hops path: appends the s->t edge sequence of bfs_core's
/// search (its parent chain of t) to `path_out` (cleared by the caller if
/// a fresh path is wanted). Returns true when t was reached (s == t counts:
/// valid zero-length path).
///
/// On a finalized graph the search is bidirectional and returns exactly
/// bfs_core's path while scanning far fewer arcs. It grows the smaller
/// frontier one complete layer at a time: forward from s with bfs_core's
/// loop, or backward from t over admitted in-arcs, recording each node's
/// distance to t. Say forward layers 0..a and backward layers 0..b are
/// complete with no meeting yet; then the distance D exceeds a + b, so the
/// first admitted arc between the sides runs from forward layer a into
/// backward distance b, and D = a + b + 1. The path is the parent chain of
/// u, the first node of layer a in queue order with such an arc, then u's
/// first such arc e, then a walk from e's head that takes each node's
/// first admitted arc one step closer to t. That is bfs_core's path: a
/// node with an admitted arc into a node of the next layer that lies on a
/// shortest s-t path lies on one itself, so the forward loop discovers the
/// first shortest-path node of layer i + 1 from the first one of layer i,
/// through its first admitted arc into distance D - i - 1; no earlier node
/// can claim it first. Unfinalized graphs run bfs_core itself.
///
/// Contract: after the call scratch.parent (and scratch.hops) hold only a
/// partial search state, like dijkstra_core's s->t queries; read the
/// result only through the return value and `path_out`. `admit` must be a
/// pure predicate: the two searches query different edges.
template <typename FilterFn>
bool bfs_path_core(const Graph& g, NodeId s, NodeId t, GraphScratch& scratch,
                   FilterFn&& admit, Path& path_out) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) return false;
  if (s == t) return true;
  if (g.finalized()) {
    return bfs_detail::bidirectional_path(g, s, t, scratch, admit, path_out);
  }
  bfs_core(g, s, t, scratch, admit);
  if (!scratch.parent.contains(t)) return false;
  bfs_detail::append_parent_chain(g, s, t, scratch, path_out);
  return true;
}

}  // namespace flash
