// Weighted shortest path (Dijkstra) with pluggable edge weights.
//
// Used by Yen's k-shortest-paths and by routers that weight hops by fees.
// dijkstra_core / dijkstra_distances_core are templated and allocation-free:
// they run in a caller-provided GraphScratch, and edge weights are
// compile-time callables, so the inner loop has no indirect call.
#pragma once

#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

/// Weight callables return a non-negative weight per directed edge, or
/// `kEdgeBanned` to exclude the edge entirely.
inline constexpr double kEdgeBanned = std::numeric_limits<double>::infinity();

/// Unit edge weight (hop counting).
struct UnitWeight {
  double operator()(EdgeId) const { return 1.0; }
};

/// Unit weight over the edges an open mask admits: 1 where mask[e] != 0,
/// kEdgeBanned elsewhere, so a closed channel direction behaves exactly as
/// if it were absent. `mask` must cover every edge id of the graph searched.
struct MaskedUnitWeight {
  const unsigned char* mask;
  double operator()(EdgeId e) const { return mask[e] ? 1.0 : kEdgeBanned; }
};

/// True for a *hop weight*: a weight type whose every edge costs 1 or
/// kEdgeBanned. dijkstra_core runs s->t queries under a hop weight in its
/// hop-count loop (see there), which is exact only under that guarantee;
/// specialise it for a new type only if the type can return nothing else.
template <typename WeightFn>
inline constexpr bool kIsHopWeight = false;
template <>
inline constexpr bool kIsHopWeight<UnitWeight> = true;
template <>
inline constexpr bool kIsHopWeight<MaskedUnitWeight> = true;

/// Result of a single-pair query (the path is appended to a caller buffer).
struct DijkstraCoreResult {
  double distance = std::numeric_limits<double>::infinity();
  bool found = false;
};

/// Core Dijkstra: shortest s->t path under `weight`, running entirely in
/// `scratch` (allocation-free once the scratch is warm).
///
/// When `use_bans` is true, nodes marked in scratch.node_ban and edges
/// marked in scratch.edge_ban are excluded; the marks are set by the caller
/// before the call and survive it (they live on their own epochs), which is
/// what Yen's spur loop needs. On success the s->t edge sequence is
/// *appended* to `path_out` (existing content, e.g. Yen's root prefix, is
/// kept). Out-of-range or invalid s/t yields found == false.
///
/// Passing t == kInvalidNode switches to all-targets mode: the full
/// reachable set is settled (no early exit, no path reconstruction, found
/// stays false) and the distances/shortest-path tree remain in
/// scratch.dist/scratch.parent — see dijkstra_distances_core.
///
/// `cutoff` (default +inf) abandons the search once the tentative
/// frontier exceeds it: t is then reported unreachable unless
/// dist(t) <= cutoff. Settle order up to the cutoff is identical to the
/// unbounded search, so any path found is bit-identical to the unbounded
/// one — callers may prune with it whenever they would discard costlier
/// results anyway (Yen's candidate bound).
///
/// Under a hop weight (kIsHopWeight) an s->t query runs the hop-count
/// loop: it stops as soon as t is first labeled, and skips an
/// already-labeled head before its ban and weight lookups. Both are exact:
/// nodes pop in non-decreasing distance, so a later relaxation of a
/// labeled node offers d + 1 >= its label and never replaces it. Its heap
/// holds 8-byte HopEntry labels; they are exact small integers, so every
/// comparison answers as DistEntry's double compare does and the heap
/// makes the same moves. The push/pop sequence up to t's first label is
/// that of the full loop, so found, distance and path are bit-identical to
/// it, cutoff included.
///
/// Contract: after an s->t query, scratch.dist/scratch.parent hold only a
/// partial tree: whatever was labeled before the search stopped. Read an
/// s->t result only through the return value and `path_out`; only
/// all-targets mode leaves the full tree behind.
template <typename WeightFn>
DijkstraCoreResult dijkstra_core(
    const Graph& g, NodeId s, NodeId t, GraphScratch& scratch,
    WeightFn&& weight, bool use_bans, Path& path_out,
    double cutoff = std::numeric_limits<double>::infinity()) {
  DijkstraCoreResult result;
  const std::size_t n = g.num_nodes();
  const bool all_targets = t == kInvalidNode;
  // Reset before the early returns (like bfs_core) so scratch.dist/parent
  // never hold a previous query's state after this call.
  scratch.dist.reset(n);
  scratch.parent.reset(n);
  if (s >= n || (!all_targets && t >= n)) return result;
  if (use_bans && (scratch.node_ban.get_or(s, 0) ||
                   (!all_targets && scratch.node_ban.get_or(t, 0)))) {
    return result;
  }
  if (!all_targets && s == t) {
    result.found = true;
    result.distance = 0.0;
    return result;
  }
  const double inf = std::numeric_limits<double>::infinity();
  scratch.dist.set(s, 0.0);
  // Raw views (see StampedArray::View): epochs and array bases stay in
  // registers across the whole search. The ban views are only indexed
  // when use_bans is set, in which case the caller (Yen / edge-disjoint)
  // has reset both ban arrays to this graph's size.
  const auto dist = scratch.dist.view();
  const auto parent = scratch.parent.view();
  const auto nban = scratch.node_ban.view();
  const auto eban = scratch.edge_ban.view();
  const bool finalized = g.finalized();
  // Calls relax(e, head) for each out-edge of u in order until it returns
  // true; returns whether it did.
  auto for_each_out = [&](NodeId u, auto&& relax) {
    if (finalized) {
      // Packed-arc loop: head node in the same sequential stream as the
      // edge id (see Graph::out_arcs); relaxation order is identical.
      for (const Graph::Arc a : g.out_arcs(u)) {
        if (relax(a.edge, a.head)) return true;
      }
    } else {
      for (EdgeId e : g.out_edges(u)) {
        if (relax(e, g.to(e))) return true;
      }
    }
    return false;
  };
  // Both search loops are stamped out once per ban mode, so the per-edge
  // ban checks vanish entirely from the no-bans instantiation (the branch
  // would otherwise run for every relaxed edge).
  auto banned = [&](auto bans, EdgeId e, NodeId v) {
    if constexpr (bans.value) {
      return nban.get_or(v, 0) || eban.get_or(e, 0);
    }
    return false;
  };
  auto search = [&](auto bans) {
    auto& heap = scratch.heap;
    heap.clear();
    heap.push_back({0.0, s});  // no push_heap needed for a single element
    while (!heap.empty()) {
      const auto [d, u] = heap.front();
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
      if (d > cutoff) break;  // everything still queued costs > cutoff
      if (d > dist.get_or(u, inf)) continue;  // stale entry
      if (u == t) break;  // never taken in all-targets mode
      for_each_out(u, [&](EdgeId e, NodeId v) {
        if (banned(bans, e, v)) return false;
        const double w = weight(e);
        if (w == kEdgeBanned) return false;
        const double nd = d + w;
        if (nd < dist.get_or(v, inf)) {
          dist.set(v, nd);
          parent.set(v, e);
          heap.push_back({nd, v});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
        return false;
      });
    }
  };
  // The hop-count loop. A labeled node is never relabeled, so no entry
  // goes stale, and the loop returns as soon as t is labeled, so t is
  // never queued: it needs neither the stale-entry nor the u == t check.
  auto hop_search = [&](auto bans) {
    auto& heap = scratch.hop_heap;
    heap.clear();
    heap.push_back({0, s});
    while (!heap.empty()) {
      const auto [h, u] = heap.front();
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
      if (static_cast<double>(h) > cutoff) break;
      const bool reached_t = for_each_out(u, [&](EdgeId e, NodeId v) {
        if (dist.contains(v)) return false;  // label h' + 1 <= h + 1
        if (banned(bans, e, v)) return false;
        if (weight(e) == kEdgeBanned) return false;
        dist.set(v, static_cast<double>(h + 1));
        parent.set(v, e);
        if (v == t) return true;
        heap.push_back({h + 1, v});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        return false;
      });
      if (reached_t) return;
    }
  };
  auto run = [&](auto bans) {
    if constexpr (kIsHopWeight<std::remove_cvref_t<WeightFn>>) {
      if (!all_targets) return hop_search(bans);
    }
    search(bans);
  };
  if (use_bans) {
    run(std::true_type{});
  } else {
    run(std::false_type{});
  }
  if (all_targets || !scratch.dist.contains(t)) return result;
  // Under a finite cutoff the loop can stop with t carrying a tentative
  // (unsettled, possibly non-optimal) label > cutoff; only a settled t —
  // which always has dist <= cutoff, else the u == t break could not have
  // run — counts as found. The hop-count loop's label of t is final when
  // set, so the same test decides.
  if (scratch.dist.get(t) > cutoff) return result;
  result.found = true;
  result.distance = scratch.dist.get(t);
  const std::size_t first = path_out.size();
  NodeId cur = t;
  while (cur != s) {
    const EdgeId e = scratch.parent.get(cur);
    path_out.push_back(e);
    cur = g.from(e);
  }
  std::reverse(path_out.begin() + static_cast<long>(first), path_out.end());
  return result;
}

/// Core all-targets Dijkstra: distances from src land in scratch.dist
/// (scratch.dist.get_or(v, inf) after the call; scratch.parent holds the
/// shortest-path tree). Out-of-range src leaves everything unreachable.
template <typename WeightFn>
void dijkstra_distances_core(const Graph& g, NodeId src, GraphScratch& scratch,
                             WeightFn&& weight) {
  Path unused;  // never written in all-targets mode
  dijkstra_core(g, src, kInvalidNode, scratch,
                std::forward<WeightFn>(weight), /*use_bans=*/false, unused);
}

}  // namespace flash
