// Equivalence suite for the allocation-free graph-algorithm core.
//
// The CSR + GraphScratch rewrite (PR 3) must not change any routing result
// bit. These tests pin that down by embedding the pre-refactor
// implementations verbatim as reference oracles and asserting bit-identical
// results (paths, float distances, probe counters, capacity matrices) on
// fixed-seed fig-scale topologies, plus scratch-reuse determinism: a
// workspace reused across queries behaves exactly like a fresh one.
#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/dijkstra.h"
#include "graph/edge_disjoint.h"
#include "graph/scratch.h"
#include "graph/topology.h"
#include "graph/yen.h"
#include "ledger/htlc.h"
#include "ledger/network_state.h"
#include "maxflow.h"
#include "routing/flash/elephant.h"
#include "routing/flash/flash_router.h"
#include "routing/flash/mice.h"
#include "testutil.h"
#include "util/rng.h"

namespace flash {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations: the pre-refactor code, kept verbatim (modulo
// naming) so the rewrite has a fixed behavioral anchor.
// ---------------------------------------------------------------------------

// The pre-refactor API the references are written against: std::function
// callbacks (empty = unit weight / admit all) and value results.
using RefWeight = std::function<double(EdgeId)>;
using RefFilter = std::function<bool(EdgeId)>;
using RefCapacity = std::function<Amount(EdgeId)>;
using RefCapacityMap = std::unordered_map<EdgeId, Amount>;

struct RefDijkstraResult {
  Path path;  // empty when t unreachable (or s == t)
  double distance = std::numeric_limits<double>::infinity();
  bool found = false;
};

struct RefQueueEntry {
  double dist;
  NodeId node;
  bool operator>(const RefQueueEntry& o) const { return dist > o.dist; }
};

RefDijkstraResult ref_dijkstra(const Graph& g, NodeId s, NodeId t,
                               const RefWeight& weight = {},
                               const std::vector<char>& banned_nodes = {}) {
  RefDijkstraResult result;
  if (!banned_nodes.empty() &&
      (banned_nodes[s] || (t != kInvalidNode && banned_nodes[t]))) {
    return result;
  }
  if (s == t) {
    result.found = true;
    result.distance = 0.0;
    return result;
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.num_nodes(), inf);
  std::vector<EdgeId> parent(g.num_nodes(), kInvalidEdge);
  std::priority_queue<RefQueueEntry, std::vector<RefQueueEntry>,
                      std::greater<>>
      pq;
  dist[s] = 0.0;
  pq.push({0.0, s});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == t) break;
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.to(e);
      if (!banned_nodes.empty() && banned_nodes[v]) continue;
      const double w = weight ? weight(e) : 1.0;
      if (w == kEdgeBanned) continue;
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = e;
        pq.push({nd, v});
      }
    }
  }
  if (dist[t] == inf) return result;
  result.found = true;
  result.distance = dist[t];
  NodeId cur = t;
  while (cur != s) {
    const EdgeId e = parent[cur];
    result.path.push_back(e);
    cur = g.from(e);
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

std::vector<EdgeId> ref_bfs_parents(const Graph& g, NodeId src, NodeId stop_at,
                                    const RefFilter& admit) {
  std::vector<EdgeId> parent(g.num_nodes(), kInvalidEdge);
  std::vector<char> seen(g.num_nodes(), 0);
  std::deque<NodeId> queue;
  seen[src] = 1;
  queue.push_back(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.to(e);
      if (seen[v]) continue;
      if (admit && !admit(e)) continue;
      seen[v] = 1;
      parent[v] = e;
      if (v == stop_at) return parent;
      queue.push_back(v);
    }
  }
  return parent;
}

Path ref_bfs_path(const Graph& g, NodeId s, NodeId t,
                  const RefFilter& admit = {}) {
  if (s == t) return {};
  const auto parent = ref_bfs_parents(g, s, t, admit);
  if (parent[t] == kInvalidEdge) return {};
  Path path;
  NodeId cur = t;
  while (cur != s) {
    const EdgeId e = parent[cur];
    path.push_back(e);
    cur = g.from(e);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double ref_path_cost(const Path& p, const RefWeight& weight) {
  if (!weight) return static_cast<double>(p.size());
  double c = 0.0;
  for (EdgeId e : p) c += weight(e);
  return c;
}

std::vector<Path> ref_yen(const Graph& g, NodeId s, NodeId t, std::size_t k,
                          const RefWeight& weight = {}) {
  std::vector<Path> result;
  if (k == 0 || s == t) return result;

  const RefDijkstraResult first = ref_dijkstra(g, s, t, weight);
  if (!first.found) return result;
  result.push_back(first.path);

  using Candidate = std::pair<double, Path>;
  std::set<Candidate> candidates;
  std::set<Path> known;
  known.insert(first.path);

  while (result.size() < k) {
    const Path& prev = result.back();
    const std::vector<NodeId> prev_nodes = g.path_nodes(prev, s);

    for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
      const NodeId spur_node = prev_nodes[i];
      const Path root(prev.begin(), prev.begin() + static_cast<long>(i));

      std::set<EdgeId> banned_edges;
      for (const Path& known_path : result) {
        if (known_path.size() > i &&
            std::equal(root.begin(), root.end(), known_path.begin())) {
          banned_edges.insert(known_path[i]);
        }
      }
      std::vector<char> banned_nodes(g.num_nodes(), 0);
      for (std::size_t j = 0; j < i; ++j) banned_nodes[prev_nodes[j]] = 1;

      const RefWeight spur_weight = [&](EdgeId e) -> double {
        if (banned_edges.count(e)) return kEdgeBanned;
        return weight ? weight(e) : 1.0;
      };
      const RefDijkstraResult spur =
          ref_dijkstra(g, spur_node, t, spur_weight, banned_nodes);
      if (!spur.found) continue;

      Path total = root;
      total.insert(total.end(), spur.path.begin(), spur.path.end());
      if (known.insert(total).second) {
        candidates.emplace(ref_path_cost(total, weight), std::move(total));
      }
    }

    if (candidates.empty()) break;
    auto best = candidates.begin();
    result.push_back(best->second);
    candidates.erase(best);
  }
  return result;
}

std::vector<Path> ref_edge_disjoint(const Graph& g, NodeId s, NodeId t,
                                    std::size_t k) {
  std::vector<Path> paths;
  if (s == t) return paths;
  std::vector<char> used(g.num_edges(), 0);
  const RefFilter admit = [&](EdgeId e) { return !used[e]; };
  while (paths.size() < k) {
    Path p = ref_bfs_path(g, s, t, admit);
    if (p.empty()) break;
    for (EdgeId e : p) used[e] = 1;
    paths.push_back(std::move(p));
  }
  return paths;
}

MaxFlowResult ref_edmonds_karp(const Graph& g, NodeId s, NodeId t,
                               const RefCapacity& capacity, Amount limit = -1,
                               std::size_t max_paths = 0) {
  MaxFlowResult result;
  result.edge_flow.assign(g.num_edges(), 0);
  if (s == t) return result;

  std::vector<Amount> residual(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) residual[e] = capacity(e);

  constexpr Amount kEps = 1e-12;
  while (max_paths == 0 || result.paths.size() < max_paths) {
    if (limit >= 0 && result.value >= limit) break;
    std::vector<EdgeId> parent(g.num_nodes(), kInvalidEdge);
    std::vector<char> seen(g.num_nodes(), 0);
    std::deque<NodeId> queue;
    seen[s] = 1;
    queue.push_back(s);
    bool found = false;
    while (!queue.empty() && !found) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (EdgeId e : g.out_edges(u)) {
        const NodeId v = g.to(e);
        if (seen[v] || residual[e] <= kEps) continue;
        seen[v] = 1;
        parent[v] = e;
        if (v == t) {
          found = true;
          break;
        }
        queue.push_back(v);
      }
    }
    if (!found) break;

    Path path;
    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (NodeId cur = t; cur != s; cur = g.from(parent[cur])) {
      const EdgeId e = parent[cur];
      path.push_back(e);
      bottleneck = std::min(bottleneck, residual[e]);
    }
    std::reverse(path.begin(), path.end());
    if (limit >= 0) bottleneck = std::min(bottleneck, limit - result.value);

    for (EdgeId e : path) {
      residual[e] -= bottleneck;
      residual[g.reverse(e)] += bottleneck;
      result.edge_flow[e] += bottleneck;
    }
    result.value += bottleneck;
    result.paths.push_back(std::move(path));
    result.path_amounts.push_back(bottleneck);
  }

  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    const EdgeId r = g.reverse(e);
    const Amount net = result.edge_flow[e] - result.edge_flow[r];
    result.edge_flow[e] = std::max<Amount>(net, 0);
    result.edge_flow[r] = std::max<Amount>(-net, 0);
  }
  return result;
}

/// Pre-refactor elephant probing, with the probed capacity matrix kept as
/// a plain map plus an explicit first-probe insertion log — the reference
/// for both the matrix contents and the canonical constraint order the
/// flat ProbedCapacities must reproduce.
struct RefProbeResult {
  bool feasible = false;
  std::vector<Path> paths;
  std::vector<Amount> bottlenecks;
  RefCapacityMap capacities;
  std::vector<std::pair<EdgeId, Amount>> insertion_order;
  Amount max_flow = 0;
  std::uint32_t probes = 0;
};

RefProbeResult ref_elephant_find_paths(const Graph& g, NodeId s, NodeId t,
                                       Amount demand, std::size_t max_paths,
                                       NetworkState& state) {
  constexpr Amount kEps = 1e-9;
  RefProbeResult result;
  if (s == t || demand <= 0) return result;

  RefCapacityMap residual;
  auto residual_admits = [&](EdgeId e) {
    const auto it = residual.find(e);
    return it == residual.end() || it->second > kEps;
  };

  while (result.paths.size() < max_paths) {
    const Path p = ref_bfs_path(g, s, t, residual_admits);
    if (p.empty()) break;

    const std::vector<Amount> balances = state.probe_path(p);
    ++result.probes;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const EdgeId e = p[i];
      const EdgeId rev = g.reverse(e);
      if (!result.capacities.count(e)) {
        result.capacities[e] = balances[i];
        result.insertion_order.emplace_back(e, balances[i]);
        residual[e] = balances[i];
      }
      if (!result.capacities.count(rev)) {
        const Amount rev_balance = state.balance(rev);
        result.capacities[rev] = rev_balance;
        result.insertion_order.emplace_back(rev, rev_balance);
        residual[rev] = rev_balance;
      }
    }

    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (EdgeId e : p) bottleneck = std::min(bottleneck, residual[e]);
    bottleneck = std::max<Amount>(bottleneck, 0);

    result.paths.push_back(p);
    result.bottlenecks.push_back(bottleneck);

    if (bottleneck > kEps) {
      result.max_flow += bottleneck;
      for (EdgeId e : p) {
        residual[e] -= bottleneck;
        residual[g.reverse(e)] += bottleneck;
      }
    }
  }

  result.feasible = result.max_flow + kEps >= demand;
  return result;
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const Graph& medium_graph() {  // scale-free, ~fig-topology shape, smaller
  static const Graph g = [] {
    Rng rng(11);
    return scale_free(300, 1200, rng);
  }();
  return g;
}

const Graph& small_world_graph() {
  static const Graph g = [] {
    Rng rng(12);
    return watts_strogatz(120, 6, 0.2, rng);
  }();
  return g;
}

const Graph& ripple_graph() {  // the fig06/fig07 simulation topology
  static const Graph g = [] {
    Rng rng(1);
    return ripple_like(rng);
  }();
  return g;
}

/// Deterministic non-uniform weights (fee-rate-like) for weighted queries.
RefWeight fee_like_weight() { return testing::DeterministicFeeWeight{}; }

std::pair<NodeId, NodeId> random_pair(Rng& rng, const Graph& g) {
  return {static_cast<NodeId>(rng.next_below(g.num_nodes())),
          static_cast<NodeId>(rng.next_below(g.num_nodes()))};
}

void expect_same_paths(const std::vector<Path>& got,
                       const std::vector<Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "path " << i << " differs";
  }
}

/// The BFS tree left in `scratch`, dense: the parent edge of every node of
/// `g` (kInvalidEdge for the root and unreached nodes), as ref_bfs_parents
/// returns it.
std::vector<EdgeId> parents_of(const GraphScratch& scratch, const Graph& g) {
  std::vector<EdgeId> parent(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    parent[v] = scratch.parent.get_or(v, kInvalidEdge);
  }
  return parent;
}

// ---------------------------------------------------------------------------
// CSR adjacency
// ---------------------------------------------------------------------------

TEST(CsrEquivalence, FinalizePreservesAdjacencyOrder) {
  Rng rng(21);
  Graph g(80);
  for (int i = 0; i < 300; ++i) {
    const auto [u, v] = random_pair(rng, g);
    if (u != v) g.add_channel(u, v);
  }
  ASSERT_FALSE(g.finalized());
  std::vector<std::vector<EdgeId>> before;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto span = g.out_edges(u);
    before.emplace_back(span.begin(), span.end());
  }
  g.finalize();
  ASSERT_TRUE(g.finalized());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto span = g.out_edges(u);
    EXPECT_EQ(std::vector<EdgeId>(span.begin(), span.end()), before[u]);
  }
  // Mutation invalidates; re-finalize restores.
  const NodeId n = g.add_node();
  EXPECT_FALSE(g.finalized());
  g.add_channel(n, 0);
  g.finalize();
  EXPECT_EQ(g.out_edges(n).size(), 1u);
}

// ---------------------------------------------------------------------------
// Dijkstra
// ---------------------------------------------------------------------------

TEST(DijkstraEquivalence, UnitAndWeighted) {
  const Graph& g = medium_graph();
  GraphScratch scratch;
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const auto [s, t] = random_pair(rng, g);
    auto check = [&](auto weight, const RefWeight& wref) {
      const RefDijkstraResult want = ref_dijkstra(g, s, t, wref);
      Path got_path;
      const DijkstraCoreResult got =
          dijkstra_core(g, s, t, scratch, weight, false, got_path);
      ASSERT_EQ(got.found, want.found) << "s=" << s << " t=" << t;
      EXPECT_EQ(got_path, want.path);
      // Bit-identical float: relaxations happen in the same order.
      EXPECT_EQ(got.distance, want.distance);
    };
    check(UnitWeight{}, RefWeight{});
    check(testing::DeterministicFeeWeight{}, fee_like_weight());
  }
}

TEST(DijkstraEquivalence, BannedNodes) {
  const Graph& g = small_world_graph();
  GraphScratch scratch;
  Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const auto [s, t] = random_pair(rng, g);
    std::vector<char> banned(g.num_nodes(), 0);
    for (int b = 0; b < 12; ++b) {
      banned[rng.next_below(g.num_nodes())] = 1;
    }
    const RefDijkstraResult want = ref_dijkstra(g, s, t, {}, banned);
    scratch.node_ban.reset(g.num_nodes());
    scratch.edge_ban.reset(g.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (banned[v]) scratch.node_ban.set(v, 1);
    }
    Path got_path;
    const DijkstraCoreResult got =
        dijkstra_core(g, s, t, scratch, UnitWeight{}, true, got_path);
    ASSERT_EQ(got.found, want.found);
    EXPECT_EQ(got_path, want.path);
    EXPECT_EQ(got.distance, want.distance);
  }
}

TEST(DijkstraEquivalence, HopWeightsMatchFullLoop) {
  // UnitWeight and MaskedUnitWeight run dijkstra_core's hop-count loop,
  // which stops at t's first label. It must agree with the full loop (the
  // same costs through a plain lambda, which is no hop weight) and with
  // ref_dijkstra under node and edge bans and cutoffs below, at and above
  // dist(t), on a finalized graph and on a copy without CSR.
  const Graph& finalized = medium_graph();
  Graph copy = finalized;
  copy.add_node();  // isolated; drops the CSR (out_edges()/to() loop)
  const Graph& unfinalized = copy;
  ASSERT_FALSE(unfinalized.finalized());
  Rng rng(33);
  std::vector<unsigned char> open(finalized.num_edges());
  for (auto& o : open) o = rng.chance(0.1) ? 0 : 1;
  const MaskedUnitWeight masked{open.data()};
  const RefWeight unit_fn = [](EdgeId) { return 1.0; };
  const RefWeight masked_fn = [&](EdgeId e) {
    return open[e] ? 1.0 : kEdgeBanned;
  };
  const double inf = std::numeric_limits<double>::infinity();
  GraphScratch scratch;
  int found_under_bans = 0;
  for (const Graph* g : {&finalized, &unfinalized}) {
    for (int i = 0; i < 60; ++i) {
      const auto [s, t] = random_pair(rng, finalized);
      if (s == t) continue;
      const bool use_bans = i % 2 == 1;
      std::vector<char> node_ban(g->num_nodes(), 0);
      std::vector<char> edge_ban(g->num_edges(), 0);
      scratch.node_ban.reset(g->num_nodes());
      scratch.edge_ban.reset(g->num_edges());
      for (NodeId v = 0; use_bans && v < g->num_nodes(); ++v) {
        if (!rng.chance(0.05)) continue;
        node_ban[v] = 1;
        scratch.node_ban.set(v, 1);
      }
      for (EdgeId e = 0; use_bans && e < g->num_edges(); ++e) {
        if (!rng.chance(0.05)) continue;
        edge_ban[e] = 1;
        scratch.edge_ban.set(e, 1);
      }
      auto check = [&](auto hop_weight, const RefWeight& same_fn) {
        const RefWeight ref_fn = [&](EdgeId e) {
          return edge_ban[e] ? kEdgeBanned : same_fn(e);
        };
        const RefDijkstraResult want = ref_dijkstra(*g, s, t, ref_fn, node_ban);
        if (want.found && use_bans) ++found_under_bans;
        const double d = want.distance;
        const std::vector<double> cutoffs =
            want.found ? std::vector<double>{d - 1, d, d + 1, inf}
                       : std::vector<double>{3.0, inf};
        for (const double cutoff : cutoffs) {
          Path got_path, full_path;
          const DijkstraCoreResult got = dijkstra_core(
              *g, s, t, scratch, hop_weight, use_bans, got_path, cutoff);
          const DijkstraCoreResult full = dijkstra_core(
              *g, s, t, scratch, [&same_fn](EdgeId e) { return same_fn(e); },
              use_bans, full_path, cutoff);
          const bool want_found = want.found && d <= cutoff;
          ASSERT_EQ(got.found, want_found)
              << "s=" << s << " t=" << t << " cutoff=" << cutoff;
          ASSERT_EQ(full.found, want_found);
          EXPECT_EQ(got.distance, full.distance);
          EXPECT_EQ(got_path, full_path);
          if (want_found) {
            EXPECT_EQ(got.distance, d);
            EXPECT_EQ(got_path, want.path);
          }
        }
      };
      check(UnitWeight{}, unit_fn);
      check(masked, masked_fn);
    }
  }
  EXPECT_GT(found_under_bans, 0);
}

TEST(DijkstraEquivalence, DistancesAllTargets) {
  // Unit weight too: all-targets mode never stops early, even under a hop
  // weight, so every reachable node is settled.
  const Graph& g = medium_graph();
  const double inf = std::numeric_limits<double>::infinity();
  GraphScratch scratch;
  auto check = [&](auto weight, const RefWeight& w) {
    dijkstra_distances_core(g, 7, scratch, weight);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const RefDijkstraResult single = ref_dijkstra(g, 7, t, w);
      EXPECT_EQ(scratch.dist.get_or(t, inf),
                single.found || t == 7 ? single.distance : inf);
    }
  };
  check(UnitWeight{}, RefWeight{});
  check(testing::DeterministicFeeWeight{}, fee_like_weight());
}

TEST(DijkstraHardening, OutOfRangeTargetsReturnNotFound) {
  const Graph& g = small_world_graph();
  GraphScratch scratch;
  auto found = [&](NodeId s, NodeId t) {
    Path path;
    return dijkstra_core(g, s, t, scratch, UnitWeight{}, false, path).found;
  };
  EXPECT_FALSE(found(0, kInvalidNode));
  EXPECT_FALSE(found(kInvalidNode, 0));
  EXPECT_FALSE(found(0, static_cast<NodeId>(g.num_nodes())));
  EXPECT_TRUE(found(0, 1));
}

// ---------------------------------------------------------------------------
// BFS family
// ---------------------------------------------------------------------------

TEST(BfsEquivalence, PathsDistancesTrees) {
  const Graph& g = medium_graph();
  GraphScratch scratch;
  Rng rng(41);
  const auto drop_some_fn = [](EdgeId e) { return e % 7 != 3; };
  const RefFilter drop_some = drop_some_fn;
  auto core_path = [&](NodeId s, NodeId t, auto admit) {
    Path p;
    bfs_path_core(g, s, t, scratch, admit, p);
    return p;
  };
  for (int i = 0; i < 150; ++i) {
    const auto [s, t] = random_pair(rng, g);
    EXPECT_EQ(core_path(s, t, AdmitAll{}), ref_bfs_path(g, s, t));
    EXPECT_EQ(core_path(s, t, drop_some_fn),
              ref_bfs_path(g, s, t, drop_some));
  }
  // Full-exploration outputs.
  for (NodeId src : {NodeId{0}, NodeId{13}, NodeId{299}}) {
    bfs_core(g, src, kInvalidNode, scratch, drop_some_fn);
    EXPECT_EQ(parents_of(scratch, g),
              ref_bfs_parents(g, src, kInvalidNode, drop_some));
    bfs_core<true>(g, src, kInvalidNode, scratch, AdmitAll{});
    const auto tree = parents_of(scratch, g);
    EXPECT_EQ(tree, ref_bfs_parents(g, src, kInvalidNode, {}));
    const auto& dist = scratch.hops;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == src) {
        EXPECT_EQ(dist.get(v), 0u);
      } else if (tree[v] == kInvalidEdge) {
        EXPECT_EQ(dist.get_or(v, kUnreachable), kUnreachable);
      } else {
        EXPECT_EQ(dist.get(v), dist.get(g.from(tree[v])) + 1);
      }
    }
  }
}

TEST(BfsHardening, OutOfRangeEndpoints) {
  const Graph& g = small_world_graph();
  GraphScratch scratch;
  Path p;
  EXPECT_FALSE(bfs_path_core(g, 0, kInvalidNode, scratch, AdmitAll{}, p));
  EXPECT_FALSE(bfs_path_core(g, kInvalidNode, 0, scratch, AdmitAll{}, p));
  EXPECT_TRUE(p.empty());
  // The search itself is a no-op from an out-of-range source.
  bfs_core(g, kInvalidNode, 0, scratch, AdmitAll{});
  EXPECT_FALSE(scratch.parent.contains(0));
}

// ---------------------------------------------------------------------------
// Yen
// ---------------------------------------------------------------------------

TEST(YenEquivalence, MediumTopologyUnitWeights) {
  const Graph& g = medium_graph();
  GraphScratch scratch;
  std::vector<Path> out;
  Rng rng(51);
  for (int i = 0; i < 40; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    for (std::size_t k : {std::size_t{4}, std::size_t{8}}) {
      yen_core(g, s, t, k, scratch, UnitWeight{}, out);
      expect_same_paths(out, ref_yen(g, s, t, k));
    }
  }
}

TEST(YenEquivalence, MediumTopologyFeeWeights) {
  const Graph& g = medium_graph();
  const RefWeight w = fee_like_weight();
  GraphScratch scratch;
  std::vector<Path> out;
  Rng rng(52);
  for (int i = 0; i < 25; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    yen_core(g, s, t, 6, scratch, testing::DeterministicFeeWeight{}, out);
    expect_same_paths(out, ref_yen(g, s, t, 6, w));
  }
}

TEST(YenEquivalence, RippleScaleTopology) {
  const Graph& g = ripple_graph();  // fig06/fig07 scale
  // Plus the stale-view routers' search: MaskedUnitWeight over a ~5% closed
  // mask, against the reference with the same mask as a std::function.
  Rng mask_rng(55);
  std::vector<unsigned char> open(g.num_edges());
  for (auto& o : open) o = mask_rng.chance(0.05) ? 0 : 1;
  const MaskedUnitWeight masked{open.data()};
  const RefWeight masked_fn = [&](EdgeId e) {
    return open[e] ? 1.0 : kEdgeBanned;
  };
  GraphScratch scratch;
  std::vector<Path> out;
  std::vector<Path> masked_out;
  Rng rng(53);
  for (int i = 0; i < 8; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    yen_core(g, s, t, 8, scratch, UnitWeight{}, out);
    expect_same_paths(out, ref_yen(g, s, t, 8));
    yen_core(g, s, t, 8, scratch, masked, masked_out);
    expect_same_paths(masked_out, ref_yen(g, s, t, 8, masked_fn));
  }
}

TEST(YenEquivalence, SmallWorldManyPaths) {
  const Graph& g = small_world_graph();
  GraphScratch scratch;
  std::vector<Path> out;
  Rng rng(54);
  for (int i = 0; i < 10; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    yen_core(g, s, t, 16, scratch, UnitWeight{}, out);
    expect_same_paths(out, ref_yen(g, s, t, 16));
  }
}

// ---------------------------------------------------------------------------
// Edge-disjoint + maxflow
// ---------------------------------------------------------------------------

TEST(EdgeDisjointEquivalence, MediumTopology) {
  const Graph& g = medium_graph();
  GraphScratch scratch;
  std::vector<Path> out;
  Rng rng(61);
  for (int i = 0; i < 60; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;
    edge_disjoint_core(g, s, t, 4, scratch, out);
    expect_same_paths(out, ref_edge_disjoint(g, s, t, 4));
  }
}

TEST(MaxflowEquivalence, RandomCapacities) {
  const Graph& g = small_world_graph();
  Rng caps_rng(62);
  std::vector<Amount> cap(g.num_edges());
  for (auto& c : cap) c = caps_rng.uniform(0.0, 50.0);
  const RefCapacity cap_fn = [&](EdgeId e) { return cap[e]; };
  GraphScratch scratch;
  Rng rng(63);
  for (int i = 0; i < 40; ++i) {
    const auto [s, t] = random_pair(rng, g);
    for (const auto& [limit, max_paths] :
         std::vector<std::pair<Amount, std::size_t>>{
             {-1, 0}, {-1, 5}, {40, 0}, {25, 3}}) {
      const MaxFlowResult want =
          ref_edmonds_karp(g, s, t, cap_fn, limit, max_paths);
      MaxFlowResult got;
      edmonds_karp_core(g, s, t, [&](EdgeId e) { return cap[e]; }, limit,
                        max_paths, scratch, got);
      EXPECT_EQ(got.value, want.value);  // bit-identical accumulation
      EXPECT_EQ(got.edge_flow, want.edge_flow);
      EXPECT_EQ(got.path_amounts, want.path_amounts);
      expect_same_paths(got.paths, want.paths);
    }
  }
}

// ---------------------------------------------------------------------------
// Elephant probing (Algorithm 1)
// ---------------------------------------------------------------------------

TEST(ElephantEquivalence, ProbeLoopBitIdentical) {
  const Graph& g = medium_graph();
  Rng init_rng_a(71);
  Rng init_rng_b(71);
  NetworkState state_a(g);
  NetworkState state_b(g);
  state_a.assign_lognormal_split(250, 1.0, init_rng_a);
  state_b.assign_lognormal_split(250, 1.0, init_rng_b);

  GraphScratch scratch;
  Rng rng(72);
  for (int i = 0; i < 30; ++i) {
    const auto [s, t] = random_pair(rng, g);
    const Amount demand = rng.uniform(10.0, 2000.0);
    const RefProbeResult want =
        ref_elephant_find_paths(g, s, t, demand, 20, state_a);
    ElephantProbeResult got;
    elephant_find_paths_into(g, s, t, demand, 20, state_b, scratch, got);
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.max_flow, want.max_flow);
    EXPECT_EQ(got.probes, want.probes);
    EXPECT_EQ(got.bottlenecks, want.bottlenecks);
    expect_same_paths(got.paths, want.paths);
    // The probed capacity matrix must match entry-for-entry AND in
    // first-probe insertion order — the canonical constraint order the
    // fee LP consumes.
    ASSERT_EQ(got.capacities.size(), want.capacities.size());
    EXPECT_EQ(got.capacities.entries(), want.insertion_order);
  }
  // Identical probing implies identical message accounting.
  EXPECT_EQ(state_a.probe_messages(), state_b.probe_messages());
}

TEST(ElephantEquivalence, ReusedProbeResultMatchesFreshInIterationOrder) {
  // FlashRouter reuses one ElephantProbeResult across payments. The
  // capacity matrix's *iteration order* feeds the fee-LP constraint
  // order, so an epoch-reset reused ProbedCapacities must reproduce the
  // reference first-probe insertion order exactly, query after query
  // (this is the property the retired fresh-unordered_map-per-probe
  // workaround existed to preserve — the flat matrix provides it by
  // construction).
  const Graph& g = medium_graph();
  Rng init_a(75), init_b(75);
  NetworkState state_a(g), state_b(g);
  state_a.assign_lognormal_split(250, 1.0, init_a);
  state_b.assign_lognormal_split(250, 1.0, init_b);

  GraphScratch scratch;
  ElephantProbeResult reused;
  Rng rng(76);
  for (int i = 0; i < 20; ++i) {
    const auto [s, t] = random_pair(rng, g);
    const Amount demand = rng.uniform(10.0, 2000.0);
    elephant_find_paths_into(g, s, t, demand, 20, state_b, scratch, reused);
    const RefProbeResult fresh =
        ref_elephant_find_paths(g, s, t, demand, 20, state_a);
    ASSERT_EQ(reused.capacities.entries(), fresh.insertion_order)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Mice routing: deferred dead-path replacement must be externally invisible
// ---------------------------------------------------------------------------

/// The pre-refactor route_mice, expressed against the public API: copy the
/// looked-up paths, replace dead paths immediately.
RouteResult ref_route_mice(const Graph& g, const Transaction& tx,
                           NetworkState& state, const FeeSchedule& fees,
                           MiceRoutingTable& table, Rng& rng) {
  (void)g;
  constexpr Amount kEps = 1e-9;
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;

  const std::uint64_t msgs_before = state.probe_messages();
  GraphScratch scratch;
  std::vector<Path> paths = table.lookup(tx.sender, tx.receiver, scratch);
  if (paths.empty()) return result;

  std::vector<std::size_t> order(paths.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  AtomicPayment payment(state);
  Amount remaining = tx.amount;
  Amount fee = 0;
  for (const std::size_t idx : order) {
    const Path& path = paths[idx];
    if (payment.add_part(path, remaining)) {
      fee += fees.path_fee(path, remaining);
      ++result.paths_used;
      remaining = 0;
      break;
    }
    const std::vector<Amount> balances = state.probe_path(path);
    ++result.probes;
    const Amount cap = *std::min_element(balances.begin(), balances.end());
    if (cap <= kEps) {
      table.replace_dead_path(tx.sender, tx.receiver, path);
      continue;
    }
    const Amount part = std::min(cap, remaining);
    if (payment.add_part(path, part)) {
      fee += fees.path_fee(path, part);
      ++result.paths_used;
      remaining -= part;
      if (remaining <= kEps) break;
    }
  }

  result.probe_messages = state.probe_messages() - msgs_before;
  if (remaining > kEps) return result;
  payment.commit();
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fee;
  return result;
}

TEST(MiceEquivalence, DeferredReplacementMatchesLegacySimulation) {
  const Graph& g = medium_graph();
  Rng fee_rng(80);
  const FeeSchedule fees = FeeSchedule::paper_default(g, fee_rng);
  Rng init_a(81), init_b(81);
  NetworkState state_a(g), state_b(g);
  // Skewed split makes depleted directions (dead paths) common.
  state_a.assign_uniform_skewed(1.0, 60.0, 0.85, 1.0, init_a);
  state_b.assign_uniform_skewed(1.0, 60.0, 0.85, 1.0, init_b);

  RoutingTableConfig tc;
  tc.paths_per_receiver = 4;
  tc.spare_paths = 4;
  MiceRoutingTable table_a(g, tc), table_b(g, tc);
  Rng rng_a(82), rng_b(82);
  GraphScratch scratch;

  Rng tx_rng(83);
  int dead_replacements_seen = 0;
  for (int i = 0; i < 600; ++i) {
    Transaction tx;
    const auto [s, t] = random_pair(tx_rng, g);
    if (s == t) continue;
    tx.sender = s;
    tx.receiver = t;
    tx.amount = tx_rng.uniform(1.0, 40.0);
    const RouteResult want = ref_route_mice(g, tx, state_a, fees, table_a,
                                            rng_a);
    const RouteResult got =
        route_mice(g, tx, state_b, fees, table_b, rng_b, scratch);
    ASSERT_EQ(got.success, want.success) << "tx " << i;
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.fee, want.fee);
    EXPECT_EQ(got.probes, want.probes);
    EXPECT_EQ(got.probe_messages, want.probe_messages);
    EXPECT_EQ(got.paths_used, want.paths_used);
    if (want.probes > 0 && !want.success) ++dead_replacements_seen;
  }
  // Ledgers must have evolved identically.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(state_a.balance(e), state_b.balance(e)) << "edge " << e;
  }
  EXPECT_EQ(table_a.size(), table_b.size());
  EXPECT_EQ(table_a.computations(), table_b.computations());
  // The workload must actually exercise the probe/replace machinery.
  EXPECT_GT(dead_replacements_seen, 0);
}

// ---------------------------------------------------------------------------
// Scratch reuse: a shared workspace must behave like a fresh one
// ---------------------------------------------------------------------------

TEST(ScratchReuse, BackToBackQueriesMatchFreshScratches) {
  const Graph& g = medium_graph();
  const RefWeight w = fee_like_weight();
  GraphScratch shared;
  Rng rng(91);
  for (int i = 0; i < 60; ++i) {
    const auto [s, t] = random_pair(rng, g);
    if (s == t) continue;

    // Yen on the shared scratch vs a one-shot scratch.
    std::vector<Path> shared_out, fresh_out;
    yen_core(g, s, t, 6, shared, UnitWeight{}, shared_out);
    {
      GraphScratch fresh;
      yen_core(g, s, t, 6, fresh, UnitWeight{}, fresh_out);
    }
    expect_same_paths(shared_out, fresh_out);

    // Weighted dijkstra immediately after Yen on the same scratch: the
    // epoch reset must fully isolate the queries.
    Path shared_path, fresh_path;
    const auto shared_res = dijkstra_core(
        g, s, t, shared, [&w](EdgeId e) { return w(e); }, false, shared_path);
    GraphScratch fresh;
    const auto fresh_res = dijkstra_core(
        g, s, t, fresh, [&w](EdgeId e) { return w(e); }, false, fresh_path);
    ASSERT_EQ(shared_res.found, fresh_res.found);
    EXPECT_EQ(shared_res.distance, fresh_res.distance);
    EXPECT_EQ(shared_path, fresh_path);
  }
}

TEST(ScratchReuse, AcrossDifferentGraphs) {
  // One scratch serving interleaved queries on graphs of different sizes.
  GraphScratch shared;
  const Graph& big = medium_graph();
  const Graph& small = small_world_graph();
  Rng rng(92);
  for (int i = 0; i < 40; ++i) {
    for (const Graph* g : {&big, &small}) {
      const auto [s, t] = random_pair(rng, *g);
      if (s == t) continue;
      std::vector<Path> shared_out, fresh_out;
      yen_core(*g, s, t, 4, shared, UnitWeight{}, shared_out);
      GraphScratch fresh;
      yen_core(*g, s, t, 4, fresh, UnitWeight{}, fresh_out);
      expect_same_paths(shared_out, fresh_out);
    }
  }
}

}  // namespace
}  // namespace flash
