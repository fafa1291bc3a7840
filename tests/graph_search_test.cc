// Tests for BFS, Dijkstra, Yen's k-shortest-paths and edge-disjoint paths.
// Every search runs in a test-local GraphScratch, as library callers do.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "graph/bfs.h"
#include "graph/dijkstra.h"
#include "graph/edge_disjoint.h"
#include "graph/topology.h"
#include "graph/yen.h"
#include "testutil.h"

namespace flash {
namespace {

using testing::make_graph;

// --- BFS ---------------------------------------------------------------------

TEST(Bfs, FindsFewestHops) {
  // 0-1-2-3 line plus shortcut 0-3.
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  GraphScratch scratch;
  Path p;
  ASSERT_TRUE(bfs_path_core(g, 0, 3, scratch, AdmitAll{}, p));
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(g.to(p[0]), 3u);
}

TEST(Bfs, EmptyWhenUnreachable) {
  Graph g(4);
  g.add_channel(0, 1);
  g.add_channel(2, 3);
  GraphScratch scratch;
  Path p;
  EXPECT_FALSE(bfs_path_core(g, 0, 3, scratch, AdmitAll{}, p));
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(bfs_path_core(g, 0, 1, scratch, AdmitAll{}, p));
}

TEST(Bfs, SourceEqualsTarget) {
  Graph g = make_graph(2, {{0, 1}});
  GraphScratch scratch;
  Path p;
  EXPECT_TRUE(bfs_path_core(g, 0, 0, scratch, AdmitAll{}, p));
  EXPECT_TRUE(p.empty());
}

TEST(Bfs, FilterExcludesEdges) {
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  // Ban the shortcut's forward edge; path must go the long way.
  const EdgeId shortcut = g.channel_forward_edge(3);
  GraphScratch scratch;
  Path p;
  bfs_path_core(g, 0, 3, scratch, [&](EdgeId e) { return e != shortcut; }, p);
  EXPECT_EQ(p.size(), 3u);
}

TEST(Bfs, FilterCanDisconnect) {
  Graph g = make_graph(2, {{0, 1}});
  GraphScratch scratch;
  Path p;
  EXPECT_FALSE(
      bfs_path_core(g, 0, 1, scratch, [](EdgeId) { return false; }, p));
  EXPECT_TRUE(p.empty());
}

TEST(Bfs, DistancesOnRing) {
  Graph g = ring_graph(6);
  GraphScratch scratch;
  bfs_core<true>(g, 0, kInvalidNode, scratch, AdmitAll{});
  const auto& d = scratch.hops;
  EXPECT_EQ(d.get(0), 0u);
  EXPECT_EQ(d.get(1), 1u);
  EXPECT_EQ(d.get(3), 3u);
  EXPECT_EQ(d.get(5), 1u);  // ring wraps
}

TEST(Bfs, DistancesUnreachable) {
  Graph g(3);
  g.add_channel(0, 1);
  GraphScratch scratch;
  bfs_core<true>(g, 0, kInvalidNode, scratch, AdmitAll{});
  EXPECT_EQ(scratch.hops.get_or(2, kUnreachable), kUnreachable);
}

TEST(Bfs, TreeParentsConsistent) {
  Graph g = line_graph(5);
  GraphScratch scratch;
  bfs_core(g, 0, kInvalidNode, scratch, AdmitAll{});
  const auto& parents = scratch.parent;
  EXPECT_EQ(parents.get(0), kInvalidEdge);
  for (NodeId v = 1; v < 5; ++v) {
    ASSERT_TRUE(parents.contains(v));
    ASSERT_NE(parents.get(v), kInvalidEdge);
    EXPECT_EQ(g.to(parents.get(v)), v);
  }
}

// --- Dijkstra ------------------------------------------------------------------

TEST(Dijkstra, UnitWeightsMatchBfsLength) {
  Rng rng(7);
  Graph g = watts_strogatz(40, 6, 0.2, rng);
  GraphScratch scratch;
  for (NodeId t = 1; t < 10; ++t) {
    Path b;
    bfs_path_core(g, 0, t, scratch, AdmitAll{}, b);
    Path path;
    const DijkstraCoreResult d =
        dijkstra_core(g, 0, t, scratch, UnitWeight{}, false, path);
    EXPECT_EQ(d.found, !b.empty() || t == 0);
    if (d.found) {
      EXPECT_EQ(path.size(), b.size());
    }
  }
}

TEST(Dijkstra, PrefersCheapDetour) {
  // 0->1 weight 10; 0->2->1 weight 1+1.
  Graph g = make_graph(3, {{0, 1}, {0, 2}, {2, 1}});
  const auto w = [&](EdgeId e) { return g.channel_of(e) == 0 ? 10.0 : 1.0; };
  GraphScratch scratch;
  Path path;
  const DijkstraCoreResult d = dijkstra_core(g, 0, 1, scratch, w, false, path);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(path.size(), 2u);
  EXPECT_DOUBLE_EQ(d.distance, 2.0);
}

TEST(Dijkstra, BannedEdgeWeightExcludes) {
  Graph g = make_graph(2, {{0, 1}});
  GraphScratch scratch;
  Path path;
  const DijkstraCoreResult d = dijkstra_core(
      g, 0, 1, scratch, [](EdgeId) { return kEdgeBanned; }, false, path);
  EXPECT_FALSE(d.found);
}

TEST(Dijkstra, BannedNodesExcludeInterior) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  GraphScratch scratch;
  scratch.node_ban.reset(g.num_nodes());
  scratch.edge_ban.reset(g.num_edges());
  scratch.node_ban.set(1, 1);
  Path path;
  const DijkstraCoreResult d =
      dijkstra_core(g, 0, 3, scratch, UnitWeight{}, true, path);
  ASSERT_TRUE(d.found);
  // Must route around node 1 through node 2.
  EXPECT_EQ(g.to(path[0]), 2u);
}

TEST(Dijkstra, BannedEndpointFails) {
  Graph g = make_graph(2, {{0, 1}});
  GraphScratch scratch;
  scratch.node_ban.reset(g.num_nodes());
  scratch.edge_ban.reset(g.num_edges());
  scratch.node_ban.set(1, 1);
  Path path;
  EXPECT_FALSE(
      dijkstra_core(g, 0, 1, scratch, UnitWeight{}, true, path).found);
}

TEST(Dijkstra, SourceEqualsTargetFoundWithZeroDistance) {
  Graph g = make_graph(2, {{0, 1}});
  GraphScratch scratch;
  Path path;
  const DijkstraCoreResult d =
      dijkstra_core(g, 0, 0, scratch, UnitWeight{}, false, path);
  EXPECT_TRUE(d.found);
  EXPECT_DOUBLE_EQ(d.distance, 0.0);
  EXPECT_TRUE(path.empty());
}

TEST(Dijkstra, DistancesAll) {
  Graph g = line_graph(4);
  GraphScratch scratch;
  dijkstra_distances_core(g, 0, scratch, UnitWeight{});
  EXPECT_DOUBLE_EQ(scratch.dist.get(3), 3.0);
}

// --- Yen -----------------------------------------------------------------------

TEST(Yen, FindsDistinctLooplessPathsInOrder) {
  // Diamond: 0-1-3, 0-2-3, plus direct 0-3.
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}});
  GraphScratch scratch;
  std::vector<Path> paths;
  yen_core(g, 0, 3, 5, scratch, UnitWeight{}, paths);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].size(), 1u);  // direct
  EXPECT_EQ(paths[1].size(), 2u);
  EXPECT_EQ(paths[2].size(), 2u);
  std::set<Path> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Yen, RespectsK) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}});
  GraphScratch scratch;
  std::vector<Path> paths;
  yen_core(g, 0, 3, 2, scratch, UnitWeight{}, paths);
  EXPECT_EQ(paths.size(), 2u);
  yen_core(g, 0, 3, 0, scratch, UnitWeight{}, paths);
  EXPECT_TRUE(paths.empty());
}

TEST(Yen, PathsAreLoopless) {
  Rng rng(11);
  Graph g = watts_strogatz(30, 4, 0.3, rng);
  GraphScratch scratch;
  std::vector<Path> paths;
  yen_core(g, 0, 15, 8, scratch, UnitWeight{}, paths);
  for (const Path& p : paths) {
    const auto nodes = g.path_nodes(p, 0);
    const std::set<NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), nodes.size()) << "loop in path";
  }
}

TEST(Yen, NondecreasingCost) {
  Rng rng(13);
  Graph g = watts_strogatz(30, 4, 0.3, rng);
  GraphScratch scratch;
  std::vector<Path> paths;
  yen_core(g, 2, 20, 10, scratch, UnitWeight{}, paths);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].size(), paths[i].size());
  }
}

TEST(Yen, UnreachableGivesEmpty) {
  Graph g(3);
  g.add_channel(0, 1);
  GraphScratch scratch;
  std::vector<Path> paths;
  yen_core(g, 0, 2, 3, scratch, UnitWeight{}, paths);
  EXPECT_TRUE(paths.empty());
}

TEST(Yen, FirstPathMatchesDijkstra) {
  Rng rng(17);
  Graph g = watts_strogatz(25, 4, 0.2, rng);
  GraphScratch scratch;
  std::vector<Path> paths;
  yen_core(g, 1, 12, 1, scratch, UnitWeight{}, paths);
  Path d;
  dijkstra_core(g, 1, 12, scratch, UnitWeight{}, false, d);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), d.size());
}

// --- Edge-disjoint ----------------------------------------------------------------

TEST(EdgeDisjoint, PathsShareNoDirectedEdges) {
  Rng rng(19);
  Graph g = watts_strogatz(40, 8, 0.2, rng);
  GraphScratch scratch;
  std::vector<Path> paths;
  edge_disjoint_core(g, 0, 20, 4, scratch, paths);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    for (EdgeId e : p) {
      EXPECT_TRUE(used.insert(e).second) << "edge reused across paths";
    }
  }
}

TEST(EdgeDisjoint, DiamondYieldsTwo) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  GraphScratch scratch;
  std::vector<Path> paths;
  edge_disjoint_core(g, 0, 3, 4, scratch, paths);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(EdgeDisjoint, LimitedByCut) {
  // Single bridge 1-2: at most one disjoint path can cross it.
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  GraphScratch scratch;
  std::vector<Path> paths;
  edge_disjoint_core(g, 0, 3, 4, scratch, paths);
  EXPECT_EQ(paths.size(), 1u);
}

TEST(EdgeDisjoint, FirstIsShortest) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}});
  GraphScratch scratch;
  std::vector<Path> paths;
  edge_disjoint_core(g, 0, 3, 3, scratch, paths);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].size(), 1u);
}

}  // namespace
}  // namespace flash
