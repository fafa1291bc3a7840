// Tests for classical Edmonds-Karp max flow (the oracle that Algorithm 1's
// probing variant is validated against).
#include "maxflow.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "graph/topology.h"
#include "testutil.h"
#include "util/rng.h"

namespace flash {
namespace {

using testing::make_graph;

/// Capacity function from a per-channel (fwd, bwd) table.
auto caps_of(const Graph& g, std::vector<std::pair<Amount, Amount>> t) {
  return [&g, t = std::move(t)](EdgeId e) {
    const auto& [f, b] = t.at(g.channel_of(e));
    return (e & 1) == 0 ? f : b;
  };
}

TEST(MaxFlow, SingleEdge) {
  Graph g = make_graph(2, {{0, 1}});
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 1, caps_of(g, {{5, 3}}), -1, 0, scratch, r);
  EXPECT_DOUBLE_EQ(r.value, 5.0);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_DOUBLE_EQ(r.path_amounts[0], 5.0);
}

TEST(MaxFlow, SeriesBottleneck) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 2, caps_of(g, {{10, 0}, {4, 0}}), -1, 0, scratch,
                    r);
  EXPECT_DOUBLE_EQ(r.value, 4.0);
}

TEST(MaxFlow, ParallelPathsAdd) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 3, caps_of(g, {{3, 0}, {3, 0}, {4, 0}, {4, 0}}),
                    -1, 0, scratch, r);
  EXPECT_DOUBLE_EQ(r.value, 7.0);
  EXPECT_EQ(r.paths.size(), 2u);
}

TEST(MaxFlow, Figure5aSharedBottleneck) {
  // The paper's Fig. 5(a): two shortest paths share link 1->2 of capacity
  // 30; the third path 1-5-4-6 adds 30 more. Max flow = 60.
  //   nodes: 1..6 -> 0-indexed 0..5
  Graph g = make_graph(6, {{0, 1},   // 1-2 cap 30
                           {1, 2},   // 2-3 cap 30
                           {1, 3},   // 2-4 cap 30 (via the upper branch)
                           {2, 5},   // 3-6 cap 30
                           {3, 5},   // 4-6 cap 30
                           {0, 4},   // 1-5 cap 30
                           {4, 3}}); // 5-4 cap 30
  const auto cap = [](EdgeId e) { return (e & 1) == 0 ? 30.0 : 0.0; };
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 5, cap, -1, 0, scratch, r);
  EXPECT_DOUBLE_EQ(r.value, 60.0);
}

TEST(MaxFlow, Figure5bAbundantSharedLink) {
  // Fig. 5(b): shared link 1->2 has capacity 100, so the two paths through
  // it carry 60 total; edge-disjoint routing would cap at 50.
  Graph g = make_graph(6, {{0, 1},   // 1-2 cap 100
                           {1, 2},   // 2-3 cap 30
                           {1, 3},   // 2-4 cap 30
                           {2, 5},   // 3-6 cap 30
                           {3, 5},   // 4-6 cap 30
                           {0, 4},   // 1-5 cap 20
                           {4, 3}}); // 5-4 cap 20
  const auto cap = [&g](EdgeId e) -> Amount {
    if (e & 1) return 0.0;
    const std::size_t c = g.channel_of(e);
    if (c == 0) return 100.0;
    if (c >= 5) return 20.0;
    return 30.0;
  };
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 5, cap, -1, 0, scratch, r);
  // 30 + 30 through the hub, plus 20 via 1-5-4 merging into 4-6's
  // remaining... 4-6 carries min(30, 20+30-30)=... total is 80:
  // paths 1-2-3-6 (30), 1-2-4-6 (30), 1-5-4-6 (min(20,20,0 left on 4-6))
  // 4-6 already carries 30 of its 30 -> third path blocked. Max flow 60
  // through the hub + 0 = 60? No: EK finds 1-5-4-6 first only if shorter.
  // All s-t paths have 3 hops; EK explores in BFS order. The true max flow
  // is limited by the cut {3-6, 4-6} = 60.
  EXPECT_DOUBLE_EQ(r.value, 60.0);
}

TEST(MaxFlow, ZeroWhenSourceIsSink) {
  Graph g = make_graph(2, {{0, 1}});
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 0, caps_of(g, {{5, 5}}), -1, 0, scratch, r);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(MaxFlow, ZeroWhenDisconnected) {
  Graph g(3);
  g.add_channel(0, 1);
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 2, [](EdgeId) { return 1.0; }, -1, 0, scratch, r);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_TRUE(r.paths.empty());
}

TEST(MaxFlow, LimitStopsEarly) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 3, caps_of(g, {{3, 0}, {3, 0}, {4, 0}, {4, 0}}),
                    /*limit=*/3.0, /*max_paths=*/0, scratch, r);
  EXPECT_DOUBLE_EQ(r.value, 3.0);
  EXPECT_EQ(r.paths.size(), 1u);
}

TEST(MaxFlow, MaxPathsCapsIterations) {
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 3, caps_of(g, {{3, 0}, {3, 0}, {4, 0}, {4, 0}}),
                    /*limit=*/-1, /*max_paths=*/1, scratch, r);
  EXPECT_EQ(r.paths.size(), 1u);
  EXPECT_DOUBLE_EQ(r.value, 3.0);
}

TEST(MaxFlow, ReverseResidualsEnableRerouting) {
  // Classic example where the max flow requires canceling a greedy path.
  // 0->1 (1), 0->2 (1), 1->3 (1), 2->3 (1), 1->2 (1). Max flow 0->3 = 2.
  Graph g = make_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}});
  const auto cap = [](EdgeId e) { return (e & 1) == 0 ? 1.0 : 0.0; };
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 3, cap, -1, 0, scratch, r);
  EXPECT_DOUBLE_EQ(r.value, 2.0);
}

TEST(MaxFlow, FlowConservationAtInteriorNodes) {
  Rng rng(23);
  Graph g = watts_strogatz(30, 6, 0.3, rng);
  std::vector<Amount> cap(g.num_edges());
  for (auto& c : cap) c = rng.uniform(0.0, 10.0);
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 0, 17, [&](EdgeId e) { return cap[e]; },
                    -1, 0, scratch, r);
  // Net flow out of every interior node is zero.
  std::vector<Amount> net(g.num_nodes(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    net[g.from(e)] += r.edge_flow[e];
    net[g.to(e)] -= r.edge_flow[e];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 0 || v == 17) continue;
    EXPECT_NEAR(net[v], 0.0, 1e-9);
  }
  EXPECT_NEAR(net[0], r.value, 1e-9);
  EXPECT_NEAR(net[17], -r.value, 1e-9);
}

TEST(MaxFlow, FlowRespectsCapacities) {
  Rng rng(29);
  Graph g = watts_strogatz(30, 6, 0.3, rng);
  std::vector<Amount> cap(g.num_edges());
  for (auto& c : cap) c = rng.uniform(0.0, 10.0);
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 3, 21, [&](EdgeId e) { return cap[e]; },
                    -1, 0, scratch, r);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(r.edge_flow[e], cap[e] + 1e-9);
    EXPECT_GE(r.edge_flow[e], -1e-9);
  }
}

TEST(MaxFlow, PathDecompositionSumsToValue) {
  Rng rng(31);
  Graph g = watts_strogatz(25, 4, 0.2, rng);
  std::vector<Amount> cap(g.num_edges());
  for (auto& c : cap) c = rng.uniform(1.0, 5.0);
  GraphScratch scratch;
  MaxFlowResult r;
  edmonds_karp_core(g, 1, 13, [&](EdgeId e) { return cap[e]; },
                    -1, 0, scratch, r);
  Amount sum = 0;
  for (Amount a : r.path_amounts) sum += a;
  EXPECT_NEAR(sum, r.value, 1e-9);
  EXPECT_EQ(r.paths.size(), r.path_amounts.size());
}

}  // namespace
}  // namespace flash
