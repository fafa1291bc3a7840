// Tests for the topology-gossip substrate (the §3.1 prerequisite).
#include <gtest/gtest.h>

#include "gossip/gossip.h"
#include "graph/bfs.h"
#include "graph/topology.h"
#include "testutil.h"

namespace flash::gossip {
namespace {

using flash::testing::make_graph;

TEST(NodeView, AppliesAndDetectsStale) {
  NodeView view;
  Announcement open;
  open.type = AnnouncementType::kChannelOpen;
  open.u = 3;
  open.v = 1;
  open.seq = 2;
  EXPECT_TRUE(view.apply(open));
  EXPECT_TRUE(view.knows_channel(1, 3));
  EXPECT_TRUE(view.knows_channel(3, 1));  // unordered
  EXPECT_EQ(view.seq_of(1, 3), 2u);
  // Same or older seq: rejected.
  EXPECT_FALSE(view.apply(open));
  open.seq = 1;
  EXPECT_FALSE(view.apply(open));
  // Newer close wins.
  Announcement close = open;
  close.type = AnnouncementType::kChannelClose;
  close.seq = 3;
  EXPECT_TRUE(view.apply(close));
  EXPECT_FALSE(view.knows_channel(1, 3));
}

TEST(NodeView, ToGraphMaterializesOpenChannels) {
  NodeView view;
  view.apply({AnnouncementType::kChannelOpen, 0, 1, 1});
  view.apply({AnnouncementType::kChannelOpen, 1, 2, 1});
  view.apply({AnnouncementType::kChannelClose, 1, 2, 2});
  const Graph g = view.to_graph(3);
  EXPECT_EQ(g.num_channels(), 1u);
  EXPECT_EQ(view.open_channels(), 1u);
}

TEST(NodeView, AgreementIsSymmetricOnOpenSets) {
  NodeView a, b;
  a.apply({AnnouncementType::kChannelOpen, 0, 1, 1});
  EXPECT_FALSE(a.agrees_with(b));
  EXPECT_FALSE(b.agrees_with(a));
  b.apply({AnnouncementType::kChannelOpen, 0, 1, 5});
  EXPECT_TRUE(a.agrees_with(b));
  // A channel b believes closed and a never heard of: still agreement.
  b.apply({AnnouncementType::kChannelOpen, 2, 3, 1});
  b.apply({AnnouncementType::kChannelClose, 2, 3, 2});
  EXPECT_TRUE(a.agrees_with(b));
}

TEST(Gossip, FullTopologyConvergesEverywhere) {
  Rng rng(1);
  Graph g = watts_strogatz(40, 6, 0.3, rng);
  GossipNetwork gossip(g);
  gossip.announce_full_topology();
  const auto [rounds, messages] = gossip.run_to_quiescence();
  EXPECT_TRUE(gossip.converged());
  EXPECT_GT(rounds, 0u);
  EXPECT_GT(messages, 0u);
  // Every node's materialized view matches the physical channel count.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(gossip.view(v).open_channels(), g.num_channels());
  }
}

TEST(Gossip, PropagationBoundedByDiameter) {
  // On a line of n nodes an announcement at one end needs ~n rounds.
  Graph g = line_graph(10);
  GossipNetwork gossip(g);
  gossip.announce_channel_open(0, 1);  // channel between nodes 0 and 1
  const auto [rounds, messages] = gossip.run_to_quiescence();
  EXPECT_TRUE(gossip.converged());
  EXPECT_LE(rounds, 10u);
  EXPECT_GE(rounds, 8u);  // must walk the whole line
}

TEST(Gossip, DuplicateSuppressionBoundsMessages) {
  Rng rng(2);
  Graph g = watts_strogatz(30, 6, 0.2, rng);
  GossipNetwork gossip(g);
  gossip.announce_channel_open(0, 1);
  const auto [rounds, messages] = gossip.run_to_quiescence();
  // One announcement floods each directed edge at most once per adopting
  // node: messages <= sum of degrees of adopting nodes = 2|E| per
  // announcement, plus the duplicate deliveries that get suppressed.
  EXPECT_LE(messages, 4 * g.num_edges());
}

TEST(Gossip, CloseOvertakesOpen) {
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  GossipNetwork gossip(g);
  gossip.announce_full_topology();
  gossip.run_to_quiescence();
  gossip.announce_channel_close(1, /*seq=*/2);  // channel 1-2 closes
  gossip.run_to_quiescence();
  EXPECT_TRUE(gossip.converged());
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(gossip.view(v).knows_channel(1, 2));
    EXPECT_TRUE(gossip.view(v).knows_channel(0, 1));
  }
}

TEST(Gossip, StaleOpenCannotResurrectClosedChannel) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  GossipNetwork gossip(g);
  gossip.announce_channel_close(0, /*seq=*/5);
  gossip.run_to_quiescence();
  // A late (stale) open with a lower sequence must be ignored.
  gossip.announce_channel_open(0, /*seq=*/3);
  gossip.run_to_quiescence();
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_FALSE(gossip.view(v).knows_channel(0, 1));
  }
}

TEST(Gossip, PartitionedNetworkDoesNotConverge) {
  Graph g(4);
  g.add_channel(0, 1);
  g.add_channel(2, 3);  // disconnected component
  GossipNetwork gossip(g);
  gossip.announce_channel_open(0, 1);  // only component {0,1} learns
  gossip.run_to_quiescence();
  EXPECT_TRUE(gossip.view(0).knows_channel(0, 1));
  EXPECT_FALSE(gossip.view(2).knows_channel(0, 1));
  EXPECT_FALSE(gossip.converged());
}

TEST(Gossip, BootstrapMatchesFloodedBootstrapWithoutMessages) {
  Rng rng(5);
  Graph g = watts_strogatz(25, 4, 0.2, rng);
  GossipNetwork flooded(g);
  flooded.announce_full_topology();
  flooded.run_to_quiescence();
  GossipNetwork seeded(g);
  seeded.bootstrap_full_topology();
  EXPECT_EQ(seeded.total_messages(), 0u);
  EXPECT_TRUE(seeded.quiescent());
  EXPECT_TRUE(seeded.converged());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(seeded.view(v).agrees_with(flooded.view(v)));
    // Seeding counts as view changes: later churn comparisons start from a
    // well-defined per-node version.
    EXPECT_EQ(seeded.view_version(v), g.num_channels());
  }
}

TEST(Gossip, ViewVersionBumpsOnlyOnAdoption) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  GossipNetwork gossip(g);
  gossip.bootstrap_full_topology();
  const std::uint64_t v0 = gossip.view_version(0);
  const std::uint64_t v2 = gossip.view_version(2);
  gossip.announce_channel_close(0, /*seq=*/2);  // endpoints 0 and 1 adopt
  EXPECT_EQ(gossip.view_version(0), v0 + 1);
  EXPECT_EQ(gossip.view_version(2), v2);  // not yet reached
  gossip.run_to_quiescence();
  EXPECT_EQ(gossip.view_version(2), v2 + 1);
  // A duplicate (same seq) adopts nowhere: no version moves.
  const std::uint64_t after = gossip.view_version(1);
  gossip.announce_channel_close(0, /*seq=*/2);
  gossip.run_to_quiescence();
  EXPECT_EQ(gossip.view_version(1), after);
}

TEST(Gossip, InterleavedOpenCloseOutOfOrderSeq) {
  // Channel 0 churns rapidly: close(2) then reopen(3) flood while a stale
  // open(1) replay and a stale close(2) replay arrive out of order. The
  // highest sequence number must win everywhere, at every endpoint.
  Graph g = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  GossipNetwork gossip(g);
  gossip.bootstrap_full_topology();

  gossip.announce_channel_close(0, 2);
  gossip.announce_channel_open(0, 3);  // reopen injected before close floods
  gossip.run_to_quiescence();
  EXPECT_TRUE(gossip.converged());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(gossip.view(v).knows_channel(0, 1));
    EXPECT_EQ(gossip.view(v).seq_of(0, 1), 3u);
  }

  // Stale replays (older seq) change nothing, from any origin.
  gossip.announce(3, {AnnouncementType::kChannelOpen, 0, 1, 1});
  gossip.announce(2, {AnnouncementType::kChannelClose, 0, 1, 2});
  gossip.run_to_quiescence();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(gossip.view(v).knows_channel(0, 1));
    EXPECT_EQ(gossip.view(v).seq_of(0, 1), 3u);
  }

  // A genuinely newer close wins again.
  gossip.announce_channel_close(0, 4);
  gossip.run_to_quiescence();
  EXPECT_TRUE(gossip.converged());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(gossip.view(v).knows_channel(0, 1));
  }
}

TEST(Gossip, ConvergenceRoundCountTracksDistanceFromOrigin) {
  // On a line 0-1-...-9, a close of the channel between 0 and 1 floods one
  // hop per round: node d learns it in round d-1 (announced at both
  // endpoints), so full convergence takes eccentricity-many rounds.
  Graph g = line_graph(10);
  GossipNetwork gossip(g);
  gossip.bootstrap_full_topology();
  gossip.announce_channel_close(0, 2);
  std::size_t rounds = 0;
  while (!gossip.quiescent()) {
    // Mid-flood: nodes beyond the frontier still believe the channel is
    // open — the view-vs-truth divergence the scenario engine measures.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const bool stale = gossip.view(v).knows_channel(0, 1);
      const bool beyond_frontier = v >= rounds + 2;
      EXPECT_EQ(stale, beyond_frontier) << "node " << v << " round " << rounds;
    }
    gossip.run_round();
    ++rounds;
  }
  EXPECT_EQ(rounds, 9u);  // node 9 is 8 hops from the far endpoint, +1 idle
  EXPECT_TRUE(gossip.converged());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(gossip.view(v).knows_channel(0, 1));
  }
}

TEST(Gossip, ViewTruthDivergenceShrinksToZero) {
  // Divergence = channels where a view disagrees with the live topology.
  // It must shrink monotonically per round and reach 0 at quiescence.
  Rng rng(9);
  Graph g = watts_strogatz(30, 4, 0.1, rng);
  GossipNetwork gossip(g);
  gossip.bootstrap_full_topology();
  std::vector<bool> open_truth(g.num_channels(), true);
  for (const std::size_t c : {std::size_t{0}, std::size_t{7}}) {
    open_truth[c] = false;
    gossip.announce_channel_close(c, 2);
  }
  const auto divergence = [&] {
    std::size_t n = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (std::size_t c = 0; c < g.num_channels(); ++c) {
        const EdgeId e = g.channel_forward_edge(c);
        if (gossip.view(v).knows_channel(g.from(e), g.to(e)) !=
            open_truth[c]) {
          ++n;
        }
      }
    }
    return n;
  };
  std::size_t last = divergence();
  EXPECT_GT(last, 0u);
  while (!gossip.quiescent()) {
    gossip.run_round();
    const std::size_t now = divergence();
    EXPECT_LE(now, last);
    last = now;
  }
  EXPECT_EQ(last, 0u);
}

TEST(Gossip, ViewDrivesRouterTopology) {
  // End-to-end: a node's gossip view materializes the graph its router
  // uses; after a close + refresh, the router routes around the gap.
  Graph physical = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  GossipNetwork gossip(physical);
  gossip.announce_full_topology();
  gossip.run_to_quiescence();
  const Graph local = gossip.view(0).to_graph(4);
  EXPECT_EQ(local.num_channels(), 4u);
  // Close channel 0 (0-1); a fresh view graph drops it.
  gossip.announce_channel_close(0, 2);
  gossip.run_to_quiescence();
  const Graph updated = gossip.view(0).to_graph(4);
  EXPECT_EQ(updated.num_channels(), 3u);
  GraphScratch scratch;
  Path p;
  EXPECT_TRUE(bfs_path_core(updated, 0, 3, scratch, AdmitAll{}, p));
  EXPECT_EQ(p.size(), 2u);  // still reachable via 2
}

}  // namespace
}  // namespace flash::gossip
