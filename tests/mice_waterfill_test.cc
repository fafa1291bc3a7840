// Tests for the congestion-aware mice extension (waterfilling selection).
#include <gtest/gtest.h>

#include "routing/flash/flash_router.h"
#include "routing/flash/mice.h"
#include "testutil.h"

namespace flash {
namespace {

using testing::fwd;
using testing::make_graph;
using testing::set_channel;

Transaction tx(NodeId s, NodeId t, Amount a) { return {s, t, a, 0}; }

TEST(MiceWaterfill, DeliversAndProbesEveryPath) {
  GraphScratch scratch;
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  NetworkState s(g);
  for (int c = 0; c < 4; ++c) set_channel(s, g, c, 100, 0);
  MiceRoutingTable table(g, {4, 0, 0});
  const RouteResult r = route_mice_waterfill(g, tx(0, 3, 10), s, fees, table,
                                             scratch);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.probes, 2u);  // both table paths probed up front
  EXPECT_GT(r.probe_messages, 0u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(MiceWaterfill, SplitsAcrossPathsWhenOneIsThin) {
  GraphScratch scratch;
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 6, 0);
  set_channel(s, g, 1, 6, 0);
  set_channel(s, g, 2, 6, 0);
  set_channel(s, g, 3, 6, 0);
  MiceRoutingTable table(g, {4, 0, 0});
  const RouteResult r = route_mice_waterfill(g, tx(0, 3, 10), s, fees, table,
                                             scratch);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.paths_used, 2u);
}

TEST(MiceWaterfill, FailsCleanlyWhenInsufficient) {
  GraphScratch scratch;
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 3, 0);
  set_channel(s, g, 1, 3, 0);
  MiceRoutingTable table(g, {4, 0, 0});
  const RouteResult r = route_mice_waterfill(g, tx(0, 2, 10), s, fees, table,
                                             scratch);
  EXPECT_FALSE(r.success);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 3);  // untouched
  EXPECT_EQ(s.active_holds(), 0u);
}

TEST(MiceWaterfill, RouterDispatchesOnConfig) {
  Graph g = make_graph(3, {{0, 1}, {1, 2}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 100, 0);
  set_channel(s, g, 1, 100, 0);
  FlashConfig config;
  config.elephant_threshold = 1e9;  // everything is a mouse
  config.mice_selection = MiceSelection::kWaterfill;
  FlashRouter router(g, fees, config);
  const RouteResult r = router.route(tx(0, 2, 5), s);
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.probes, 0u);  // waterfilling always probes

  FlashConfig te_config;
  te_config.elephant_threshold = 1e9;
  FlashRouter te_router(g, fees, te_config);
  const RouteResult te = te_router.route(tx(0, 2, 5), s);
  EXPECT_TRUE(te.success);
  EXPECT_EQ(te.probes, 0u);  // trial-and-error does not probe on success
}

TEST(MiceWaterfill, BalanceAwareSelectionPrefersFullPath) {
  // One path nearly drained, one full: waterfilling sends everything over
  // the full one (trial-and-error would pick randomly and may need two).
  GraphScratch scratch;
  Graph g = make_graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  FeeSchedule fees(g);
  NetworkState s(g);
  set_channel(s, g, 0, 1, 0);
  set_channel(s, g, 1, 1, 0);
  set_channel(s, g, 2, 100, 0);
  set_channel(s, g, 3, 100, 0);
  MiceRoutingTable table(g, {4, 0, 0});
  const RouteResult r = route_mice_waterfill(g, tx(0, 3, 50), s, fees, table,
                                             scratch);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.paths_used, 1u);
  EXPECT_DOUBLE_EQ(s.balance(fwd(g, 0)), 1);  // thin path untouched
}

}  // namespace
}  // namespace flash
