// Tests for the mice routing table's Yen prefetch
// (MiceRoutingTable::start_prefetch) and for the scenario engine that
// feeds it. Every way a lookup miss can be served — a finished result, a
// running one waited for, a queued one computed inline, and any of them
// filtered by max_hops — must leave exactly the entries, spares and
// computations() of a table that never prefetched. Requests still
// outstanding at clear(), at table destruction and at an engine's first
// churn close must be dropped without a race or a leak (this suite runs
// under the CI ASan and TSan jobs).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "graph/topology.h"
#include "routing/flash/flash_router.h"
#include "routing/flash/routing_table.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "testutil.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace flash {
namespace {

using Pair = std::pair<NodeId, NodeId>;

// The Ripple-like network (1,870 nodes): Yen takes milliseconds per pair
// there, long enough for requests to still be queued or running when the
// table's thread looks them up.
const Graph& ripple() {
  static const Graph g = [] {
    Rng rng(1);
    return ripple_like(rng);
  }();
  return g;
}

/// `n` distinct (sender, receiver) pairs with sender != receiver.
std::vector<Pair> distinct_pairs(const Graph& g, std::size_t n,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::set<Pair> seen;
  std::vector<Pair> pairs;
  while (pairs.size() < n) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (s != r && seen.insert({s, r}).second) pairs.emplace_back(s, r);
  }
  return pairs;
}

/// Everything the entry for (s, r) can ever serve: its active paths, then
/// the active set after each dead-path replacement, until none is left —
/// the spares in their exact order. Consumes the entry.
std::vector<std::vector<Path>> drain_entry(MiceRoutingTable& t, NodeId s,
                                           NodeId r) {
  std::vector<std::vector<Path>> seq;
  seq.push_back(t.lookup(s, r));
  while (!seq.back().empty()) {
    const Path dead = seq.back().front();
    t.replace_dead_path(s, r, dead);
    seq.push_back(t.lookup(s, r));
  }
  return seq;
}

/// Asserts the prefetching table serves (s, r) exactly like a plain table
/// with the same config (entries, spares, computations()).
void expect_same_entry(MiceRoutingTable& prefetching, MiceRoutingTable& plain,
                       NodeId s, NodeId r) {
  EXPECT_EQ(drain_entry(prefetching, s, r), drain_entry(plain, s, r))
      << "pair " << s << " -> " << r;
  EXPECT_EQ(prefetching.computations(), plain.computations());
}

/// Spins until `done(stats)` holds (helpers make progress on their own).
template <typename Pred>
void wait_for(const MiceRoutingTable& t, Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while (!done(t.prefetch_stats())) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "prefetch helpers made no progress";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

constexpr RoutingTableConfig kTable{4, 4, 0, false, 0};

TEST(RoutingTablePrefetch, FinishedResultsMatchPlainTable) {
  const Graph& g = ripple();
  MiceRoutingTable prefetching(g, kTable);
  MiceRoutingTable plain(g, kTable);
  ASSERT_TRUE(prefetching.start_prefetch(2));
  const auto pairs = distinct_pairs(g, 16, 11);
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  wait_for(prefetching, [&](const PrefetchStats& st) {
    return st.completed == pairs.size();
  });
  for (const auto& [s, r] : pairs) expect_same_entry(prefetching, plain, s, r);
  const PrefetchStats st = prefetching.prefetch_stats();
  EXPECT_EQ(st.requested, pairs.size());
  EXPECT_EQ(st.took_finished, pairs.size());
  EXPECT_EQ(st.waited_running + st.computed_inline + st.discarded, 0u);
}

TEST(RoutingTablePrefetch, CachedOrRequestedPairsAreNotRequestedAgain) {
  const Graph& g = ripple();
  MiceRoutingTable table(g, kTable);
  ASSERT_TRUE(table.start_prefetch(2));
  const auto pairs = distinct_pairs(g, 3, 12);
  table.lookup(pairs[0].first, pairs[0].second);  // cached
  for (const auto& [s, r] : pairs) table.prefetch(s, r);
  for (const auto& [s, r] : pairs) table.prefetch(s, r);  // requested
  EXPECT_EQ(table.prefetch_stats().requested, 2u);
}

TEST(RoutingTablePrefetch, RunningRequestIsAwaited) {
  const Graph& g = ripple();
  MiceRoutingTable prefetching(g, kTable);
  MiceRoutingTable plain(g, kTable);
  ASSERT_TRUE(prefetching.start_prefetch(2));
  // Two requests for two helpers: once both are picked up, a lookup finds
  // the first one running (unless it finished in the meantime; retry).
  for (std::uint64_t round = 0; round < 50; ++round) {
    const auto pairs = distinct_pairs(g, 2, 100 + round);
    const std::uint64_t started = prefetching.prefetch_stats().started;
    for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
    wait_for(prefetching, [&](const PrefetchStats& st) {
      return st.started == started + 2;
    });
    for (const auto& [s, r] : pairs) {
      expect_same_entry(prefetching, plain, s, r);
    }
    if (prefetching.prefetch_stats().waited_running > 0) break;
  }
  const PrefetchStats st = prefetching.prefetch_stats();
  EXPECT_GT(st.waited_running, 0u);
  EXPECT_EQ(st.computed_inline, 0u);
  EXPECT_EQ(st.took_finished + st.waited_running, st.requested);
}

TEST(RoutingTablePrefetch, QueuedRequestIsComputedInline) {
  const Graph& g = ripple();
  MiceRoutingTable prefetching(g, kTable);
  MiceRoutingTable plain(g, kTable);
  ASSERT_TRUE(prefetching.start_prefetch(2));
  // Far more requests than helpers: the last one is still queued when the
  // table's thread asks for it first. The rest then drain in order, each
  // finished, running or queued depending on timing.
  for (std::uint64_t round = 0; round < 10; ++round) {
    const auto pairs = distinct_pairs(g, 24, 200 + round);
    for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
    expect_same_entry(prefetching, plain, pairs.back().first,
                      pairs.back().second);
    for (const auto& [s, r] : pairs) {
      expect_same_entry(prefetching, plain, s, r);
    }
    if (prefetching.prefetch_stats().computed_inline > 0) break;
  }
  const PrefetchStats st = prefetching.prefetch_stats();
  EXPECT_GT(st.computed_inline, 0u);
  EXPECT_EQ(st.took_finished + st.waited_running + st.computed_inline,
            st.requested);
}

TEST(RoutingTablePrefetch, MaxHopsFiltersPrefetchedPaths) {
  const Graph& g = ripple();
  RoutingTableConfig capped = kTable;
  capped.max_hops = 3;
  MiceRoutingTable prefetching(g, capped);
  MiceRoutingTable plain(g, capped);
  MiceRoutingTable uncapped(g, kTable);
  ASSERT_TRUE(prefetching.start_prefetch(2));
  const auto pairs = distinct_pairs(g, 16, 13);
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  wait_for(prefetching, [&](const PrefetchStats& st) {
    return st.completed == pairs.size();
  });
  std::size_t filtered = 0;
  for (const auto& [s, r] : pairs) {
    const auto seq = drain_entry(prefetching, s, r);
    EXPECT_EQ(seq, drain_entry(plain, s, r)) << "pair " << s << " -> " << r;
    for (const auto& active : seq) {
      for (const Path& p : active) EXPECT_LE(p.size(), 3u);
    }
    if (seq != drain_entry(uncapped, s, r)) ++filtered;
  }
  EXPECT_EQ(prefetching.computations(), plain.computations());
  EXPECT_GT(filtered, 0u) << "no pair had a path over the cap";
}

TEST(RoutingTablePrefetch, ClearDropsOutstandingRequests) {
  const Graph& g = ripple();
  MiceRoutingTable prefetching(g, kTable);
  MiceRoutingTable plain(g, kTable);
  ASSERT_TRUE(prefetching.start_prefetch(2));
  const auto pairs = distinct_pairs(g, 24, 14);
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  prefetching.clear();  // some queued, some running, maybe some finished
  EXPECT_EQ(prefetching.prefetch_stats().discarded, pairs.size());
  EXPECT_EQ(prefetching.size(), 0u);
  // Still prefetching: the next requests are served normally.
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  for (const auto& [s, r] : pairs) expect_same_entry(prefetching, plain, s, r);
  EXPECT_EQ(prefetching.prefetch_stats().requested, 2 * pairs.size());
}

TEST(RoutingTablePrefetch, DestructionJoinsOutstandingRequests) {
  const Graph& g = ripple();
  const auto pairs = distinct_pairs(g, 24, 15);
  for (int round = 0; round < 3; ++round) {
    auto table = std::make_unique<MiceRoutingTable>(g, kTable);
    ASSERT_TRUE(table->start_prefetch(2));
    for (const auto& [s, r] : pairs) table->prefetch(s, r);
    table->lookup(pairs[5].first, pairs[5].second);
    table.reset();  // must not hang, race or leak
  }
}

TEST(RoutingTablePrefetch, StopDropsRequestsAndRestarts) {
  const Graph& g = ripple();
  MiceRoutingTable prefetching(g, kTable);
  MiceRoutingTable plain(g, kTable);
  ASSERT_TRUE(prefetching.start_prefetch(2));
  const auto pairs = distinct_pairs(g, 12, 16);
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  prefetching.stop_prefetch();
  EXPECT_EQ(prefetching.prefetch_stats().discarded, pairs.size());
  prefetching.prefetch(pairs[0].first, pairs[0].second);  // no-op now
  EXPECT_EQ(prefetching.prefetch_stats().requested, pairs.size());
  expect_same_entry(prefetching, plain, pairs[0].first, pairs[0].second);

  ASSERT_TRUE(prefetching.start_prefetch(1));
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    expect_same_entry(prefetching, plain, pairs[i].first, pairs[i].second);
  }
  EXPECT_EQ(prefetching.prefetch_stats().requested, 2 * pairs.size() - 1);
}

TEST(RoutingTablePrefetch, MaskedTableNeitherStartsNorUsesPrefetch) {
  const Graph& g = ripple();
  std::vector<unsigned char> mask(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 7) mask[e] = 0;
  MiceRoutingTable prefetching(g, kTable);
  MiceRoutingTable plain(g, kTable);
  prefetching.set_open_mask(mask.data());
  plain.set_open_mask(mask.data());
  EXPECT_FALSE(prefetching.start_prefetch(2));

  // Requests made before a mask was installed are computed unmasked; the
  // masked lookups must not take them.
  prefetching.set_open_mask(nullptr);
  ASSERT_TRUE(prefetching.start_prefetch(2));
  const auto pairs = distinct_pairs(g, 8, 17);
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  wait_for(prefetching, [&](const PrefetchStats& st) {
    return st.completed == pairs.size();
  });
  prefetching.set_open_mask(mask.data());
  for (const auto& [s, r] : pairs) expect_same_entry(prefetching, plain, s, r);
  EXPECT_EQ(prefetching.prefetch_stats().took_finished, 0u);
}

// --- The Flash router and the scenario engine -----------------------------

TEST(FlashRouterPrefetch, HintedRoutesAreBitIdentical) {
  WorkloadConfig wc;
  wc.num_transactions = 400;
  wc.seed = 3;
  const Workload w = make_ripple_workload(wc);
  const auto plain = make_router(Scheme::kFlash, w, {}, 5);
  const auto hinted = make_router(Scheme::kFlash, w, {}, 5);
  ASSERT_TRUE(hinted->start_prefetch(2));
  NetworkState plain_state = w.make_state(10);
  NetworkState hinted_state = w.make_state(10);
  const auto& txs = w.transactions();
  constexpr std::size_t kAhead = 64;
  std::size_t hinted_to = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    for (; hinted_to < std::min(txs.size(), i + kAhead); ++hinted_to) {
      hinted->prefetch(txs[hinted_to]);
    }
    const RouteResult a = plain->route(txs[i], plain_state);
    const RouteResult b = hinted->route(txs[i], hinted_state);
    ASSERT_EQ(a.success, b.success) << "payment " << i;
    ASSERT_EQ(a.fee, b.fee) << "payment " << i;
    ASSERT_EQ(a.probe_messages, b.probe_messages) << "payment " << i;
    ASSERT_EQ(a.paths_used, b.paths_used) << "payment " << i;
  }
  for (EdgeId e = 0; e < w.graph().num_edges(); ++e) {
    ASSERT_EQ(plain_state.balance(e), hinted_state.balance(e));
  }
  const auto& flash = dynamic_cast<const FlashRouter&>(*hinted);
  const PrefetchStats st = flash.routing_table().prefetch_stats();
  EXPECT_GT(st.requested, 0u);
  // Only mice are hinted into requests, and each request is consumed.
  EXPECT_EQ(st.took_finished + st.waited_running + st.computed_inline,
            st.requested);
  EXPECT_EQ(flash.routing_table().computations(),
            dynamic_cast<const FlashRouter&>(*plain)
                .routing_table()
                .computations());
  hinted->stop_prefetch();
}

Workload small_ripple(std::size_t payments, std::uint64_t seed) {
  WorkloadConfig wc;
  wc.num_transactions = payments;
  wc.seed = seed;
  return make_ripple_workload(wc);
}

TEST(ScenarioPrefetch, StaticRunsRepeatAndMatchRunSimulation) {
  // On a host with >= 2 hardware threads the engine's pristine router
  // prefetches here; on one thread this is the plain path.
  const Workload w = small_ripple(300, 4);
  SimConfig sim;
  sim.capacity_scale = 10;
  const auto router = make_router(Scheme::kFlash, w, {}, 7);
  const SimResult expected = run_simulation(w, *router, sim);
  const ScenarioResult first = run_scenario(w, Scheme::kFlash, {}, sim, {}, 7);
  flash::testing::expect_identical(first.sim, expected);
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(run_scenario(w, Scheme::kFlash, {}, sim, {}, 7).payment_digest,
              first.payment_digest);
  }
}

TEST(ScenarioPrefetch, FirstChurnCloseStopsPrefetchExactly) {
  // A channel closes at t = 40 with up to kPrefetchDepth payments hinted
  // past it: the pristine router's queued Yen is cancelled, running ones
  // finish unused, and the stale-view routers take over. Repeats must
  // agree, and so must replay, whose pristine routers never prefetch.
  const Workload w = small_ripple(300, 5);
  SimConfig sim;
  sim.capacity_scale = 10;
  ScenarioConfig cfg;
  cfg.fault.channel_faults.push_back({17, 40, 30});
  cfg.retry.max_retries = 1;
  cfg.payment_indexed_rng = true;
  const ScenarioResult first = run_scenario(w, Scheme::kFlash, {}, sim, cfg, 9);
  EXPECT_EQ(first.channels_closed, 1u);
  EXPECT_GT(first.router_rebuilds, 0u);
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(run_scenario(w, Scheme::kFlash, {}, sim, cfg, 9).payment_digest,
              first.payment_digest);
  }
  ScenarioConfig replay = cfg;
  replay.concurrency.execution = ScenarioExecution::kReplay;
  replay.concurrency.workers = 2;
  const ScenarioResult spec = run_scenario(w, Scheme::kFlash, {}, sim, replay, 9);
  EXPECT_EQ(spec.payment_digest, first.payment_digest);
  flash::testing::expect_identical(spec.sim, first.sim);
}

}  // namespace
}  // namespace flash
