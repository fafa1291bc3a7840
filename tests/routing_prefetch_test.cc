// Tests for the mice routing table's Yen prefetch (YenPrefetcher, owned
// through MiceRoutingTable::start_prefetch or borrowed through
// borrow_prefetch) and for the scenario engine that feeds it. Every way a
// lookup miss can be served — a finished result, a running one waited for,
// a queued one or one under another mask computed inline, and any of them
// filtered by max_hops — must leave exactly the entries, spares and
// computations() of a table that never prefetched. Requests still
// outstanding at clear(), at table destruction and at an engine's first
// churn close must be dropped without a race or a leak (this suite runs
// under the CI ASan and TSan jobs).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
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
  GraphScratch scratch;
  std::vector<std::vector<Path>> seq;
  seq.push_back(t.lookup(s, r, scratch));
  while (!seq.back().empty()) {
    const Path dead = seq.back().front();
    t.replace_dead_path(s, r, dead);
    seq.push_back(t.lookup(s, r, scratch));
  }
  return seq;
}

/// Asserts the prefetching table serves (s, r) exactly like a plain table
/// with the same config (entries, spares, computations()). The prefetching
/// lookup runs first, so it can find a helper still running the pair's Yen
/// (the plain table's inline Yen would otherwise give the helper time to
/// finish).
void expect_same_entry(MiceRoutingTable& prefetching, MiceRoutingTable& plain,
                       NodeId s, NodeId r) {
  const auto got = drain_entry(prefetching, s, r);
  EXPECT_EQ(got, drain_entry(plain, s, r)) << "pair " << s << " -> " << r;
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
  GraphScratch scratch;
  const Graph& g = ripple();
  MiceRoutingTable table(g, kTable);
  ASSERT_TRUE(table.start_prefetch(2));
  const auto pairs = distinct_pairs(g, 3, 12);
  table.lookup(pairs[0].first, pairs[0].second, scratch);  // cached
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
  GraphScratch scratch;
  const Graph& g = ripple();
  const auto pairs = distinct_pairs(g, 24, 15);
  for (int round = 0; round < 3; ++round) {
    auto table = std::make_unique<MiceRoutingTable>(g, kTable);
    ASSERT_TRUE(table->start_prefetch(2));
    for (const auto& [s, r] : pairs) table->prefetch(s, r);
    table->lookup(pairs[5].first, pairs[5].second, scratch);
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

/// A mask over `g` with every 7th directed edge closed.
std::vector<unsigned char> sparse_mask(const Graph& g) {
  std::vector<unsigned char> mask(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 7) mask[e] = 0;
  return mask;
}

TEST(RoutingTablePrefetch, MaskedRequestIsAdoptedUnderByteEqualMask) {
  const Graph& g = ripple();
  const std::vector<unsigned char> hinted = sparse_mask(g);
  const std::vector<unsigned char> looked_up = hinted;  // other buffer
  MiceRoutingTable prefetching(g, kTable);
  MiceRoutingTable plain(g, kTable);
  plain.set_open_mask(looked_up.data());
  ASSERT_TRUE(prefetching.start_prefetch(2));
  prefetching.set_open_mask(hinted.data());
  const auto pairs = distinct_pairs(g, 16, 18);
  for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
  wait_for(prefetching, [&](const PrefetchStats& st) {
    return st.completed == pairs.size();
  });
  prefetching.set_open_mask(looked_up.data());
  for (const auto& [s, r] : pairs) expect_same_entry(prefetching, plain, s, r);
  EXPECT_EQ(prefetching.prefetch_stats().took_finished, pairs.size());
}

TEST(RoutingTablePrefetch, RequestUnderAnotherMaskIsComputedInline) {
  GraphScratch scratch;
  const Graph& g = ripple();
  const std::vector<unsigned char> mask = sparse_mask(g);
  // Requests made without a mask, then looked up under one; and requests
  // made under a mask, then looked up under one that also closes the first
  // edge of the pair's shortest path. Either way the lookup must refuse
  // the request and compute inline.
  std::vector<Pair> pairs;
  std::vector<std::vector<unsigned char>> lookup_masks;
  for (const auto& [s, r] : distinct_pairs(g, 32, 17)) {
    MiceRoutingTable probe(g, kTable);
    probe.set_open_mask(mask.data());
    const auto& active = probe.lookup(s, r, scratch);
    if (active.empty()) continue;
    pairs.emplace_back(s, r);
    lookup_masks.push_back(mask);
    lookup_masks.back()[active.front().front()] = 0;
    if (pairs.size() == 8) break;
  }
  ASSERT_EQ(pairs.size(), 8u);
  for (const bool hint_masked : {false, true}) {
    MiceRoutingTable prefetching(g, kTable);
    ASSERT_TRUE(prefetching.start_prefetch(2));
    prefetching.set_open_mask(hint_masked ? mask.data() : nullptr);
    for (const auto& [s, r] : pairs) prefetching.prefetch(s, r);
    wait_for(prefetching, [&](const PrefetchStats& st) {
      return st.completed == pairs.size();
    });
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& [s, r] = pairs[i];
      const unsigned char* at_lookup =
          hint_masked ? lookup_masks[i].data() : mask.data();
      MiceRoutingTable plain(g, kTable);
      plain.set_open_mask(at_lookup);
      prefetching.set_open_mask(at_lookup);
      EXPECT_EQ(drain_entry(prefetching, s, r), drain_entry(plain, s, r))
          << "pair " << s << " -> " << r << (hint_masked ? ", masked" : "");
    }
    const PrefetchStats st = prefetching.prefetch_stats();
    EXPECT_EQ(st.took_finished + st.waited_running, 0u);
    EXPECT_EQ(st.computed_inline, pairs.size());
    EXPECT_EQ(prefetching.computations(), pairs.size());
  }
}

TEST(RoutingTablePrefetch, TwoTablesBorrowOnePrefetcher) {
  GraphScratch scratch;
  const Graph& g = ripple();
  std::vector<Path> scratch_paths;
  const std::vector<unsigned char> mask = sparse_mask(g);
  YenPrefetcher prefetcher(g, kTable.paths_per_receiver + kTable.spare_paths,
                           2);
  MiceRoutingTable a(g, kTable);
  MiceRoutingTable b(g, kTable);
  MiceRoutingTable plain_a(g, kTable);
  MiceRoutingTable plain_b(g, kTable);
  b.set_open_mask(mask.data());
  plain_b.set_open_mask(mask.data());
  a.borrow_prefetch(prefetcher);
  b.borrow_prefetch(prefetcher);
  EXPECT_EQ(a.prefetcher(), &prefetcher);
  const auto pairs = distinct_pairs(g, 16, 19);
  const std::size_t half = pairs.size() / 2;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    (i < half ? a : b).prefetch(pairs[i].first, pairs[i].second);
  }
  b.clear();  // a borrower's clear keeps the shared requests
  EXPECT_EQ(prefetcher.stats().discarded, 0u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [s, r] = pairs[i];
    if (i < half) {
      expect_same_entry(a, plain_a, s, r);
    } else {
      expect_same_entry(b, plain_b, s, r);
    }
  }
  const PrefetchStats st = prefetcher.stats();
  EXPECT_EQ(st.requested, pairs.size());
  EXPECT_EQ(st.took_finished + st.waited_running + st.computed_inline,
            pairs.size());
  EXPECT_EQ(a.prefetch_stats().requested, pairs.size());
  EXPECT_EQ(b.prefetch_stats().requested, pairs.size());

  // A request for a pair the table already caches (the engine hints a
  // lender that cannot see the borrower's entries) dies at the lookup hit.
  const auto [s0, r0] = pairs.front();
  ASSERT_TRUE(prefetcher.request(s0, r0, nullptr));
  a.lookup(s0, r0, scratch);
  EXPECT_EQ(prefetcher.stats().discarded, 1u);
  EXPECT_FALSE(prefetcher.take(s0, r0, nullptr, scratch_paths));

  // A prefetcher over another graph or for another k is refused loudly.
  const Graph other = g;
  YenPrefetcher wrong_graph(other, prefetcher.k(), 1);
  YenPrefetcher wrong_k(g, prefetcher.k() + 1, 1);
  EXPECT_THROW(a.borrow_prefetch(wrong_graph), std::invalid_argument);
  EXPECT_THROW(a.borrow_prefetch(wrong_k), std::invalid_argument);
}

TEST(RoutingTablePrefetch, RehintReplacesQueuedOrFinishedNotRunning) {
  const Graph& g = ripple();
  const std::vector<unsigned char> old_mask = sparse_mask(g);
  std::vector<unsigned char> new_mask = old_mask;
  new_mask[1] = 0;
  const std::size_t k = kTable.paths_per_receiver + kTable.spare_paths;
  // The Yen result a lookup under `mask` must adopt for (s, r).
  auto expected = [&](NodeId s, NodeId r, const unsigned char* mask) {
    MiceRoutingTable plain(g, kTable);
    plain.set_open_mask(mask);
    return drain_entry(plain, s, r);
  };
  auto adopted = [&](YenPrefetcher& p, NodeId s, NodeId r,
                     const unsigned char* mask) {
    MiceRoutingTable t(g, kTable);
    t.set_open_mask(mask);
    t.borrow_prefetch(p);
    return drain_entry(t, s, r);
  };

  {  // Finished: re-queued under the new mask.
    YenPrefetcher p(g, k, 1);
    const auto [s, r] = distinct_pairs(g, 1, 20).front();
    ASSERT_TRUE(p.request(s, r, old_mask.data()));
    while (p.stats().completed < 1) std::this_thread::yield();
    EXPECT_FALSE(p.request(s, r, old_mask.data()));  // same mask: kept
    EXPECT_TRUE(p.request(s, r, new_mask.data()));
    EXPECT_EQ(adopted(p, s, r, new_mask.data()),
              expected(s, r, new_mask.data()));
    const PrefetchStats st = p.stats();
    EXPECT_EQ(st.requested, 2u);
    EXPECT_EQ(st.discarded, 1u);
    EXPECT_EQ(st.took_finished + st.waited_running + st.computed_inline, 1u);
  }
  {  // Queued behind 24 others on one helper: re-queued in place.
    YenPrefetcher p(g, k, 1);
    const auto pairs = distinct_pairs(g, 25, 21);
    for (const auto& [s, r] : pairs) p.request(s, r, old_mask.data());
    const auto [s, r] = pairs.back();
    EXPECT_TRUE(p.request(s, r, new_mask.data()));
    EXPECT_EQ(p.stats().discarded, 1u);
    while (p.stats().completed < pairs.size()) std::this_thread::yield();
    EXPECT_EQ(adopted(p, s, r, new_mask.data()),
              expected(s, r, new_mask.data()));
    EXPECT_EQ(p.stats().took_finished, 1u);
  }
  // Running: the re-hint is refused and the running request still serves
  // its own mask. A round counts only if the request was running both
  // before and after the re-hint.
  bool seen_running = false;
  for (std::uint64_t round = 0; round < 50 && !seen_running; ++round) {
    YenPrefetcher p(g, k, 1);
    const auto [s, r] = distinct_pairs(g, 1, 300 + round).front();
    ASSERT_TRUE(p.request(s, r, old_mask.data()));
    while (p.stats().started < 1) std::this_thread::yield();
    const bool rehinted = p.request(s, r, new_mask.data());
    if (p.stats().completed != 0) continue;  // finished meanwhile: retry
    seen_running = true;
    EXPECT_FALSE(rehinted);
    EXPECT_EQ(adopted(p, s, r, old_mask.data()),
              expected(s, r, old_mask.data()));
    const PrefetchStats st = p.stats();
    EXPECT_EQ(st.requested, 1u);
    EXPECT_EQ(st.took_finished + st.waited_running, 1u);
  }
  EXPECT_TRUE(seen_running) << "never caught a request running";
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

TEST(ScenarioPrefetch, FirstChurnCloseHandsPrefetchToViewRouters) {
  // A channel closes at t = 40 with up to kPrefetchDepth payments hinted
  // past it: the pristine router's queued Yen is cancelled and running
  // ones finish unused. The stale-view routers take over, borrowing the
  // helpers of one prefetcher over the view graph, which the engine hints
  // a few arrivals ahead under each sender's view mask. Repeats must
  // agree, and so must replay, whose routers never prefetch.
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

TEST(ScenarioPrefetch, ChurnRunsMatchTheirOracles) {
  // Churn with gossip delay: view masks change between a payment's hint
  // and its lookup, so some requests are adopted and some refused. With
  // one context slot every sender change also recycles the router that
  // borrows the prefetcher. Strict maintenance must equal the full
  // rebuild, and lazy (not path-identical to it for Flash) must equal
  // replay, whose routers never prefetch.
  const Workload w = small_ripple(120, 6);
  SimConfig sim;
  sim.capacity_scale = 10;
  ScenarioConfig base;
  base.churn.close_rate = 0.2;
  base.churn.mean_downtime = 20;
  base.gossip.hop_delay = 3;
  base.retry.max_retries = 1;
  base.payment_indexed_rng = true;
  for (const std::size_t slots : {std::size_t{0}, std::size_t{1}}) {
    for (const RouterMaintenance mode :
         {RouterMaintenance::kIncrementalStrict,
          RouterMaintenance::kIncrementalLazy}) {
      ScenarioConfig cfg = base;
      cfg.max_sender_routers = slots;
      cfg.maintenance = mode;
      const bool strict = mode == RouterMaintenance::kIncrementalStrict;
      SCOPED_TRACE(std::string(strict ? "strict" : "lazy") + ", slots " +
                   std::to_string(slots));
      const ScenarioResult got =
          run_scenario(w, Scheme::kFlash, {}, sim, cfg, 21);
      EXPECT_GT(got.channels_closed, 0u);
      EXPECT_GT(got.router_patches, 0u);
      EXPECT_EQ(run_scenario(w, Scheme::kFlash, {}, sim, cfg, 21)
                    .payment_digest,
                got.payment_digest);
      ScenarioConfig oracle = cfg;
      if (strict) {
        oracle.maintenance = RouterMaintenance::kFullRebuild;
      } else {
        oracle.concurrency.execution = ScenarioExecution::kReplay;
        oracle.concurrency.workers = 2;
      }
      const ScenarioResult want =
          run_scenario(w, Scheme::kFlash, {}, sim, oracle, 21);
      EXPECT_EQ(got.payment_digest, want.payment_digest);
      flash::testing::expect_identical(got.sim, want.sim);
    }
  }
}

}  // namespace
}  // namespace flash
