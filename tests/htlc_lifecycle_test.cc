// Tests for the time-extended HTLC lifecycle (ScenarioConfig::htlc):
// the pinned zero-config equivalence with instant settlement, in-flight
// lock contention, timelock expiry, offline/holder failure semantics, the
// timelock-budget hop cap in all four routers, and the config validation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger/htlc.h"
#include "routing/flash/flash_router.h"
#include "routing/shortest_path.h"
#include "routing/speedymurmurs.h"
#include "routing/spider.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "testutil.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace flash {
namespace {

using flash::testing::expect_identical;
using flash::testing::make_graph;
using flash::testing::set_channel;

// Field-for-field ScenarioResult equality (doubles exact). Covers every
// field, including the HTLC counters and both latency summaries' counts —
// extend alongside ScenarioResult.
void expect_scenarios_identical(const ScenarioResult& a,
                                const ScenarioResult& b) {
  expect_identical(a.sim, b.sim);
  EXPECT_EQ(a.channels_closed, b.channels_closed);
  EXPECT_EQ(a.channels_reopened, b.channels_reopened);
  EXPECT_EQ(a.rebalance_events, b.rebalance_events);
  EXPECT_EQ(a.gossip_rounds, b.gossip_rounds);
  EXPECT_EQ(a.gossip_messages, b.gossip_messages);
  EXPECT_EQ(a.router_rebuilds, b.router_rebuilds);
  EXPECT_EQ(a.router_patches, b.router_patches);
  EXPECT_EQ(a.entries_invalidated, b.entries_invalidated);
  EXPECT_EQ(a.payment_digest, b.payment_digest);
  EXPECT_EQ(a.router_cache_hits, b.router_cache_hits);
  EXPECT_EQ(a.router_cache_misses, b.router_cache_misses);
  EXPECT_EQ(a.router_cache_evictions, b.router_cache_evictions);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.htlc_payments, b.htlc_payments);
  EXPECT_EQ(a.htlc_inflight_failures, b.htlc_inflight_failures);
  EXPECT_EQ(a.htlc_expiries, b.htlc_expiries);
  EXPECT_EQ(a.htlc_offline_failures, b.htlc_offline_failures);
  EXPECT_EQ(a.htlc_holder_delays, b.htlc_holder_delays);
  EXPECT_EQ(a.htlc_max_inflight, b.htlc_max_inflight);
  EXPECT_EQ(a.htlc_onchain_settled_hops, b.htlc_onchain_settled_hops);
  EXPECT_EQ(a.htlc_onchain_refunded_hops, b.htlc_onchain_refunded_hops);
  EXPECT_EQ(a.htlc_break_failures, b.htlc_break_failures);
  EXPECT_EQ(a.rebalance_skipped_channels, b.rebalance_skipped_channels);
  EXPECT_EQ(a.fault_hub_outages, b.fault_hub_outages);
  EXPECT_EQ(a.fault_channel_closes, b.fault_channel_closes);
  EXPECT_EQ(a.fault_congestion_arrivals, b.fault_congestion_arrivals);
  EXPECT_EQ(a.fault_window_payments, b.fault_window_payments);
  EXPECT_EQ(a.fault_window_successes, b.fault_window_successes);
  EXPECT_EQ(a.post_fault_payments, b.post_fault_payments);
  EXPECT_EQ(a.post_fault_successes, b.post_fault_successes);
  EXPECT_EQ(a.fault_recovery_time, b.fault_recovery_time);
  EXPECT_EQ(a.sim_latency.count, b.sim_latency.count);
  EXPECT_EQ(a.sim_latency.mean_seconds, b.sim_latency.mean_seconds);
  EXPECT_EQ(a.sim_latency.p50_seconds, b.sim_latency.p50_seconds);
  EXPECT_EQ(a.sim_latency.p99_seconds, b.sim_latency.p99_seconds);
  EXPECT_EQ(a.sim_latency.max_seconds, b.sim_latency.max_seconds);
}

TEST(HtlcLifecycle, ZeroConfigBitIdenticalToInstantSettlement) {
  // HtlcConfig{} (zero latency, no expiry, nobody offline) must leave the
  // engine on the untouched instant-settlement path: bit-identical
  // SimResult AND payment_digest, for every scheme.
  const Workload w = make_toy_workload(30, 250, 3);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig with_htlc;
  with_htlc.htlc = HtlcConfig{};  // explicit, and explicitly inactive
  ASSERT_FALSE(with_htlc.htlc.active());
  for (const Scheme scheme : all_schemes()) {
    const auto router = make_router(scheme, w, {}, /*seed=*/7);
    const SimResult expected = run_simulation(w, *router, sim);
    const ScenarioResult got =
        run_scenario(w, scheme, {}, sim, with_htlc, 7);
    const ScenarioResult instant = run_scenario(w, scheme, {}, sim, {}, 7);
    expect_identical(got.sim, expected);
    expect_scenarios_identical(got, instant);
    EXPECT_EQ(got.htlc_payments, 0u);
    EXPECT_EQ(got.sim_latency.count, 0u);
  }
}

TEST(HtlcLifecycle, HopLatencyLocksFundsInFlight) {
  const Workload w = make_toy_workload(30, 300, 5);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  sim.invariant_stride = 8;  // sweep the ledger while HTLCs are in flight
  ScenarioConfig cfg;
  cfg.htlc.hop_latency = 5.0;  // several arrivals per round trip
  for (const Scheme scheme :
       {Scheme::kFlash, Scheme::kShortestPath, Scheme::kSpider}) {
    const ScenarioResult got = run_scenario(w, scheme, {}, sim, cfg, 5);
    EXPECT_EQ(got.sim.transactions, 300u);
    EXPECT_GT(got.htlc_payments, 0u);
    EXPECT_GT(got.htlc_max_inflight, 1u);  // lifecycles overlapped
    // Satellite: sim-time lock->settle latency is recorded per lifecycle.
    EXPECT_EQ(got.sim_latency.count, got.htlc_payments);
    EXPECT_GT(got.sim_latency.mean_seconds, 0.0);
    EXPECT_GE(got.sim_latency.max_seconds, got.sim_latency.p50_seconds);
    // Settlement extends past the last arrival by at least one round trip.
    const ScenarioResult instant = run_scenario(w, scheme, {}, sim, {}, 5);
    EXPECT_GT(got.duration, instant.duration);
    // Lock contention can only hurt: instant settlement is the upper bound.
    EXPECT_LE(got.sim.successes, instant.sim.successes);
  }
}

TEST(HtlcLifecycle, DeterministicAcrossRuns) {
  const Workload w = make_toy_workload(25, 200, 9);
  SimConfig sim;
  sim.capacity_scale = 1.5;
  ScenarioConfig cfg;
  cfg.htlc.hop_latency = 3.0;
  cfg.htlc.timelock_delta = 50.0;
  cfg.htlc.offline_fraction = 0.05;
  cfg.retry.max_retries = 1;
  const ScenarioResult a = run_scenario(w, Scheme::kFlash, {}, sim, cfg, 11);
  const ScenarioResult b = run_scenario(w, Scheme::kFlash, {}, sim, cfg, 11);
  expect_scenarios_identical(a, b);
}

TEST(HtlcLifecycle, HolderGriefingDelaysSettlementAndStarvesOthers) {
  // Holders sit on settle/fail relays. A part already settling keeps its
  // preimage propagating (expiry is a no-op on it, by design), so griefing
  // shows up as long lock times that starve CONCURRENT payments — not as
  // expiries of the griefed payment itself.
  const Workload w = make_toy_workload(30, 300, 6);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig cfg;
  cfg.htlc.hop_latency = 1.0;
  cfg.htlc.timelock_delta = 10.0;
  cfg.htlc.holder_fraction = 0.4;
  cfg.htlc.holders_prefer_hubs = true;
  cfg.htlc.holder_delay = 1e4;  // far beyond any timelock span
  const ScenarioResult got =
      run_scenario(w, Scheme::kShortestPath, {}, sim, cfg, 6);
  EXPECT_GT(got.htlc_holder_delays, 0u);
  ScenarioConfig honest = cfg;
  honest.htlc.holder_fraction = 0;
  const ScenarioResult baseline =
      run_scenario(w, Scheme::kShortestPath, {}, sim, honest, 6);
  EXPECT_LT(got.sim.successes, baseline.sim.successes);
  EXPECT_GT(got.sim_latency.max_seconds, baseline.sim_latency.max_seconds);
  EXPECT_EQ(baseline.htlc_expiries, 0u);  // honest relays settle in time
}

TEST(HtlcLifecycle, TightTimelocksExpireSlowForwardLegs) {
  // When the forward leg is slower than the timelock span (hop_latency >
  // timelock_delta on average), in-flight HTLCs hit their expiry and are
  // force-refunded, and those payments count as failures.
  const Workload w = make_toy_workload(30, 300, 6);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig tight;
  tight.htlc.hop_latency = 2.0;
  tight.htlc.timelock_delta = 1.5;
  const ScenarioResult got =
      run_scenario(w, Scheme::kShortestPath, {}, sim, tight, 6);
  EXPECT_GT(got.htlc_expiries, 0u);
  ScenarioConfig no_expiry = tight;
  no_expiry.htlc.timelock_delta = 0;  // same latency, no timeout
  const ScenarioResult baseline =
      run_scenario(w, Scheme::kShortestPath, {}, sim, no_expiry, 6);
  EXPECT_EQ(baseline.htlc_expiries, 0u);
  EXPECT_LT(got.sim.successes, baseline.sim.successes);
}

TEST(HtlcLifecycle, OfflineNodesFailPaymentsInFlight) {
  const Workload w = make_toy_workload(30, 300, 7);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig cfg;
  cfg.htlc.hop_latency = 0.5;
  cfg.htlc.offline_fraction = 0.25;
  const ScenarioResult got =
      run_scenario(w, Scheme::kShortestPath, {}, sim, cfg, 7);
  EXPECT_GT(got.htlc_offline_failures, 0u);
  ScenarioConfig online = cfg;
  online.htlc.offline_fraction = 0;
  const ScenarioResult baseline =
      run_scenario(w, Scheme::kShortestPath, {}, sim, online, 7);
  EXPECT_LT(got.sim.successes, baseline.sim.successes);
}

TEST(HtlcLifecycle, TimelockBudgetCapsRouteHopsInAllSchemes) {
  // Line network 0-1-2-3: the only 0->3 route is 3 hops. A 2-hop cap must
  // make every scheme refuse it; a 3-hop cap must let it through.
  const Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const FeeSchedule fees(g);
  const Transaction tx{0, 3, 10.0, 0.0};
  auto route_with_cap = [&](Scheme scheme, std::size_t cap) {
    NetworkState state(g);
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      set_channel(state, g, c, 100, 100);
    }
    FlashOptions opts;
    opts.max_route_hops = cap;
    const auto router = make_router(scheme, g, fees, 1, opts, 42);
    return router->route(tx, state).success;
  };
  for (const Scheme scheme : all_schemes()) {
    SCOPED_TRACE(scheme_name(scheme));
    EXPECT_TRUE(route_with_cap(scheme, 0));   // unlimited
    EXPECT_TRUE(route_with_cap(scheme, 3));   // exactly fits
    EXPECT_FALSE(route_with_cap(scheme, 2));  // over budget
  }
  // Flash's mice pipeline honors the cap too.
  {
    NetworkState state(g);
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      set_channel(state, g, c, 100, 100);
    }
    FlashConfig config;
    config.elephant_threshold = 1e9;  // everything is a mouse
    config.max_route_hops = 2;
    FlashRouter mouse_router(g, fees, config);
    EXPECT_FALSE(mouse_router.route(tx, state).success);
  }
}

TEST(HtlcLifecycle, BudgetDerivedHopCapReducesSuccessInScenario) {
  const Workload w = make_toy_workload(40, 300, 8);
  SimConfig sim;
  sim.capacity_scale = 2.0;
  ScenarioConfig tight;
  tight.htlc.hop_latency = 0.1;
  tight.htlc.timelock_delta = 10.0;
  tight.htlc.timelock_budget = 20.0;  // floor(20/10) = 2 hops
  ScenarioConfig loose = tight;
  loose.htlc.timelock_budget = 10.0 * 64;  // effectively unlimited
  const ScenarioResult capped =
      run_scenario(w, Scheme::kShortestPath, {}, sim, tight, 8);
  const ScenarioResult free_len =
      run_scenario(w, Scheme::kShortestPath, {}, sim, loose, 8);
  EXPECT_LT(capped.sim.successes, free_len.sim.successes);
}

// Runs the config and asserts the std::invalid_argument it raises names
// the offending field AND a remedy — every rejection must be actionable.
void expect_rejects(const ScenarioConfig& cfg, const std::string& field,
                    const std::string& remedy) {
  const Workload w = make_toy_workload(10, 5, 1);
  try {
    run_scenario(w, Scheme::kShortestPath, {}, {}, cfg, 1);
    ADD_FAILURE() << "config accepted; expected a rejection naming "
                  << field;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(field), std::string::npos)
        << "message does not name the field '" << field << "': " << msg;
    EXPECT_NE(msg.find(remedy), std::string::npos)
        << "message does not offer the remedy '" << remedy << "': " << msg;
  }
}

TEST(HtlcLifecycle, ValidationMessagesNameFieldAndRemedy) {
  // Every validate() rejection, each checked for field + remedy.
  {
    ScenarioConfig c;
    c.retry.delay = -1;
    expect_rejects(c, "retry.delay", "set 0 for immediate retries");
  }
  {
    ScenarioConfig c;
    c.churn.close_rate = -0.1;
    expect_rejects(c, "churn.close_rate", "set 0 to disable churn");
  }
  {
    ScenarioConfig c;
    c.churn.mean_downtime = -1;
    expect_rejects(c, "churn.mean_downtime", "keep closed channels closed");
  }
  {
    ScenarioConfig c;
    c.rebalance.interval = -1;
    expect_rejects(c, "rebalance.interval", "set 0 to disable");
  }
  {
    ScenarioConfig c;
    c.rebalance.strength = 1.5;
    expect_rejects(c, "rebalance.strength", "even split");
  }
  {
    ScenarioConfig c;
    c.gossip.hop_delay = -1;
    expect_rejects(c, "gossip.hop_delay", "instant propagation");
  }
  {
    ScenarioConfig c;
    c.htlc.hop_latency = -1;
    expect_rejects(c, "htlc.hop_latency", "set 0 to disable each");
  }
  {
    ScenarioConfig c;
    c.htlc.offline_fraction = 1.5;
    expect_rejects(c, "offline_fraction", "set 0 to disable each");
  }
  {
    // A budget without a per-hop delta has no hop-cap meaning.
    ScenarioConfig c;
    c.htlc.timelock_budget = 100;
    expect_rejects(c, "timelock_budget needs timelock_delta",
                   "max_route_hops");
  }
  {
    ScenarioConfig c;
    c.htlc.hop_latency = 1.0;
    c.concurrency.execution = ScenarioExecution::kReplay;
    expect_rejects(c, "sequential execution",
                   "concurrency.execution = kSequential");
  }
  {
    // A budget below one delta admits no route at all.
    ScenarioConfig c;
    c.htlc.hop_latency = 1.0;
    c.htlc.timelock_delta = 10.0;
    c.htlc.timelock_budget = 5.0;
    expect_rejects(c, "below one timelock_delta", "raise the budget");
  }
  {
    ScenarioConfig c;
    c.fault.hub_outage_start = -1;
    expect_rejects(c, "hub_outage_start", "disable the outage");
  }
  {
    ScenarioConfig c;
    c.htlc.hop_latency = 1.0;
    c.fault.hub_count = 1;  // no outage window
    expect_rejects(c, "needs hub_outage_duration", "set a window length");
  }
  {
    // Hub outages act on payments in flight: instant settlement has none.
    ScenarioConfig c;
    c.fault.hub_count = 1;
    c.fault.hub_outage_duration = 10.0;
    expect_rejects(c, "timed HTLC lifecycle", "htlc.hop_latency");
  }
  {
    ScenarioConfig c;
    c.fault.burst_time = -1;
    expect_rejects(c, "burst_time", "disable the burst");
  }
  {
    ScenarioConfig c;
    c.fault.congestion_factor = 0.5;
    expect_rejects(c, "congestion_factor", "set 1 to disable");
  }
  {
    ScenarioConfig c;
    c.fault.congestion_start = -1;
    expect_rejects(c, "congestion_start", "disable the");
  }
  {
    ScenarioConfig c;
    c.fault.congestion_factor = 2.0;  // no window
    expect_rejects(c, "needs congestion_duration", "set a window length");
  }
  {
    ScenarioConfig c;
    c.fault.channel_faults.push_back({0, -1.0, 0.0});
    expect_rejects(c, "channel_faults times", "fix its times");
  }
  {
    // Out-of-range channel ids are caught at engine construction.
    ScenarioConfig c;
    c.htlc.hop_latency = 1.0;
    c.fault.channel_faults.push_back({9999, 1.0, 0.0});
    expect_rejects(c, "names channel 9999", "below num_channels()");
  }
}

TEST(HtlcLifecycle, HtlcNowComposesWithChurnAndRebalance) {
  // The htlc x churn / htlc x rebalance rejections are gone: the lifecycle
  // resolves in-flight parts on-chain when a channel under them closes, and
  // rebalancing skips escrowed channels. These configs must now RUN.
  const Workload w = make_toy_workload(10, 40, 1);
  ScenarioConfig htlc_on;
  htlc_on.htlc.hop_latency = 1.0;

  ScenarioConfig churn = htlc_on;
  churn.churn.close_rate = 0.1;
  churn.churn.mean_downtime = 5.0;
  EXPECT_NO_THROW(run_scenario(w, Scheme::kShortestPath, {}, {}, churn, 1));

  ScenarioConfig rebalance = htlc_on;
  rebalance.rebalance.interval = 10;
  EXPECT_NO_THROW(
      run_scenario(w, Scheme::kShortestPath, {}, {}, rebalance, 1));

  ScenarioConfig both = churn;
  both.rebalance.interval = 10;
  both.gossip.hop_delay = 0.5;  // stale views on top
  EXPECT_NO_THROW(run_scenario(w, Scheme::kShortestPath, {}, {}, both, 1));

  // Churn plus an INACTIVE HtlcConfig stays allowed, as before.
  ScenarioConfig ok;
  ok.churn.close_rate = 0.05;
  EXPECT_NO_THROW(run_scenario(w, Scheme::kShortestPath, {}, {}, ok, 1));
}

TEST(HtlcLifecycle, FaultFreeHtlcDigestsPinned) {
  // Golden payment digests captured before the fault-tolerance machinery
  // landed: fault-free HTLC configs (no churn, no FaultPlan) must stay
  // bit-identical across refactors of the close/fault paths. If one of
  // these moves, the zero-dynamics contract broke — do not re-pin without
  // understanding why.
  {
    const Workload w = make_toy_workload(25, 200, 9);
    SimConfig sim;
    sim.capacity_scale = 1.5;
    ScenarioConfig cfg;
    cfg.htlc.hop_latency = 3.0;
    cfg.htlc.timelock_delta = 50.0;
    cfg.htlc.offline_fraction = 0.05;
    cfg.retry.max_retries = 1;
    const std::uint64_t expected[] = {
        327838087456076393ull,    // kFlash
        8957341892750548556ull,   // kSpider
        15838135490890404714ull,  // kSpeedyMurmurs
        6866683462189468280ull,   // kShortestPath
    };
    std::size_t i = 0;
    for (const Scheme scheme : all_schemes()) {
      SCOPED_TRACE(scheme_name(scheme));
      const ScenarioResult got = run_scenario(w, scheme, {}, sim, cfg, 11);
      EXPECT_EQ(got.payment_digest, expected[i++]);
    }
  }
  {
    // Holder-griefing config: exercises the settling-state bookkeeping
    // that the on-chain resolution path also reads.
    const Workload w = make_toy_workload(30, 300, 6);
    SimConfig sim;
    sim.capacity_scale = 2.0;
    ScenarioConfig cfg;
    cfg.htlc.hop_latency = 1.0;
    cfg.htlc.timelock_delta = 10.0;
    cfg.htlc.holder_fraction = 0.4;
    cfg.htlc.holders_prefer_hubs = true;
    cfg.htlc.holder_delay = 1e4;
    const ScenarioResult got =
        run_scenario(w, Scheme::kShortestPath, {}, sim, cfg, 6);
    EXPECT_EQ(got.payment_digest, 9172907384879275544ull);
  }
}

TEST(HtlcLifecycle, RetriesRescueInFlightFailures) {
  // In-flight failures feed the normal retry machinery: the unwound
  // balances are back, so a retry can succeed.
  const Workload w = make_toy_workload(30, 300, 10);
  SimConfig sim;
  sim.capacity_scale = 1.5;
  ScenarioConfig cfg;
  cfg.htlc.hop_latency = 4.0;
  cfg.retry.max_retries = 2;
  cfg.retry.delay = 1.0;
  const ScenarioResult got = run_scenario(w, Scheme::kFlash, {}, sim, cfg, 3);
  ScenarioConfig no_retry = cfg;
  no_retry.retry.max_retries = 0;
  const ScenarioResult baseline =
      run_scenario(w, Scheme::kFlash, {}, sim, no_retry, 3);
  EXPECT_EQ(got.sim.transactions, 300u);
  EXPECT_GE(got.sim.successes, baseline.sim.successes);
}

// --- AtomicPayment nested-fallback coverage (owned_holds_ storage) -------

TEST(HtlcLifecycle, NestedAtomicPaymentFallsBackToOwnedStorage) {
  const Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState state(g);
  set_channel(state, g, 0, 100, 100);
  set_channel(state, g, 1, 100, 100);
  const Path path{testing::fwd(g, 0), testing::fwd(g, 1)};

  AtomicPayment outer(state);  // takes the ledger's hold-list lease
  ASSERT_TRUE(outer.add_part(path, 10));
  {
    // The lease is out: the nested payment must fall back to its own
    // storage and still provide the full hold/commit contract.
    AtomicPayment inner(state);
    ASSERT_TRUE(inner.add_part(path, 5));
    EXPECT_EQ(inner.parts(), 1u);
    EXPECT_EQ(inner.held_amount(), 5);
    EXPECT_EQ(state.balance(testing::fwd(g, 0)), 85);  // 100 - 10 - 5
    inner.commit();
  }
  EXPECT_EQ(state.balance(testing::bwd(g, 0)), 105);  // inner settled
  outer.commit();
  EXPECT_EQ(state.balance(testing::bwd(g, 0)), 115);
  EXPECT_EQ(state.active_holds(), 0u);
  std::size_t bad = 0;
  EXPECT_TRUE(state.check_invariants(&bad));
}

TEST(HtlcLifecycle, NestedAtomicPaymentAbortsOnDestruction) {
  const Graph g = make_graph(3, {{0, 1}, {1, 2}});
  NetworkState state(g);
  set_channel(state, g, 0, 100, 100);
  set_channel(state, g, 1, 100, 100);
  const Path path{testing::fwd(g, 0), testing::fwd(g, 1)};

  AtomicPayment outer(state);
  ASSERT_TRUE(outer.add_part(path, 10));
  {
    AtomicPayment inner(state);  // owned_holds_ fallback
    ASSERT_TRUE(inner.add_part(path, 5));
    const std::vector<EdgeAmount> flow{{testing::fwd(g, 1), 7.0}};
    ASSERT_TRUE(inner.add_flow(flow, 7));
    EXPECT_EQ(inner.parts(), 2u);
    // No commit: destruction must abort both nested parts.
  }
  EXPECT_EQ(state.balance(testing::fwd(g, 0)), 90);  // only outer's hold
  EXPECT_EQ(state.balance(testing::fwd(g, 1)), 90);
  EXPECT_EQ(state.active_holds(), 1u);
  outer.abort();
  EXPECT_EQ(state.balance(testing::fwd(g, 0)), 100);
  EXPECT_EQ(state.active_holds(), 0u);
}

TEST(HtlcLifecycle, LeaseReturnsAfterOuterPaymentDies) {
  const Graph g = make_graph(2, {{0, 1}});
  NetworkState state(g);
  set_channel(state, g, 0, 50, 50);
  {
    AtomicPayment outer(state);
    (void)outer;
  }
  // The lease went back with the outer payment; a fresh payment re-leases
  // the ledger buffer (observable only through behavior: nothing throws,
  // nothing leaks).
  AtomicPayment next(state);
  ASSERT_TRUE(next.add_part(Path{testing::fwd(g, 0)}, 5));
  next.commit();
  EXPECT_EQ(state.balance(testing::bwd(g, 0)), 55);
  EXPECT_EQ(state.active_holds(), 0u);
}

// --- Conservation property test (randomized lifecycle interleavings) ----
//
// Drives a ledger through a random interleaving of hold / extend /
// hop-settle / hop-abort / full-commit / expiry-abort operations —
// interleaved with channel force-closes (resolving in-flight holds
// on-chain), reopens with fresh deposits, and node-offline events — and
// asserts after EVERY step that the channel conservation invariant holds
// (balances + holds == deposits), no balance went negative, and the
// active-hold count matches the model. On failure it reports the seed and
// the full op log up to the failing step — re-running the seed replays the
// minimal failing prefix exactly (ops are resolved deterministically from
// the rng stream), in the spirit of incremental_router_test.cc.

struct LiveHold {
  HoldId id;
  std::vector<char> hop_open;  // per-hop: not yet settled/aborted
  std::size_t remaining = 0;   // open hops left (0 for empty holds)
};

class LifecycleFuzzer {
 public:
  explicit LifecycleFuzzer(std::uint64_t seed)
      : graph_(make_graph(
            5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {1, 3}})),
        state_(graph_),
        rng_(seed) {
    for (std::size_t c = 0; c < graph_.num_channels(); ++c) {
      set_channel(state_, graph_, c, 50, 50);
    }
    closed_.assign(graph_.num_channels(), 0);
  }

  /// Runs `steps` ops; returns the failing step (0-based) or SIZE_MAX.
  std::size_t run(std::size_t steps) {
    for (std::size_t k = 0; k < steps; ++k) {
      step();
      if (!healthy()) return k;
    }
    return SIZE_MAX;
  }

  const std::vector<std::string>& log() const { return log_; }
  const std::string& failure() const { return failure_; }

 private:
  EdgeId random_edge() {
    const std::size_t c = rng_.next_below(graph_.num_channels());
    const EdgeId e = graph_.channel_forward_edge(c);
    return rng_.chance(0.5) ? e : graph_.reverse(e);
  }

  Amount random_amount() {
    return static_cast<Amount>(1 + rng_.next_below(20));
  }

  void track(HoldId id) {
    LiveHold lh;
    lh.id = id;
    const auto parts = state_.hold_parts(id);
    lh.hop_open.assign(parts.size(), 1);
    lh.remaining = parts.size();
    live_.push_back(std::move(lh));
  }

  void drop(std::size_t i) {
    live_[i] = std::move(live_.back());
    live_.pop_back();
  }

  void step() {
    const std::uint64_t r = rng_.next_below(128);
    if (r >= 100) {  // fault ops: close / reopen / node-offline
      if (r < 112) {
        close_channel();
      } else if (r < 122) {
        reopen_channel();
      } else {
        knock_node_offline();
      }
      return;
    }
    if (r < 20) {  // path hold (1-2 hops, possibly non-simple)
      Path path{random_edge()};
      if (rng_.chance(0.6)) path.push_back(random_edge());
      const Amount amount = random_amount();
      const auto id = state_.hold(path, amount);
      log_.push_back("hold path[" + std::to_string(path.size()) +
                     "] amount=" + std::to_string(amount) +
                     (id ? " -> held" : " -> refused"));
      if (id) track(*id);
    } else if (r < 38) {  // incremental per-hop forward locking
      const HoldId id = state_.open_hold();
      const std::size_t hops = 1 + rng_.next_below(3);
      std::size_t locked = 0;
      for (std::size_t i = 0; i < hops; ++i) {
        if (state_.extend_hold(id, random_edge(), random_amount())) ++locked;
      }
      log_.push_back("open_hold + " + std::to_string(hops) +
                     " extends (" + std::to_string(locked) + " locked)");
      track(id);
    } else if (r < 52) {  // flow hold
      std::vector<EdgeAmount> flow;
      const std::size_t n = 1 + rng_.next_below(3);
      for (std::size_t i = 0; i < n; ++i) {
        flow.emplace_back(random_edge(), random_amount());
      }
      const auto id = state_.hold_flow(flow);
      log_.push_back("hold_flow[" + std::to_string(n) + "]" +
                     (id ? " -> held" : " -> refused"));
      if (id) track(*id);
    } else if (r < 70) {  // settle ONE random open hop
      hop_op(/*settle=*/true);
    } else if (r < 84) {  // abort ONE random open hop
      hop_op(/*settle=*/false);
    } else if (r < 92) {  // commit the whole remainder
      if (live_.empty()) {
        log_.push_back("commit (no live hold)");
        return;
      }
      const std::size_t i = rng_.next_below(live_.size());
      state_.commit(live_[i].id);
      log_.push_back("commit whole hold");
      drop(i);
    } else {  // timelock expiry: stamp, then force-refund the remainder
      if (live_.empty()) {
        log_.push_back("expire (no live hold)");
        return;
      }
      const std::size_t i = rng_.next_below(live_.size());
      state_.set_hold_expiry(live_[i].id, 123.0);
      state_.abort(live_[i].id);
      log_.push_back("expire: abort partially-settled hold");
      drop(i);
    }
  }

  void hop_op(bool settle) {
    // Pick a live hold with open hops, then a random open hop of it.
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].remaining > 0) eligible.push_back(i);
    }
    const char* name = settle ? "commit_hop" : "abort_hop";
    if (eligible.empty()) {
      log_.push_back(std::string(name) + " (no open hop)");
      return;
    }
    const std::size_t i = eligible[rng_.next_below(eligible.size())];
    LiveHold& lh = live_[i];
    std::size_t hop = rng_.next_below(lh.hop_open.size());
    while (!lh.hop_open[hop]) hop = (hop + 1) % lh.hop_open.size();
    if (settle) {
      state_.commit_hop(lh.id, hop);
    } else {
      state_.abort_hop(lh.id, hop);
    }
    log_.push_back(std::string(name) + " hop " + std::to_string(hop) + "/" +
                   std::to_string(lh.hop_open.size()));
    lh.hop_open[hop] = 0;
    if (--lh.remaining == 0) drop(i);  // ledger auto-retired the hold
  }

  // Force-close a channel with holds possibly across it: coin-flip each
  // crossing hold into "preimage propagating" (force-settles on-chain),
  // resolve, then zero the channel the way the scenario engine does.
  void close_channel() {
    std::vector<std::size_t> open;
    for (std::size_t c = 0; c < graph_.num_channels(); ++c) {
      if (!closed_[c]) open.push_back(c);
    }
    if (open.empty()) {
      log_.push_back("close (none open)");
      return;
    }
    const std::size_t c = open[rng_.next_below(open.size())];
    const EdgeId fe = graph_.channel_forward_edge(c);
    const EdgeId be = graph_.reverse(fe);
    std::size_t marked = 0;
    for (const LiveHold& lh : live_) {
      bool crosses = false;
      for (const auto& [e, amt] : state_.hold_parts(lh.id)) {
        if (amt > 0 && (e == fe || e == be)) {
          crosses = true;
          break;
        }
      }
      if (crosses && rng_.chance(0.5)) {
        state_.mark_hold_settling(lh.id);
        ++marked;
      }
    }
    const auto res = state_.resolve_holds_on_close(c);
    // Model update: every open hop on this channel resolved on-chain; a
    // hold whose last open hop this was got retired by the ledger.
    for (std::size_t i = live_.size(); i-- > 0;) {
      LiveHold& lh = live_[i];
      if (!state_.hold_active(lh.id)) {
        drop(i);
        continue;
      }
      const auto parts = state_.hold_parts(lh.id);
      for (std::size_t k = 0; k < parts.size(); ++k) {
        if (lh.hop_open[k] && parts[k].second <= 0) {
          lh.hop_open[k] = 0;
          --lh.remaining;
        }
      }
    }
    state_.set_channel_balance(c, 0, 0);
    closed_[c] = 1;
    log_.push_back("close channel " + std::to_string(c) + " (" +
                   std::to_string(res.settled_hops) + " settled, " +
                   std::to_string(res.refunded_hops) + " refunded, " +
                   std::to_string(marked) + " holds marked settling)");
  }

  void reopen_channel() {
    std::vector<std::size_t> closed;
    for (std::size_t c = 0; c < graph_.num_channels(); ++c) {
      if (closed_[c]) closed.push_back(c);
    }
    if (closed.empty()) {
      log_.push_back("reopen (none closed)");
      return;
    }
    const std::size_t c = closed[rng_.next_below(closed.size())];
    state_.set_channel_balance(c, 50, 50);  // fresh deposit, no ghost holds
    closed_[c] = 0;
    log_.push_back("reopen channel " + std::to_string(c));
  }

  // A node going dark fails every payment routed through it: abort each
  // live hold with an open hop touching the node (the scenario engine's
  // hub-outage path does the same through fail_htlc_payment).
  void knock_node_offline() {
    const NodeId n = static_cast<NodeId>(rng_.next_below(graph_.num_nodes()));
    std::size_t aborted = 0;
    for (std::size_t i = live_.size(); i-- > 0;) {
      bool touches = false;
      for (const auto& [e, amt] : state_.hold_parts(live_[i].id)) {
        if (amt > 0 && (graph_.from(e) == n || graph_.to(e) == n)) {
          touches = true;
          break;
        }
      }
      if (!touches) continue;
      state_.abort(live_[i].id);
      drop(i);
      ++aborted;
    }
    log_.push_back("node " + std::to_string(n) + " offline: aborted " +
                   std::to_string(aborted) + " crossing holds");
  }

  bool healthy() {
    std::size_t bad = 0;
    if (!state_.check_invariants(&bad)) {
      failure_ = "conservation violated on channel " + std::to_string(bad);
      return false;
    }
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      if (state_.balance(e) < -1e-9) {
        failure_ = "negative balance on edge " + std::to_string(e);
        return false;
      }
    }
    if (state_.active_holds() != live_.size()) {
      failure_ = "active_holds=" + std::to_string(state_.active_holds()) +
                 " but model tracks " + std::to_string(live_.size());
      return false;
    }
    return true;
  }

  Graph graph_;
  NetworkState state_;
  Rng rng_;
  std::vector<LiveHold> live_;
  std::vector<char> closed_;
  std::vector<std::string> log_;
  std::string failure_;
};

TEST(HtlcLifecycle, ConservationUnderRandomInterleavings) {
  constexpr std::size_t kSeeds = 40;
  constexpr std::size_t kSteps = 400;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    std::uint64_t stream = 0x417cu + s;
    const std::uint64_t seed = splitmix64(stream);
    LifecycleFuzzer fuzzer(seed);
    const std::size_t failed_at = fuzzer.run(kSteps);
    if (failed_at == SIZE_MAX) continue;
    std::string trace;
    for (std::size_t k = 0; k <= failed_at && k < fuzzer.log().size(); ++k) {
      trace += "  [" + std::to_string(k) + "] " + fuzzer.log()[k] + "\n";
    }
    ADD_FAILURE() << "lifecycle fuzz seed " << seed << " (index " << s
                  << "): " << fuzzer.failure() << " at step " << failed_at
                  << "\nminimal failing prefix:\n"
                  << trace;
    return;  // first failure is enough; the trace replays it
  }
}

}  // namespace
}  // namespace flash
