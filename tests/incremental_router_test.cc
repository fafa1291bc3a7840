// Churn-fuzz differential harness for incremental router maintenance
// (sim/scenario.h, RouterMaintenance).
//
// The oracle is kFullRebuild: reconstruct the sender's local graph, fees,
// mirror and router from scratch on every view change. The harness drives
// randomized churn/gossip/payment interleavings through the incremental
// engines and pins them against the oracle:
//
//   - kIncrementalStrict must be field-for-field identical to the oracle
//     for EVERY scheme and every knob combination (masked search over the
//     shared full-shape view graph equals search over the compacted open
//     subgraph; see docs/ARCHITECTURE.md).
//   - kIncrementalLazy must be identical to the oracle for the schemes
//     whose path searches are stable under deleting unused edges (BFS:
//     ShortestPath, Spider) when churn is closes-only (mean_downtime = 0).
//   - kIncrementalLazy must always be deterministic: two runs with the
//     same seed agree on everything (the Flash caveat is "not identical to
//     a fresh rebuild", never "nondeterministic").
//   - Under the timed HTLC lifecycle (hop latency, timelocks, a close
//     burst) strict must still match the oracle, HTLC counters included:
//     the shared mirror of the incremental engine is armed for deferred
//     settlement and syncs the truth writes of in-flight hops.
//
// The incremental engine's stale-view routers also share one set of
// workspaces (Router::borrow_workspace); BorrowedWorkspace pins that
// sharing routers route exactly like routers with their own.
//
// Failures print the scenario seed, the full knob vector, and the minimal
// payment prefix that still reproduces the divergence (linear shrink over
// the workload prefix), so a fuzz hit is immediately replayable.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/topology.h"
#include "sim/scenario.h"
#include "testutil.h"
#include "trace/workload.h"
#include "trace/workload_stream.h"
#include "util/rng.h"

namespace flash {
namespace {

using flash::testing::expect_identical;

// One fuzz scenario: every dynamics knob, derived deterministically from
// the scenario index (splitmix64 stream), so the corpus is stable across
// runs and a failure report's seed pinpoints one exact configuration.
struct FuzzKnobs {
  std::uint64_t seed = 0;   // engine seed (router + churn streams)
  Scheme scheme = Scheme::kFlash;
  std::size_t nodes = 24;
  std::size_t payments = 150;
  double capacity_scale = 2.0;
  double close_rate = 0.08;
  double mean_downtime = 0;   // 0 = closes-only churn
  double hop_delay = 0;       // 0 = instant gossip
  std::size_t max_retries = 0;
  std::size_t max_sender_routers = 0;  // 0 = unbounded LRU
  double rebalance_interval = 0;
  // Timed HTLC lifecycle and close burst (all zero = off).
  double hop_latency = 0;
  double timelock_delta = 0;
  double timelock_budget = 0;
  std::size_t burst_channels = 0;
  double burst_time = 0;
  double burst_reopen_after = 0;

  std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " scheme=" << scheme_name(scheme)
       << " nodes=" << nodes << " payments=" << payments
       << " capacity_scale=" << capacity_scale
       << " close_rate=" << close_rate
       << " mean_downtime=" << mean_downtime << " hop_delay=" << hop_delay
       << " max_retries=" << max_retries
       << " max_sender_routers=" << max_sender_routers
       << " rebalance_interval=" << rebalance_interval
       << " hop_latency=" << hop_latency
       << " timelock_delta=" << timelock_delta
       << " timelock_budget=" << timelock_budget
       << " burst_channels=" << burst_channels
       << " burst_time=" << burst_time
       << " burst_reopen_after=" << burst_reopen_after;
    return os.str();
  }
};

FuzzKnobs knobs_for(std::uint64_t index) {
  std::uint64_t state = 0x1cebu ^ (index * 0x9e3779b97f4a7c15ULL);
  const auto pick = [&state](std::uint64_t n) {
    return splitmix64(state) % n;
  };
  FuzzKnobs k;
  k.seed = splitmix64(state);
  k.scheme = all_schemes()[index % all_schemes().size()];
  k.nodes = (pick(2) == 0) ? 24 : 40;
  k.payments = (pick(2) == 0) ? 150 : 250;
  k.capacity_scale = (pick(2) == 0) ? 1.0 : 2.5;
  const double close_rates[] = {0.02, 0.08, 0.3};
  k.close_rate = close_rates[pick(3)];
  k.mean_downtime = (pick(2) == 0) ? 0.0 : 30.0;
  const double hop_delays[] = {0.0, 2.0, 7.0};
  k.hop_delay = hop_delays[pick(3)];
  k.max_retries = (pick(2) == 0) ? 0 : 2;
  const std::size_t caps[] = {0, 1, 3};
  k.max_sender_routers = caps[pick(3)];
  k.rebalance_interval = (pick(4) == 0) ? 50.0 : 0.0;
  return k;
}

/// An HTLC scenario: Flash or SP under the timed lifecycle, with and
/// without a timelock, churn with reopens, gossip delay, retries, a close
/// burst on every other scenario and K in {0, 3}.
FuzzKnobs htlc_knobs_for(std::uint64_t index) {
  std::uint64_t state = 0x417cu ^ (index * 0x9e3779b97f4a7c15ULL);
  const auto pick = [&state](std::uint64_t n) {
    return splitmix64(state) % n;
  };
  FuzzKnobs k;
  k.seed = splitmix64(state);
  k.scheme = (index % 2 == 0) ? Scheme::kFlash : Scheme::kShortestPath;
  k.nodes = (pick(2) == 0) ? 24 : 40;
  k.payments = (pick(2) == 0) ? 150 : 250;
  k.capacity_scale = (pick(2) == 0) ? 1.0 : 2.5;
  const double close_rates[] = {0.02, 0.08, 0.3};
  k.close_rate = close_rates[pick(3)];
  k.mean_downtime = 30.0;
  const double hop_delays[] = {0.0, 2.0, 7.0};
  k.hop_delay = hop_delays[pick(3)];
  k.max_retries = (pick(2) == 0) ? 0 : 2;
  k.max_sender_routers = (pick(2) == 0) ? 0 : 3;
  k.rebalance_interval = (pick(4) == 0) ? 50.0 : 0.0;
  k.hop_latency = (pick(2) == 0) ? 0.5 : 2.0;
  switch (pick(3)) {
    case 0:  // no timelock
      break;
    case 1:  // expiries possible: a round trip outlasts the timelock
      k.timelock_delta = 3.0;
      break;
    default:  // a timelock budget that caps routes at 4 hops
      k.timelock_delta = 3.0;
      k.timelock_budget = 12.0;
      break;
  }
  if (index % 2 == 1 || pick(2) == 0) {
    k.burst_channels = 4;
    k.burst_time = 40.0;
    k.burst_reopen_after = (pick(2) == 0) ? 0.0 : 25.0;
  }
  return k;
}

ScenarioConfig scenario_config(const FuzzKnobs& k, RouterMaintenance mode) {
  ScenarioConfig cfg;
  cfg.retry.max_retries = k.max_retries;
  cfg.retry.delay = 0.5;
  cfg.churn.close_rate = k.close_rate;
  cfg.churn.mean_downtime = k.mean_downtime;
  cfg.gossip.hop_delay = k.hop_delay;
  cfg.max_sender_routers = k.max_sender_routers;
  cfg.rebalance.interval = k.rebalance_interval;
  cfg.htlc.hop_latency = k.hop_latency;
  cfg.htlc.timelock_delta = k.timelock_delta;
  cfg.htlc.timelock_budget = k.timelock_budget;
  cfg.fault.burst_channels = k.burst_channels;
  cfg.fault.burst_time = k.burst_time;
  cfg.fault.burst_reopen_after = k.burst_reopen_after;
  cfg.maintenance = mode;
  return cfg;
}

SimConfig sim_config(const FuzzKnobs& k) {
  SimConfig sim;
  sim.capacity_scale = k.capacity_scale;
  return sim;
}

/// Runs one scenario, optionally truncated to the first `prefix` payments
/// (the shrinker's handle). The workload keeps its full transaction vector
/// so class/elephant thresholds — and therefore router construction — are
/// identical across prefixes; only the arrival stream shortens.
ScenarioResult run_mode(const Workload& w, const FuzzKnobs& k,
                        RouterMaintenance mode,
                        std::size_t prefix = ~std::size_t{0}) {
  const SimConfig sim = sim_config(k);
  const ScenarioConfig cfg = scenario_config(k, mode);
  if (prefix >= w.transactions().size()) {
    return run_scenario(w, k.scheme, {}, sim, cfg, k.seed);
  }
  const std::vector<Transaction> head(w.transactions().begin(),
                                      w.transactions().begin() + prefix);
  VectorWorkloadStream stream(head);
  ScenarioEngine engine(w, stream, k.scheme, {}, sim, cfg, k.seed);
  return engine.run();
}

/// Every field the two maintenance modes must agree on. The maintenance
/// telemetry itself (router_rebuilds / router_patches /
/// entries_invalidated) is excluded by design: replacing rebuilds with
/// patches is the whole point.
void expect_results_identical(const ScenarioResult& oracle,
                              const ScenarioResult& got) {
  expect_identical(oracle.sim, got.sim);
  EXPECT_EQ(oracle.payment_digest, got.payment_digest);
  EXPECT_EQ(oracle.channels_closed, got.channels_closed);
  EXPECT_EQ(oracle.channels_reopened, got.channels_reopened);
  EXPECT_EQ(oracle.rebalance_events, got.rebalance_events);
  EXPECT_EQ(oracle.gossip_rounds, got.gossip_rounds);
  EXPECT_EQ(oracle.gossip_messages, got.gossip_messages);
  EXPECT_EQ(oracle.router_cache_hits, got.router_cache_hits);
  EXPECT_EQ(oracle.router_cache_misses, got.router_cache_misses);
  EXPECT_EQ(oracle.router_cache_evictions, got.router_cache_evictions);
  EXPECT_EQ(oracle.duration, got.duration);
  EXPECT_EQ(oracle.htlc_payments, got.htlc_payments);
  EXPECT_EQ(oracle.htlc_inflight_failures, got.htlc_inflight_failures);
  EXPECT_EQ(oracle.htlc_expiries, got.htlc_expiries);
  EXPECT_EQ(oracle.htlc_offline_failures, got.htlc_offline_failures);
  EXPECT_EQ(oracle.htlc_holder_delays, got.htlc_holder_delays);
  EXPECT_EQ(oracle.htlc_max_inflight, got.htlc_max_inflight);
  EXPECT_EQ(oracle.htlc_onchain_settled_hops, got.htlc_onchain_settled_hops);
  EXPECT_EQ(oracle.htlc_onchain_refunded_hops,
            got.htlc_onchain_refunded_hops);
  EXPECT_EQ(oracle.htlc_break_failures, got.htlc_break_failures);
  EXPECT_EQ(oracle.rebalance_skipped_channels, got.rebalance_skipped_channels);
  EXPECT_EQ(oracle.fault_channel_closes, got.fault_channel_closes);
}

bool digests_equal(const ScenarioResult& a, const ScenarioResult& b) {
  return a.payment_digest == b.payment_digest;
}

/// Linear shrink: the smallest payment-prefix length on which the two
/// modes already disagree (digest-level). Only runs on failure, so the
/// O(payments^2) worst case never taxes a green suite.
std::size_t minimal_failing_prefix(const Workload& w, const FuzzKnobs& k,
                                   RouterMaintenance mode) {
  for (std::size_t n = 1; n <= w.transactions().size(); ++n) {
    if (!digests_equal(run_mode(w, k, RouterMaintenance::kFullRebuild, n),
                       run_mode(w, k, mode, n))) {
      return n;
    }
  }
  return w.transactions().size();
}

/// Returns the oracle's result (for callers asserting on the scenario).
ScenarioResult check_against_oracle(const Workload& w, const FuzzKnobs& k,
                                    RouterMaintenance mode,
                                    const char* mode_name) {
  const ScenarioResult oracle = run_mode(w, k, RouterMaintenance::kFullRebuild);
  const ScenarioResult got = run_mode(w, k, mode);
  if (!digests_equal(oracle, got)) {
    ADD_FAILURE() << mode_name << " diverged from the full-rebuild oracle\n"
                  << "  knobs: " << k.describe() << "\n"
                  << "  minimal failing payment prefix: "
                  << minimal_failing_prefix(w, k, mode) << " of "
                  << w.transactions().size();
    return oracle;
  }
  SCOPED_TRACE(k.describe());
  expect_results_identical(oracle, got);
  // Crisp telemetry invariant of the incremental engine: a rebuild happens
  // exactly on a context build (first use or post-eviction return), i.e.
  // on every cache miss, and never on a view change of a live context.
  if (k.scheme != Scheme::kSpeedyMurmurs) {
    EXPECT_EQ(got.router_rebuilds, got.router_cache_misses);
  }
  return oracle;
}

// --- The ≥200-scenario differential corpus -------------------------------

// Strict incremental maintenance vs the oracle, field-for-field, across
// 224 seeded scenarios cycling all four schemes and every dynamics knob.
TEST(IncrementalFuzz, StrictMatchesOracleAcrossSeeds) {
  constexpr std::uint64_t kScenarios = 224;
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    const FuzzKnobs k = knobs_for(i);
    const Workload w =
        make_toy_workload(k.nodes, k.payments, /*seed=*/k.seed & 0xffff);
    check_against_oracle(w, k, RouterMaintenance::kIncrementalStrict,
                         "kIncrementalStrict");
    if (HasFatalFailure()) return;
  }
}

// Strict vs the oracle under the timed HTLC lifecycle: in-flight hops
// write the truth between payments, deferred settlement is armed on every
// mirror, and a close burst resolves in-flight HTLCs on-chain. 48 seeded
// scenarios over Flash and SP; each must put payments in flight.
TEST(IncrementalFuzz, HtlcStrictMatchesOracle) {
  constexpr std::uint64_t kScenarios = 48;
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    const FuzzKnobs k = htlc_knobs_for(i);
    const Workload w =
        make_toy_workload(k.nodes, k.payments, /*seed=*/k.seed & 0xffff);
    const ScenarioResult oracle = check_against_oracle(
        w, k, RouterMaintenance::kIncrementalStrict, "kIncrementalStrict");
    EXPECT_GT(oracle.htlc_payments, 0u) << k.describe();
    if (HasFatalFailure()) return;
  }
}

// Lazy maintenance keeps per-pair path caches across view changes. For
// BFS-based schemes (ShortestPath, Spider) a cached path that avoids every
// closed edge is exactly what a fresh search would return (greedy BFS is
// stable under deleting unused edges), so under closes-only churn lazy
// must still be field-for-field identical to the oracle.
TEST(IncrementalFuzz, LazyMatchesOracleForStablePathSchemesClosesOnly) {
  std::size_t checked = 0;
  for (std::uint64_t i = 0; checked < 40 && i < 600; ++i) {
    FuzzKnobs k = knobs_for(i);
    if (k.scheme != Scheme::kShortestPath && k.scheme != Scheme::kSpider) {
      continue;
    }
    k.mean_downtime = 0;  // closes-only: reopens would leave masked
                          // survivors the oracle re-finds paths through
    const Workload w =
        make_toy_workload(k.nodes, k.payments, /*seed=*/k.seed & 0xffff);
    check_against_oracle(w, k, RouterMaintenance::kIncrementalLazy,
                         "kIncrementalLazy");
    if (HasFatalFailure()) return;
    ++checked;
  }
  EXPECT_EQ(checked, 40u);
}

// Lazy mode for Flash is NOT pinned path-identical to the oracle (a fresh
// Yen table may tie-break differently than a selectively-invalidated one —
// the documented caveat), but it must be perfectly deterministic: same
// seed, same everything.
TEST(IncrementalFuzz, LazyIsDeterministicForEveryScheme) {
  for (std::uint64_t i = 0; i < 48; ++i) {
    const FuzzKnobs k = knobs_for(i);
    const Workload w =
        make_toy_workload(k.nodes, k.payments, /*seed=*/k.seed & 0xffff);
    const ScenarioResult a = run_mode(w, k, RouterMaintenance::kIncrementalLazy);
    const ScenarioResult b = run_mode(w, k, RouterMaintenance::kIncrementalLazy);
    SCOPED_TRACE(k.describe());
    expect_results_identical(a, b);
    EXPECT_EQ(a.router_rebuilds, b.router_rebuilds);
    EXPECT_EQ(a.router_patches, b.router_patches);
    EXPECT_EQ(a.entries_invalidated, b.entries_invalidated);
  }
}

// Incremental modes actually patch: under churn with live contexts, view
// changes land in router_patches, not router_rebuilds.
TEST(IncrementalFuzz, IncrementalModesReplaceRebuildsWithPatches) {
  FuzzKnobs k = knobs_for(0);
  k.scheme = Scheme::kFlash;
  k.close_rate = 0.3;
  k.mean_downtime = 30;
  k.payments = 250;
  const Workload w = make_toy_workload(k.nodes, k.payments, 3);
  const ScenarioResult oracle =
      run_mode(w, k, RouterMaintenance::kFullRebuild);
  const ScenarioResult strict =
      run_mode(w, k, RouterMaintenance::kIncrementalStrict);
  EXPECT_EQ(oracle.router_patches, 0u);
  EXPECT_GT(strict.router_patches, 0u);
  EXPECT_LT(strict.router_rebuilds, oracle.router_rebuilds);
  EXPECT_GT(strict.entries_invalidated, 0u);
}

// SpeedyMurmurs has no maskable search; requesting incremental maintenance
// must silently fall back to full rebuilds (and stay oracle-identical,
// which StrictMatchesOracleAcrossSeeds also covers).
TEST(IncrementalFuzz, SpeedyMurmursFallsBackToFullRebuild) {
  FuzzKnobs k = knobs_for(2);
  k.scheme = Scheme::kSpeedyMurmurs;
  k.close_rate = 0.3;
  const Workload w = make_toy_workload(k.nodes, k.payments, 5);
  const ScenarioResult got =
      run_mode(w, k, RouterMaintenance::kIncrementalStrict);
  EXPECT_EQ(got.router_patches, 0u);
  EXPECT_GT(got.router_rebuilds, 0u);
}

// Three routers of one scheme, each under its own open mask like the
// engine's stale-view senders, take turns on one ledger: once with the
// two later routers borrowing the first one's workspaces, once with every
// router owning its own. Every RouteResult and the final ledgers must be
// bit-identical, elephants, mice, dead-path replacements and failures
// included.
TEST(BorrowedWorkspace, InterleavedRoutersMatchOwnWorkspaces) {
  Rng rng(41);
  const Graph g = scale_free(120, 480, rng);
  const FeeSchedule fees = FeeSchedule::paper_default(g, rng);
  std::vector<std::vector<unsigned char>> masks(
      3, std::vector<unsigned char>(g.num_edges(), 1));
  for (std::size_t r = 1; r < masks.size(); ++r) {
    for (int i = 0; i < 24; ++i) {
      const EdgeId e = g.channel_forward_edge(rng.next_below(g.num_channels()));
      masks[r][e] = 0;
      masks[r][g.reverse(e)] = 0;
    }
  }
  std::vector<Transaction> txs;
  while (txs.size() < 600) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (s != t) txs.push_back({s, t, rng.lognormal(3.0, 1.5), 0});
  }
  const Amount elephant_threshold = 150;  // roughly one payment in eight

  for (const Scheme scheme :
       {Scheme::kFlash, Scheme::kShortestPath, Scheme::kSpider}) {
    SCOPED_TRACE(scheme_name(scheme));
    NetworkState shared_ws{g};
    Rng brng(43);
    shared_ws.assign_lognormal_split(400, 1.0, brng);
    NetworkState own_ws{g};
    own_ws.restore(shared_ws.snapshot());
    std::vector<std::unique_ptr<Router>> sharing, owning;
    for (std::size_t r = 0; r < masks.size(); ++r) {
      for (auto* routers : {&sharing, &owning}) {
        routers->push_back(
            make_router(scheme, g, fees, elephant_threshold, {}, 7 + r));
        routers->back()->set_open_mask(masks[r].data());
      }
      if (r > 0) {
        ASSERT_TRUE(sharing[r]->borrow_workspace(*sharing[0]));
      }
    }
    std::size_t successes = 0;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const std::size_t r = i % masks.size();
      const RouteResult a = sharing[r]->route(txs[i], shared_ws);
      const RouteResult b = owning[r]->route(txs[i], own_ws);
      SCOPED_TRACE(i);
      ASSERT_EQ(a.success, b.success);
      EXPECT_EQ(a.delivered, b.delivered);
      EXPECT_EQ(a.fee, b.fee);
      EXPECT_EQ(a.probe_messages, b.probe_messages);
      EXPECT_EQ(a.probes, b.probes);
      EXPECT_EQ(a.paths_used, b.paths_used);
      EXPECT_EQ(a.elephant, b.elephant);
      successes += a.success ? 1 : 0;
    }
    // Both outcomes occur, so the comparison covers failures too.
    EXPECT_GT(successes, txs.size() / 10);
    EXPECT_LT(successes, txs.size());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(shared_ws.balance(e), own_ws.balance(e)) << "edge " << e;
    }
  }
}

}  // namespace
}  // namespace flash
