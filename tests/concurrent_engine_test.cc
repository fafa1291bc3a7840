// Tests for the concurrent payment engine (sim/concurrent.cc).
//
// Replay mode's contract is exact: for any worker count, the run is
// bit-identical — payment digest and every semantic counter — to the
// sequential engine with payment_indexed_rng on (its equality oracle).
// The suite fuzzes that claim across all four schemes, churn on/off,
// sender-router cache bounds, and worker counts {1, 2, 8}, plus a
// rebalance-drift case.
#include <gtest/gtest.h>

#include "sim/scenario.h"
#include "testutil.h"
#include "trace/workload.h"

namespace flash {
namespace {

using flash::testing::expect_identical;

ScenarioConfig with_execution(const ScenarioConfig& base,
                              ScenarioExecution mode, std::size_t workers) {
  ScenarioConfig cfg = base;
  cfg.concurrency.execution = mode;
  cfg.concurrency.workers = workers;
  return cfg;
}

/// The replay equality oracle: the sequential engine with payment-indexed
/// rng on (replay forces that knob, so plain sequential differs by design).
ScenarioResult run_oracle(const Workload& w, Scheme scheme,
                          const ScenarioConfig& base, std::uint64_t seed) {
  ScenarioConfig cfg = base;
  cfg.payment_indexed_rng = true;
  return run_scenario(w, scheme, {}, {}, cfg, seed);
}

void expect_replay_identical(const ScenarioResult& got,
                             const ScenarioResult& oracle) {
  expect_identical(got.sim, oracle.sim);
  EXPECT_EQ(got.payment_digest, oracle.payment_digest);
  EXPECT_EQ(got.channels_closed, oracle.channels_closed);
  EXPECT_EQ(got.channels_reopened, oracle.channels_reopened);
  EXPECT_EQ(got.rebalance_events, oracle.rebalance_events);
  EXPECT_EQ(got.gossip_messages, oracle.gossip_messages);
  EXPECT_EQ(got.router_rebuilds, oracle.router_rebuilds);
  EXPECT_EQ(got.duration, oracle.duration);
}

TEST(ConcurrentReplay, BitIdenticalToSequentialOracleAllSchemes) {
  const Workload w = make_toy_workload(30, 250, 3);
  const ScenarioConfig base;  // zero dynamics
  for (const Scheme scheme : all_schemes()) {
    const ScenarioResult oracle = run_oracle(w, scheme, base, 7);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      const ScenarioResult got = run_scenario(
          w, scheme, {}, {},
          with_execution(base, ScenarioExecution::kReplay, workers), 7);
      expect_replay_identical(got, oracle);
      EXPECT_EQ(got.workers_used, workers);
      // Zero dynamics: every payment should be consumed from speculation
      // or inline-rerouted; the two must cover all route attempts.
      EXPECT_EQ(got.spec_accepted + got.spec_rerouted,
                got.sim.transactions + got.sim.retries);
    }
  }
}

TEST(ConcurrentReplay, BitIdenticalUnderChurnFuzzGrid) {
  // The hard grid: churn + gossip staleness mean speculations go stale
  // and the per-sender stale-view machinery takes over mid-run. Replay
  // speculation only covers the pristine era, but the handoff (quiesce,
  // abandoned frames, preread stream continuation) must be seamless.
  const Workload w = make_toy_workload(30, 300, 5);
  for (const Scheme scheme : {Scheme::kFlash, Scheme::kShortestPath,
                              Scheme::kSpider, Scheme::kSpeedyMurmurs}) {
    for (const std::size_t cache_bound : {0u, 2u}) {
      ScenarioConfig base;
      base.churn.close_rate = 0.08;
      base.churn.mean_downtime = 40;
      base.gossip.hop_delay = 3;
      base.retry.max_retries = 1;
      base.max_sender_routers = cache_bound;
      const ScenarioResult oracle = run_oracle(w, scheme, base, 13);
      for (const std::size_t workers : {1u, 2u, 8u}) {
        const ScenarioResult got = run_scenario(
            w, scheme, {}, {},
            with_execution(base, ScenarioExecution::kReplay, workers), 13);
        expect_replay_identical(got, oracle);
      }
    }
  }
}

TEST(ConcurrentReplay, BitIdenticalAcrossRebalanceDrift) {
  // Rebalancing rewrites the whole ledger mid-run while speculation stays
  // live (non-permanent quiesce + full-edge republish). Every speculation
  // spanning the drift must be detected stale and re-routed.
  const Workload w = make_toy_workload(25, 250, 9);
  ScenarioConfig base;
  base.rebalance.interval = 25;
  base.rebalance.strength = 0.5;
  base.retry.max_retries = 1;
  for (const Scheme scheme : {Scheme::kFlash, Scheme::kSpider}) {
    const ScenarioResult oracle = run_oracle(w, scheme, base, 17);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      const ScenarioResult got = run_scenario(
          w, scheme, {}, {},
          with_execution(base, ScenarioExecution::kReplay, workers), 17);
      expect_replay_identical(got, oracle);
      EXPECT_GT(got.rebalance_events, 0u);
    }
  }
}

TEST(ConcurrentReplay, SpeculationActuallyAccepts) {
  // The pipeline must not degrade into rerouting everything inline: on a
  // zero-dynamics run, payments from senders whose shard has no conflicting
  // traffic should overwhelmingly consume their speculation.
  const Workload w = make_toy_workload(30, 250, 3);
  const ScenarioResult got = run_scenario(
      w, Scheme::kShortestPath, {}, {},
      with_execution({}, ScenarioExecution::kReplay, 2), 7);
  EXPECT_GT(got.spec_accepted, got.spec_rerouted);
}

TEST(ConcurrentReplay, LatencyHistogramCoversEveryPayment) {
  const Workload w = make_toy_workload(20, 150, 4);
  const ScenarioResult got = run_scenario(
      w, Scheme::kFlash, {}, {},
      with_execution({}, ScenarioExecution::kReplay, 2), 5);
  EXPECT_EQ(got.latency.count, got.sim.transactions);
  EXPECT_LE(got.latency.p50_seconds, got.latency.p99_seconds);
  // p50/p99 come from a log histogram (8 bins per decade) that
  // interpolates within a bin, so a quantile may legitimately land up to
  // one bin ratio (10^(1/8) ~= 1.334) above the exact maximum.
  EXPECT_LE(got.latency.p99_seconds, got.latency.max_seconds * 1.34);
  EXPECT_GT(got.latency.mean_seconds, 0.0);
}

TEST(ConcurrentSequential, LatencyAlsoRecordedInSequentialMode) {
  const Workload w = make_toy_workload(20, 150, 4);
  const ScenarioResult got = run_scenario(w, Scheme::kFlash, {}, {}, {}, 5);
  EXPECT_EQ(got.latency.count, got.sim.transactions);
  EXPECT_EQ(got.workers_used, 1u);
  EXPECT_EQ(got.spec_accepted, 0u);
  EXPECT_EQ(got.spec_rerouted, 0u);
}

TEST(ConcurrentSequential, PaymentIndexedRngIsDeterministic) {
  // The knob replay forces must itself be a well-behaved sequential mode:
  // deterministic, and structurally equal to the default stream apart
  // from rng draws.
  const Workload w = make_toy_workload(30, 250, 3);
  ScenarioConfig cfg;
  cfg.payment_indexed_rng = true;
  const ScenarioResult a = run_scenario(w, Scheme::kFlash, {}, {}, cfg, 7);
  const ScenarioResult b = run_scenario(w, Scheme::kFlash, {}, {}, cfg, 7);
  expect_identical(a.sim, b.sim);
  EXPECT_EQ(a.payment_digest, b.payment_digest);
  const ScenarioResult plain = run_scenario(w, Scheme::kFlash, {}, {}, {}, 7);
  EXPECT_EQ(a.sim.transactions, plain.sim.transactions);
}

}  // namespace
}  // namespace flash
