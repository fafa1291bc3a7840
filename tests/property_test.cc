// Parameterized property suites: system-level invariants that must hold
// across randomized scenarios and every routing scheme.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/bfs.h"
#include "graph/topology.h"
#include "ledger/htlc.h"
#include "maxflow.h"
#include "routing/flash/elephant.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/workload.h"

namespace flash {
namespace {

// --- Ledger conservation under random operation sequences -------------------------

class LedgerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerFuzz, RandomHoldCommitAbortConservesDeposits) {
  Rng rng(GetParam());
  Graph g = watts_strogatz(20, 4, 0.3, rng);
  NetworkState s(g);
  s.assign_uniform_skewed(10, 100, 0.1, 0.9, rng);
  const Amount deposits = s.total_balance();

  std::vector<HoldId> open;
  GraphScratch scratch;
  for (int step = 0; step < 400; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.5) {
      // Random path hold attempt.
      const auto a = static_cast<NodeId>(rng.next_below(20));
      const auto b = static_cast<NodeId>(rng.next_below(20));
      if (a == b) continue;
      Path p;
      bfs_path_core(g, a, b, scratch, AdmitAll{}, p);
      if (p.empty()) continue;
      const Amount amt = rng.uniform(0.1, 30.0);
      const auto id = s.hold(p, amt);
      if (id) open.push_back(*id);
    } else if (!open.empty()) {
      const std::size_t i = rng.next_below(open.size());
      const HoldId id = open[i];
      open.erase(open.begin() + static_cast<long>(i));
      if (dice < 0.75) {
        s.commit(id);
      } else {
        s.abort(id);
      }
    }
    ASSERT_TRUE(s.check_invariants()) << "step " << step;
  }
  for (HoldId id : open) s.abort(id);
  EXPECT_NEAR(s.total_balance(), deposits, 1e-6 * deposits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Algorithm 1 vs the classical max-flow oracle -----------------------------------

class ElephantOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElephantOracle, ProbedFlowBoundedByTrueMaxFlow) {
  GraphScratch scratch;
  Rng rng(GetParam());
  Graph g = scale_free(40, 100, rng);
  NetworkState s(g);
  s.assign_lognormal_split(50, 1.0, rng);
  for (int trial = 0; trial < 10; ++trial) {
    const auto src = static_cast<NodeId>(rng.next_below(40));
    auto dst = static_cast<NodeId>(rng.next_below(40));
    if (dst == src) dst = (dst + 1) % 40;
    MaxFlowResult oracle;
    edmonds_karp_core(g, src, dst, [&](EdgeId e) { return s.balance(e); }, -1,
                      0, scratch, oracle);
    ElephantProbeResult probed;
    elephant_find_paths_into(g, src, dst, 1e18, 32, s, scratch, probed);
    EXPECT_LE(probed.max_flow, oracle.value + 1e-6);
    // Feasibility claim is trustworthy: if Algorithm 1 says it can carry d,
    // the oracle must agree.
    if (probed.feasible) {
      EXPECT_GE(oracle.value + 1e-6, probed.max_flow);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElephantOracle,
                         ::testing::Values(11, 12, 13, 14));

// --- Every scheme preserves ledger invariants over full simulations ----------------

class SchemeInvariants
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(SchemeInvariants, SimulationPreservesConservation) {
  const auto [scheme, seed] = GetParam();
  const Workload w = make_toy_workload(40, 400, seed);
  const auto router = make_router(scheme, w, {}, seed);
  // run_simulation() itself throws if the ledger invariant breaks or a
  // router leaks holds; reaching the end is the assertion.
  const SimResult r = run_simulation(w, *router, {2.0});
  EXPECT_EQ(r.transactions, 400u);
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInvariants,
    ::testing::Combine(::testing::Values(Scheme::kFlash, Scheme::kSpider,
                                         Scheme::kSpeedyMurmurs,
                                         Scheme::kShortestPath),
                       ::testing::Values(21, 22, 23)),
    [](const auto& suite_info) {
      return scheme_name(std::get<0>(suite_info.param)) + "_seed" +
             std::to_string(std::get<1>(suite_info.param));
    });

// --- Atomicity: delivered amount is all-or-nothing ----------------------------------

class Atomicity : public ::testing::TestWithParam<Scheme> {};

TEST_P(Atomicity, DeliveredIsZeroOrFull) {
  const Workload w = make_toy_workload(30, 300, 31);
  const auto router = make_router(GetParam(), w, {}, 31);
  NetworkState state = w.make_state(2.0);
  for (const Transaction& tx : w.transactions()) {
    const RouteResult r = router->route(tx, state);
    if (r.success) {
      EXPECT_DOUBLE_EQ(r.delivered, tx.amount);
    } else {
      EXPECT_DOUBLE_EQ(r.delivered, 0.0);
    }
    ASSERT_EQ(state.active_holds(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, Atomicity,
                         ::testing::Values(Scheme::kFlash, Scheme::kSpider,
                                           Scheme::kSpeedyMurmurs,
                                           Scheme::kShortestPath),
                         [](const auto& suite_info) {
                           return scheme_name(suite_info.param);
                         });

// --- Static schemes never probe ------------------------------------------------------

class StaticSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(StaticSchemes, NoProbingEver) {
  const Workload w = make_toy_workload(30, 200, 41);
  const auto router = make_router(GetParam(), w, {}, 41);
  const SimResult r = run_simulation(w, *router, {5.0});
  EXPECT_EQ(r.probe_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Static, StaticSchemes,
                         ::testing::Values(Scheme::kSpeedyMurmurs,
                                           Scheme::kShortestPath),
                         [](const auto& suite_info) {
                           return scheme_name(suite_info.param);
                         });

// --- Flash parameter sweeps (the Fig. 10/11 axes as properties) ---------------------

class MiceQuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(MiceQuantileSweep, RunsCleanAcrossThresholds) {
  const double quantile = GetParam();
  const Workload w = make_toy_workload(30, 300, 51);
  FlashOptions opts;
  opts.mice_quantile = quantile;
  const auto router = make_router(Scheme::kFlash, w, opts, 51);
  const SimResult r = run_simulation(w, *router, {3.0});
  EXPECT_EQ(r.transactions, 300u);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MiceQuantileSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 0.9, 1.0));

class MicePathsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MicePathsSweep, RunsCleanAcrossM) {
  const Workload w = make_toy_workload(30, 300, 61);
  FlashOptions opts;
  opts.m_mice_paths = GetParam();
  const auto router = make_router(Scheme::kFlash, w, opts, 61);
  const SimResult r = run_simulation(w, *router, {3.0});
  EXPECT_EQ(r.transactions, 300u);
}

INSTANTIATE_TEST_SUITE_P(PathCounts, MicePathsSweep,
                         ::testing::Values(0, 1, 2, 4, 6, 8));

// --- Probing overhead grows with aggressiveness -------------------------------------

TEST(ProbingProperty, MoreMicePathsMoreSuccessNotMoreProbes) {
  // With more paths per receiver, mice succeed at least as often; probing
  // per *successful* payment stays bounded.
  const Workload w = make_toy_workload(40, 500, 71);
  FlashOptions few;
  few.m_mice_paths = 1;
  FlashOptions many;
  many.m_mice_paths = 6;
  const auto r_few =
      run_simulation(w, *make_router(Scheme::kFlash, w, few, 71), {2.0});
  const auto r_many =
      run_simulation(w, *make_router(Scheme::kFlash, w, many, 71), {2.0});
  EXPECT_GE(r_many.successes + 10, r_few.successes);
}

}  // namespace
}  // namespace flash
