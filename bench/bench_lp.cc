// Microbenchmarks (google-benchmark) for the fee-LP split pipeline.
//
// The LP solve of program (1) sits on the hot path of every elephant
// payment (fig09, fig14, ablations), so its cost is tracked in
// BENCH_micro.json under "lp_core" by tools/run_benches.sh, next to the
// graph-core numbers. Three layers are measured on the fig-scale
// Ripple-like topology:
//   - solve_lp_core at representative program-(1) shapes (k paths, one
//     demand equality + ~3k capacity rows), emitted into its workspace on
//     every iteration as optimize_fee_split_core does,
//   - optimize_fee_split_core vs sequential_split_core on real probed
//     path sets,
//   - the combined elephant probe+split step (Algorithm 1 + program (1)),
//     the per-payment quantity Fig. 9 sweeps pay thousands of times.
// Set FLASH_BENCH_SMOKE (non-empty) to run every benchmark for exactly one
// iteration — the CI smoke mode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "graph/topology.h"
#include "ledger/fee_policy.h"
#include "ledger/network_state.h"
#include "lp/fee_min.h"
#include "lp/simplex.h"
#include "routing/flash/elephant.h"
#include "util/rng.h"

namespace flash {
namespace {

/// CI smoke mode: one iteration per benchmark, no min-time sampling.
void apply_smoke(benchmark::internal::Benchmark* b) {
  const char* v = std::getenv("FLASH_BENCH_SMOKE");
  if (v && *v) b->Iterations(1);
}

/// Shared fixtures, built once (the paper's Ripple-scale topology).
const Graph& ripple_graph() {
  static const Graph g = [] {
    Rng rng(1);
    return ripple_like(rng);
  }();
  return g;
}

const FeeSchedule& ripple_fees() {
  static const FeeSchedule fees = [] {
    Rng rng(41);
    return FeeSchedule::paper_default(ripple_graph(), rng);
  }();
  return fees;
}

NetworkState make_loaded_state(const Graph& g) {
  Rng rng(2);
  NetworkState s(g);
  s.assign_lognormal_split(250, 1.0, rng);
  return s;
}

/// A probed elephant instance: the path set P, capacity matrix C and a
/// demand known to be satisfiable (90% of the probed max flow).
struct ProbedInstance {
  ElephantProbeResult probe;
  Amount demand = 0;
};

/// Probed path sets for 32 random sender/receiver pairs, built once. The
/// splits then re-run on them forever, which is exactly the shape of a
/// fig09 sweep (each payment probes once, splits once).
const std::vector<ProbedInstance>& probed_instances() {
  static const std::vector<ProbedInstance> instances = [] {
    const Graph& g = ripple_graph();
    NetworkState s = make_loaded_state(g);
    GraphScratch scratch;
    Rng rng(42);
    std::vector<ProbedInstance> out;
    while (out.size() < 32) {
      const auto src = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto dst = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (src == dst) continue;
      ProbedInstance inst;
      elephant_find_paths_into(g, src, dst, 1e6, 20, s, scratch, inst.probe);
      if (inst.probe.paths.size() < 2 || inst.probe.max_flow <= 0) continue;
      inst.demand = 0.9 * inst.probe.max_flow;
      out.push_back(std::move(inst));
    }
    return out;
  }();
  return instances;
}

void BM_LpCore_SolveLp(benchmark::State& state) {
  // Representative program (1): k paths, one equality + per-edge caps.
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> objective(k);
  for (auto& c : objective) c = rng.uniform(0.001, 0.1);
  // Capacity rows: each path crosses a given edge with probability 0.3.
  std::vector<std::vector<double>> cap_rows(3 * k, std::vector<double>(k));
  std::vector<double> cap_rhs(3 * k);
  for (std::size_t i = 0; i < 3 * k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (rng.chance(0.3)) cap_rows[i][j] = 1.0;
    }
    cap_rhs[i] = rng.uniform(0.2, 2.0);
  }
  LpWorkspace ws;
  for (auto _ : state) {
    ws.reset(k);
    std::copy(objective.begin(), objective.end(), ws.objective.begin());
    double* demand = ws.add_constraint(Relation::kEq, 1.0);
    std::fill(demand, demand + k, 1.0);
    for (std::size_t i = 0; i < cap_rows.size(); ++i) {
      double* row = ws.add_constraint(Relation::kLessEq, cap_rhs[i]);
      std::copy(cap_rows[i].begin(), cap_rows[i].end(), row);
    }
    solve_lp_core(ws);
    benchmark::DoNotOptimize(ws.objective_value);
  }
}
BENCHMARK(BM_LpCore_SolveLp)->Arg(4)->Arg(20)->Arg(30)->Apply(apply_smoke);

void BM_LpCore_OptimizeFeeSplit(benchmark::State& state) {
  const Graph& g = ripple_graph();
  const FeeSchedule& fees = ripple_fees();
  const auto& instances = probed_instances();
  SplitWorkspace ws;
  SplitResult split;
  std::size_t i = 0;
  for (auto _ : state) {
    const ProbedInstance& inst = instances[i++ % instances.size()];
    optimize_fee_split_core(g, inst.probe.paths, inst.demand,
                            inst.probe.capacities, fees, ws, split);
    benchmark::DoNotOptimize(split.total_fee);
  }
}
BENCHMARK(BM_LpCore_OptimizeFeeSplit)->Apply(apply_smoke);

void BM_LpCore_SequentialSplit(benchmark::State& state) {
  const Graph& g = ripple_graph();
  const FeeSchedule& fees = ripple_fees();
  const auto& instances = probed_instances();
  SplitWorkspace ws;
  SplitResult split;
  std::size_t i = 0;
  for (auto _ : state) {
    const ProbedInstance& inst = instances[i++ % instances.size()];
    sequential_split_core(g, inst.probe.paths, inst.demand,
                          inst.probe.capacities, fees, ws, split);
    benchmark::DoNotOptimize(split.total_fee);
  }
}
BENCHMARK(BM_LpCore_SequentialSplit)->Apply(apply_smoke);

void BM_LpCore_ElephantProbeSplit(benchmark::State& state) {
  // Algorithm 1 + program (1) back to back: the full per-elephant routing
  // work minus the ledger commit.
  const Graph& g = ripple_graph();
  const FeeSchedule& fees = ripple_fees();
  NetworkState s = make_loaded_state(g);
  GraphScratch scratch;
  ElephantProbeResult probe;
  SplitWorkspace ws;
  SplitResult split;
  Rng rng(6);
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto dst = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    elephant_find_paths_into(g, src, dst, 1e6, 20, s, scratch, probe);
    if (probe.paths.empty() || probe.max_flow <= 0) continue;
    optimize_fee_split_core(g, probe.paths, 0.9 * probe.max_flow,
                            probe.capacities, fees, ws, split);
    benchmark::DoNotOptimize(split.total_fee);
  }
}
BENCHMARK(BM_LpCore_ElephantProbeSplit)->Apply(apply_smoke);

}  // namespace
}  // namespace flash

BENCHMARK_MAIN();
