// Microbenchmarks (google-benchmark): the algorithmic building blocks.
//
// These are not figures from the paper; they quantify the cost of each
// primitive on realistic topology sizes so that regressions in the graph
// layer are caught by numbers, not vibes. BFS, Yen, elephant probing and
// the simplex fee split are measured on their scratch-based cores by
// bench_graph_core and bench_lp.
#include <benchmark/benchmark.h>

#include "graph/edge_disjoint.h"
#include "graph/maxflow.h"
#include "graph/topology.h"
#include "ledger/network_state.h"
#include "util/rng.h"

namespace flash {
namespace {

/// Shared fixtures, built once.
const Graph& ripple_graph() {
  static const Graph g = [] {
    Rng rng(1);
    return ripple_like(rng);
  }();
  return g;
}

NetworkState make_loaded_state(const Graph& g) {
  Rng rng(2);
  NetworkState s(g);
  s.assign_lognormal_split(250, 1.0, rng);
  return s;
}

void BM_EdgeDisjointPaths(benchmark::State& state) {
  const Graph& g = ripple_graph();
  Rng rng(5);
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    benchmark::DoNotOptimize(edge_disjoint_shortest_paths(g, s, t, 4));
  }
}
BENCHMARK(BM_EdgeDisjointPaths);

void BM_EdmondsKarp(benchmark::State& state) {
  const Graph& g = ripple_graph();
  const NetworkState s = make_loaded_state(g);
  Rng rng(6);
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto dst = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    benchmark::DoNotOptimize(edmonds_karp(
        g, src, dst, [&](EdgeId e) { return s.balance(e); }, -1, 20));
  }
}
BENCHMARK(BM_EdmondsKarp);

void BM_TopologyGeneration(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(scale_free(1870, 8708, rng));
  }
}
BENCHMARK(BM_TopologyGeneration);

}  // namespace
}  // namespace flash

BENCHMARK_MAIN();
