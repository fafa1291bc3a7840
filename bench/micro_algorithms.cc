// Microbenchmarks (google-benchmark): the algorithmic building blocks.
//
// These are not figures from the paper; they quantify the cost of each
// primitive on realistic topology sizes so that regressions in the graph
// layer are caught by numbers, not vibes. BFS, Dijkstra, Yen, elephant
// probing and the simplex fee split are measured by bench_graph_core and
// bench_lp.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/edge_disjoint.h"
#include "graph/scratch.h"
#include "graph/topology.h"
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

void BM_EdgeDisjointPaths(benchmark::State& state) {
  const Graph& g = ripple_graph();
  GraphScratch scratch;
  std::vector<Path> paths;
  Rng rng(5);
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    edge_disjoint_core(g, s, t, 4, scratch, paths);
    benchmark::DoNotOptimize(paths.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EdgeDisjointPaths);

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
