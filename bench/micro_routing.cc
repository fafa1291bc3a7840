// Microbenchmarks (google-benchmark): per-payment router latency.
//
// Measures the sender-side processing cost of one payment for each scheme
// on the Ripple-like topology — the quantity that the testbed's
// "processing delay" metric aggregates at system level.
#include <benchmark/benchmark.h>

#include "graph/bfs.h"
#include "sim/experiment.h"
#include "trace/workload.h"

namespace flash {
namespace {

const Workload& ripple_workload() {
  static const Workload w = [] {
    WorkloadConfig c;
    c.num_transactions = 4000;
    c.seed = 1;
    return make_ripple_workload(c);
  }();
  return w;
}

void route_loop(benchmark::State& state, Scheme scheme) {
  const Workload& w = ripple_workload();
  const auto router = make_router(scheme, w, {}, 1);
  NetworkState net = w.make_state(10.0);
  std::size_t i = 0;
  const auto& txs = w.transactions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(router->route(txs[i % txs.size()], net));
    ++i;
  }
}

void BM_RouteFlash(benchmark::State& state) {
  route_loop(state, Scheme::kFlash);
}
BENCHMARK(BM_RouteFlash);

void BM_RouteSpider(benchmark::State& state) {
  route_loop(state, Scheme::kSpider);
}
BENCHMARK(BM_RouteSpider);

void BM_RouteSpeedyMurmurs(benchmark::State& state) {
  route_loop(state, Scheme::kSpeedyMurmurs);
}
BENCHMARK(BM_RouteSpeedyMurmurs);

void BM_RouteShortestPath(benchmark::State& state) {
  route_loop(state, Scheme::kShortestPath);
}
BENCHMARK(BM_RouteShortestPath);

void BM_LedgerHoldCommit(benchmark::State& state) {
  const Workload& w = ripple_workload();
  NetworkState net = w.make_state(10.0);
  GraphScratch scratch;
  Path p;
  bfs_path_core(w.graph(), w.transactions()[0].sender,
                w.transactions()[0].receiver, scratch, AdmitAll{}, p);
  for (auto _ : state) {
    const auto id = net.hold(p, 0.01);
    if (id) net.commit(*id);
  }
}
BENCHMARK(BM_LedgerHoldCommit);

}  // namespace
}  // namespace flash

BENCHMARK_MAIN();
