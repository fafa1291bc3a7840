// Steady-state allocation-freedom of the graph-algorithm core.
//
// This binary replaces global operator new/delete with counting forwarders
// and asserts that, once a GraphScratch (and any reused output buffers) has
// warmed up on a first query, repeating queries through the scratch-based
// cores performs ZERO heap allocations — the central promise of the PR 3
// CSR + epoch-stamped-workspace refactor. Runs in its own test binary so
// the counters don't see unrelated traffic (gtest itself only allocates on
// failure paths and between tests).
//
// Since the LP fee-split rewrite the same promise covers the whole
// elephant pipeline: the flat ProbedCapacities matrix, the LP split cores
// running in a SplitWorkspace, and route_elephant end to end — including
// the ledger, whose hold records are recycled through a free list.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/dijkstra.h"
#include "graph/edge_disjoint.h"
#include "graph/scratch.h"
#include "graph/topology.h"
#include "graph/yen.h"
#include "ledger/fee_policy.h"
#include "lp/fee_min.h"
#include "maxflow.h"
#include "routing/flash/elephant.h"
#include "routing/flash/flash_router.h"
#include "routing/shortest_path.h"
#include "testutil.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replaced operators below back ALL of new/new[]/aligned new with
// malloc/aligned_alloc, both of which free() releases legally (C11/POSIX).
// GCC pairs new-expressions with the inlined free() call and reports a
// mismatched allocation function; that analysis doesn't apply to a
// replaced global allocator, so silence it for this file.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// Counting global allocator: every path through operator new lands here.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace flash {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

const Graph& test_graph() {
  static const Graph g = [] {
    Rng rng(7);
    return scale_free(400, 1600, rng);
  }();
  return g;
}

using FeeWeight = testing::DeterministicFeeWeight;

/// Runs `fn` once to warm the scratch/buffers, then asserts the next
/// `repeats` runs allocate nothing.
template <typename Fn>
void expect_steady_state_alloc_free(const char* what, Fn&& fn,
                                    int repeats = 5) {
  fn();  // warm-up: sizes the scratch arrays and output buffers
  fn();  // second warm-up: first call may still grow slot-reused outputs
  const std::uint64_t before = allocations();
  for (int i = 0; i < repeats; ++i) fn();
  const std::uint64_t after = allocations();
  EXPECT_EQ(after - before, 0u)
      << what << ": " << (after - before) << " allocations in " << repeats
      << " steady-state queries";
}

TEST(AllocationFree, DijkstraCore) {
  const Graph& g = test_graph();
  GraphScratch scratch;
  Path path;
  expect_steady_state_alloc_free("dijkstra_core", [&] {
    path.clear();
    dijkstra_core(g, 3, 377, scratch, FeeWeight{}, false, path);
  });
}

TEST(AllocationFree, DijkstraDistancesCore) {
  const Graph& g = test_graph();
  GraphScratch scratch;
  expect_steady_state_alloc_free("dijkstra_distances_core", [&] {
    dijkstra_distances_core(g, 11, scratch, UnitWeight{});
  });
}

TEST(AllocationFree, BfsPathCore) {
  const Graph& g = test_graph();
  GraphScratch scratch;
  Path path;
  expect_steady_state_alloc_free("bfs_path_core", [&] {
    path.clear();
    bfs_path_core(g, 5, 390, scratch, AdmitAll{}, path);
  });
}

TEST(AllocationFree, YenCore) {
  const Graph& g = test_graph();
  GraphScratch scratch;
  std::vector<Path> out;
  expect_steady_state_alloc_free("yen_core", [&] {
    yen_core(g, 2, 351, 8, scratch, UnitWeight{}, out);
  });
}

TEST(AllocationFree, YenCoreAcrossReceivers) {
  // Steady state also means: revisiting a *set* of receivers allocates
  // nothing once each has been seen (buffer high-water marks stabilize).
  const Graph& g = test_graph();
  GraphScratch scratch;
  std::vector<Path> out;
  const NodeId receivers[] = {351, 17, 230, 88, 399};
  expect_steady_state_alloc_free("yen_core (receiver set)", [&] {
    for (const NodeId t : receivers) {
      yen_core(g, 2, t, 8, scratch, UnitWeight{}, out);
    }
  });
}

TEST(AllocationFree, EdgeDisjointCore) {
  const Graph& g = test_graph();
  GraphScratch scratch;
  std::vector<Path> out;
  expect_steady_state_alloc_free("edge_disjoint_core", [&] {
    edge_disjoint_core(g, 9, 320, 4, scratch, out);
  });
}

// --- Fee-LP split pipeline ------------------------------------------------

/// Fig-scale probed elephant instance shared by the split tests: a real
/// Algorithm-1 path set and capacity matrix on the test topology.
struct SplitFixture {
  const Graph& g = test_graph();
  NetworkState state{g};
  FeeSchedule fees;
  GraphScratch scratch;
  ElephantProbeResult probe;
  Amount demand = 0;

  SplitFixture() {
    Rng rng(21);
    state.assign_lognormal_split(250, 1.0, rng);
    fees = FeeSchedule::paper_default(g, rng);
    elephant_find_paths_into(g, 11, 377, 1e6, 20, state, scratch, probe);
    EXPECT_GE(probe.paths.size(), 2u);
    demand = 0.9 * probe.max_flow;
    EXPECT_GT(demand, 0);
  }
};

TEST(AllocationFree, OptimizeFeeSplitCore) {
  SplitFixture f;
  SplitWorkspace ws;
  SplitResult result;
  expect_steady_state_alloc_free("optimize_fee_split_core", [&] {
    optimize_fee_split_core(f.g, f.probe.paths, f.demand, f.probe.capacities,
                            f.fees, ws, result);
    EXPECT_TRUE(result.feasible);
  });
}

TEST(AllocationFree, SequentialSplitCore) {
  SplitFixture f;
  SplitWorkspace ws;
  SplitResult result;
  expect_steady_state_alloc_free("sequential_split_core", [&] {
    sequential_split_core(f.g, f.probe.paths, f.demand, f.probe.capacities,
                          f.fees, ws, result);
    EXPECT_TRUE(result.feasible);
  });
}

TEST(AllocationFree, ElephantProbeIntoFlatCapacities) {
  // The probe loop itself, including the flat ProbedCapacities rebuild
  // that replaced the fresh-unordered_map-per-probe workaround.
  SplitFixture f;
  expect_steady_state_alloc_free("elephant_find_paths_into", [&] {
    elephant_find_paths_into(f.g, 11, 377, 1e6, 20, f.state, f.scratch,
                             f.probe);
  });
}

TEST(AllocationFree, RouteElephantFullSplitPath) {
  // The complete elephant pipeline: probing, LP split, sparse netting and
  // the ledger hold/commit — the per-payment work of every fig09-style
  // sweep. The state is restored between calls so each run performs the
  // exact same (successful) payment, warm-up included.
  SplitFixture f;
  ElephantConfig config;
  SplitWorkspace split_ws;
  ElephantProbeResult probe_buf;
  const NetworkState::Snapshot snap = f.state.snapshot();
  Transaction tx{11, 377, 0, 0};
  tx.amount = f.demand;
  expect_steady_state_alloc_free("route_elephant (LP split)", [&] {
    f.state.restore(snap);
    const RouteResult r = route_elephant(f.g, tx, f.state, f.fees, config,
                                         f.scratch, probe_buf, split_ws);
    EXPECT_TRUE(r.success);
  });
}

TEST(AllocationFree, RouteElephantSequentialFallbackPath) {
  // Fig. 9's "w/o optimization" configuration (sequential fill) through
  // the same full pipeline.
  SplitFixture f;
  ElephantConfig config;
  config.optimize_fees = false;
  SplitWorkspace split_ws;
  ElephantProbeResult probe_buf;
  const NetworkState::Snapshot snap = f.state.snapshot();
  Transaction tx{11, 377, 0, 0};
  tx.amount = f.demand;
  expect_steady_state_alloc_free("route_elephant (sequential)", [&] {
    f.state.restore(snap);
    const RouteResult r = route_elephant(f.g, tx, f.state, f.fees, config,
                                         f.scratch, probe_buf, split_ws);
    EXPECT_TRUE(r.success);
  });
}

TEST(AllocationFree, BorrowedWorkspaceFirstElephant) {
  // A stale-view router of the scenario engine routes in the warm
  // workspaces of the idle pristine router (Router::borrow_workspace), so
  // a freshly built router's first elephant allocates nothing: no scratch
  // arrays, probe buffers or LP tableau of its own to grow.
  SplitFixture f;
  FlashConfig config;
  config.elephant_threshold = 1;  // every payment is an elephant
  FlashRouter lender(f.g, f.fees, config);
  const NetworkState::Snapshot snap = f.state.snapshot();
  Transaction tx{11, 377, 0, 0};
  tx.amount = f.demand;
  for (int i = 0; i < 2; ++i) {  // warm the lender and the ledger
    f.state.restore(snap);
    EXPECT_TRUE(lender.route(tx, f.state).success);
  }

  FlashRouter borrower(f.g, f.fees, config);
  ASSERT_TRUE(borrower.borrow_workspace(lender));
  f.state.restore(snap);
  const std::uint64_t before = allocations();
  const RouteResult r = borrower.route(tx, f.state);
  const std::uint64_t after = allocations();
  EXPECT_TRUE(r.success);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in the borrower's first elephant";
}

// --- Incremental maintenance patch path -----------------------------------
//
// The scenario engine's steady-state reaction to a gossip view bump is:
// flip mask bits for the delta, apply_topology_delta on the router, reseed,
// route. None of that may allocate once warm — otherwise patching would
// re-introduce the per-view-change heap traffic the incremental mode
// exists to remove.

TEST(AllocationFree, ShortestPathPatchAndRouteSteadyState) {
  const Graph& g = test_graph();
  FeeSchedule fees(g);
  NetworkState state{g};
  Rng rng(33);
  state.assign_lognormal_split(1e6, 1.0, rng);

  ShortestPathRouter router(g, fees);
  std::vector<unsigned char> mask(g.num_edges(), 1);
  router.set_open_mask(mask.data());

  // Adjacent endpoints: the cached path is the single direct edge, so any
  // OTHER channel can churn without touching it — the lazy invalidation
  // scan must keep the entry and route must stay a cache hit.
  const NodeId s = 3;
  const EdgeId direct = g.out_edges(s)[0];
  const NodeId t = g.to(direct);
  Transaction tx{s, t, 1.0, 0};
  const EdgeId churned = (g.channel_of(direct) == 0)
                             ? g.channel_forward_edge(1)
                             : g.channel_forward_edge(0);
  const EdgeId delta[] = {churned};

  expect_steady_state_alloc_free("SP view bump -> patch -> route", [&] {
    mask[churned] = 0;
    mask[g.reverse(churned)] = 0;
    router.apply_topology_delta(delta, {}, /*strict=*/false);
    mask[churned] = 1;
    mask[g.reverse(churned)] = 1;
    router.apply_topology_delta({}, delta, /*strict=*/false);
    router.reseed(42);
    router.route(tx, state);
  });
}

TEST(AllocationFree, FlashMicePatchAndRouteSteadyState) {
  // The same cycle through FlashRouter's mice table: lazy invalidation
  // scans the Yen entries (the churned channel is on none of the cached
  // paths), the lookup stays a hit, and the masked send pipeline reuses
  // its scratch.
  const Graph& g = test_graph();
  NetworkState state{g};
  Rng rng(27);
  state.assign_lognormal_split(1e6, 1.0, rng);
  const FeeSchedule fees = FeeSchedule::paper_default(g, rng);

  FlashConfig config;
  config.elephant_threshold = 1e5;  // everything below is a mouse
  FlashRouter router(g, fees, config);
  std::vector<unsigned char> mask(g.num_edges(), 1);
  router.set_open_mask(mask.data());

  const NodeId s = 3;
  const EdgeId direct = g.out_edges(s)[0];
  const NodeId t = g.to(direct);
  Transaction tx{s, t, 2.0, 0};
  const EdgeId churned = (g.channel_of(direct) == 0)
                             ? g.channel_forward_edge(1)
                             : g.channel_forward_edge(0);
  const EdgeId delta[] = {churned};

  // Drop the mask bits BEFORE warm-up so the cached Yen paths provably
  // avoid the churned channel (masked search never admits it); every
  // steady-state invalidation scan then keeps the entry.
  mask[churned] = 0;
  mask[g.reverse(churned)] = 0;
  router.route(tx, state);

  expect_steady_state_alloc_free("Flash mice view bump -> patch -> route",
                                 [&] {
    mask[churned] = 1;
    mask[g.reverse(churned)] = 1;
    router.apply_topology_delta({}, delta, /*strict=*/false);
    mask[churned] = 0;
    mask[g.reverse(churned)] = 0;
    router.apply_topology_delta(delta, {}, /*strict=*/false);
    router.reseed(42);
    router.route(tx, state);
  });
}

TEST(AllocationFree, EdmondsKarpCore) {
  const Graph& g = test_graph();
  GraphScratch scratch;
  MaxFlowResult result;
  std::vector<Amount> cap(g.num_edges());
  Rng rng(9);
  for (auto& c : cap) c = rng.uniform(0.0, 40.0);
  struct CapFn {
    const std::vector<Amount>* cap;
    Amount operator()(EdgeId e) const { return (*cap)[e]; }
  };
  expect_steady_state_alloc_free("edmonds_karp_core", [&] {
    edmonds_karp_core(g, 9, 320, CapFn{&cap}, -1, 20, scratch, result);
  });
}

}  // namespace
}  // namespace flash
