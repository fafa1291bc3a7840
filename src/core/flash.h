// Umbrella header: the public API of the Flash offchain-routing library.
//
// Typical usage (see examples/quickstart.cc):
//
//   #include "core/flash.h"
//
//   flash::Rng rng(42);
//   flash::Graph g = flash::watts_strogatz(50, 8, 0.3, rng);
//   flash::NetworkState state(g);
//   state.assign_uniform_split(1000, 1500, rng);
//   flash::FeeSchedule fees = flash::FeeSchedule::paper_default(g, rng);
//
//   flash::FlashConfig config;
//   config.elephant_threshold = 500;
//   flash::FlashRouter router(g, fees, config);
//
//   flash::Transaction tx{/*sender=*/0, /*receiver=*/7, /*amount=*/123.0};
//   flash::RouteResult r = router.route(tx, state);
//
// Higher-level experiment plumbing lives in sim/ (run_simulation,
// run_series) and testbed/ (message-level emulation).
#pragma once

#include "core/version.h"            // IWYU pragma: export
#include "gossip/gossip.h"           // IWYU pragma: export
#include "gossip/messages.h"         // IWYU pragma: export
#include "gossip/node_view.h"        // IWYU pragma: export
#include "graph/bfs.h"               // IWYU pragma: export
#include "graph/dijkstra.h"          // IWYU pragma: export
#include "graph/edge_disjoint.h"     // IWYU pragma: export
#include "graph/graph.h"             // IWYU pragma: export
#include "graph/graph_io.h"          // IWYU pragma: export
#include "graph/scratch.h"           // IWYU pragma: export
#include "graph/topology.h"          // IWYU pragma: export
#include "graph/types.h"             // IWYU pragma: export
#include "graph/yen.h"               // IWYU pragma: export
#include "ledger/fee_policy.h"       // IWYU pragma: export
#include "ledger/htlc.h"             // IWYU pragma: export
#include "ledger/network_state.h"    // IWYU pragma: export
#include "lp/fee_min.h"              // IWYU pragma: export
#include "lp/simplex.h"              // IWYU pragma: export
#include "routing/flash/flash_router.h"  // IWYU pragma: export
#include "routing/router.h"          // IWYU pragma: export
#include "routing/shortest_path.h"   // IWYU pragma: export
#include "routing/speedymurmurs.h"   // IWYU pragma: export
#include "routing/spider.h"          // IWYU pragma: export
#include "sim/experiment.h"          // IWYU pragma: export
#include "sim/simulator.h"           // IWYU pragma: export
#include "trace/size_dist.h"         // IWYU pragma: export
#include "trace/trace_io.h"          // IWYU pragma: export
#include "trace/transaction.h"       // IWYU pragma: export
#include "trace/workload.h"          // IWYU pragma: export
#include "util/rng.h"                // IWYU pragma: export
#include "util/stats.h"              // IWYU pragma: export
