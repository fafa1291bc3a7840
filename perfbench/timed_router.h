// Per-layer attribution for the traced static pass.
//
// TimedFlashRouter decorates a FlashRouter under run_simulation: it times
// every route() call by payment class (mouse served from the routing
// table, mouse that missed the table, elephant) and repeats the layer
// calls the route made as side calls that cannot touch the real path — a
// table miss on a shadow MiceRoutingTable fed the same pair (graph: Yen),
// an elephant's probe on a copy of the ledger taken just before the route
// (graph: modified max-flow) and the fee split on that probe result (lp).
// Each side call is cross-checked against the real route; a disagreement
// is counted, and the benchmark refuses a pass with any.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/scratch.h"
#include "lp/fee_min.h"
#include "routing/flash/elephant.h"
#include "routing/flash/flash_router.h"
#include "routing/flash/routing_table.h"
#include "routing/router.h"

namespace perfbench {

/// What the decorator recorded over one pass. Times in microseconds.
struct LayerTrace {
  std::vector<double> mice_hit_us;   // route() of mice served by the table
  std::vector<double> mice_miss_us;  // route() of mice that ran Yen
  std::vector<double> elephant_us;   // route() of elephants
  std::vector<double> yen_us;        // shadow-table misses
  std::vector<double> probe_us;      // elephant probe on a ledger copy
  std::vector<double> split_us;      // fee split of that probe result
  std::uint64_t paths_found = 0;     // paths over all elephant probes
  std::uint64_t lp_fallbacks = 0;    // LP infeasible -> sequential fill
  std::uint64_t mismatches = 0;      // side calls that disagreed
  double side_us = 0;                // all side work, ledger copies included
};

class TimedFlashRouter final : public flash::Router {
 public:
  /// `inner`, `graph`, `fees` and `trace` are borrowed and must outlive
  /// the decorator; `graph`/`fees` are the ones `inner` routes over.
  TimedFlashRouter(flash::FlashRouter& inner, const flash::Graph& graph,
                   const flash::FeeSchedule& fees, LayerTrace& trace);

  flash::RouteResult route(const flash::Transaction& tx,
                           flash::NetworkState& state) override;
  std::string name() const override { return inner_.name(); }

 private:
  void trace_elephant(const flash::Transaction& tx,
                      flash::NetworkState& before,
                      const flash::RouteResult& real);

  flash::FlashRouter& inner_;
  const flash::Graph& graph_;
  const flash::FeeSchedule& fees_;
  LayerTrace& trace_;
  flash::MiceRoutingTable shadow_table_;
  flash::GraphScratch scratch_;
  flash::ElephantProbeResult probe_;
  flash::SplitWorkspace split_ws_;
  flash::SplitResult split_;
};

}  // namespace perfbench
