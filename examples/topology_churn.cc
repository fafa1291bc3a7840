// Topology churn end to end, on the dynamic scenario engine (§3.1/§3.3).
//
//   $ ./topology_churn
//
// The paper's prerequisite is that nodes keep a local topology via gossip
// and refresh their routing tables when it changes. This example runs the
// same workload through three scenarios of increasing realism:
//
//   1. static        — the paper's evaluation setup: no churn, perfect
//                      topology knowledge (exactly run_simulation);
//   2. churn/instant — channels close and reopen on-chain, but every
//                      announcement reaches every node instantly, so
//                      routing tables always match the truth;
//   3. churn/delayed — the same churn schedule, but announcements flood
//                      one gossip hop per 24 time units: senders route on
//                      stale views, payments fail on phantom channels, and
//                      a single retry (after the view had a chance to
//                      refresh) recovers some of them.
//
// The delta between 2 and 3 is the price of stale topology knowledge —
// the effect fig14_churn_sweep measures across a whole grid.
#include <cstdio>

#include "sim/scenario.h"
#include "trace/workload.h"

int main() {
  using namespace flash;

  // Sparse ring topology with scarce channel deposits: the regime where
  // losing a channel actually hurts (see bench/fig14_churn_sweep.cc).
  const Workload workload = make_toy_workload(/*nodes=*/60, /*tx=*/600,
                                              /*seed=*/7);
  std::printf("workload: %zu nodes, %zu channels, %zu payments\n\n",
              workload.graph().num_nodes(), workload.graph().num_channels(),
              workload.transactions().size());

  SimConfig sim;
  sim.capacity_scale = 1.0;

  ScenarioConfig churn_instant;
  churn_instant.retry.max_retries = 1;
  churn_instant.retry.delay = 8;
  churn_instant.churn.close_rate = 0.25;   // a close every ~4 payments
  churn_instant.churn.mean_downtime = 60;  // most channels come back
  churn_instant.gossip.hop_delay = 0;      // announcements arrive instantly

  ScenarioConfig churn_delayed = churn_instant;
  churn_delayed.gossip.hop_delay = 24;  // one flooding hop per 24 time units

  struct RowSpec {
    const char* name;
    ScenarioConfig cfg;
  };
  const RowSpec rows[] = {
      {"static (paper setup)", ScenarioConfig{}},
      {"churn, instant gossip", churn_instant},
      {"churn, delayed gossip", churn_delayed},
  };

  std::printf("%-24s %8s %8s %8s %8s %10s %9s %8s\n", "scenario", "success",
              "retries", "rescued", "stale", "closes/re", "rebuilds",
              "patches");
  ScenarioResult delayed;  // kept for the detail lines below
  for (const RowSpec& row : rows) {
    const ScenarioResult r =
        run_scenario(workload, Scheme::kFlash, {}, sim, row.cfg, /*seed=*/7);
    std::printf("%-24s %7.1f%% %8zu %8zu %8zu %6zu/%-4zu %9zu %8zu\n",
                row.name, 100.0 * r.sim.success_ratio(), r.sim.retries,
                r.sim.retry_successes, r.sim.stale_view_failures,
                r.channels_closed, r.channels_reopened, r.router_rebuilds,
                r.router_patches);
    if (&row == &rows[2]) delayed = r;
  }

  std::printf("\ndelayed-gossip run: %zu gossip rounds, %llu messages; "
              "mean time-to-success %.2f (retries defer settlement)\n",
              delayed.gossip_rounds,
              static_cast<unsigned long long>(delayed.gossip_messages),
              delayed.sim.mean_time_to_success());
  std::printf("stale views charge %zu failed attempts to topology "
              "staleness; with instant gossip that count is zero.\n",
              delayed.sim.stale_view_failures);
  return 0;
}
