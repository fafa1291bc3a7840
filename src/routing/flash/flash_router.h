// Flash: the paper's routing scheme (§3).
//
// Differentiates elephant from mice payments by a size threshold. Elephants
// (few, huge, throughput-defining) get the probing modified-max-flow search
// plus the fee-minimizing LP split; mice (the vast majority) get routing
// table lookups with a trial-and-error loop that probes only on failure.
#pragma once

#include <memory>

#include "graph/graph.h"
#include "ledger/fee_policy.h"
#include "routing/flash/elephant.h"
#include "routing/flash/mice.h"
#include "routing/flash/routing_table.h"
#include "routing/router.h"
#include "util/rng.h"

namespace flash {

/// How mice payments pick among their routing-table paths.
enum class MiceSelection {
  /// The paper's design (§3.3): random order, send-then-probe.
  kTrialAndError,
  /// Extension (§6 future work): probe all paths, waterfill like Spider.
  /// Balance-aware but pays probing overhead on every payment.
  kWaterfill,
};

/// Tuning knobs for FlashRouter. Plain value type.
struct FlashConfig {
  /// Payments with amount >= threshold are elephants. The paper sets the
  /// threshold at the workload's 90th size percentile so 90 % of payments
  /// are mice (§4.1); use Workload::size_quantile(0.9).
  Amount elephant_threshold = 0;
  /// Elephant path budget k (paper default 20).
  std::size_t k_elephant_paths = 20;
  /// Mice routing-table paths per receiver m (paper default 4).
  std::size_t m_mice_paths = 4;
  /// Fee-minimization LP on/off (off = Fig. 9's "w/o optimization").
  bool optimize_fees = true;
  /// Spare Yen paths cached for dead-path replacement.
  std::size_t spare_paths = 4;
  /// Routing-table entry timeout in lookups (0 = keep forever).
  std::uint64_t table_timeout = 0;
  /// Seed for the randomized mice path order.
  std::uint64_t seed = 0x5eedf1a5;
  /// When m_mice_paths == 0, mice are routed exactly like elephants - the
  /// upper bound configuration of Fig. 11.
  bool mice_as_elephants_when_m0 = true;
  /// Mice path-selection strategy (paper default: trial-and-error).
  MiceSelection mice_selection = MiceSelection::kTrialAndError;
  /// Recompute a routing-table entry once all of its paths died (see
  /// RoutingTableConfig::recompute_on_exhaustion). Off by default to keep
  /// static-simulation results bit-identical; the scenario engine turns it
  /// on for stale-view routers living through churn.
  bool table_recompute_on_exhaustion = false;
  /// Timelock budget as a hop cap (0 = unlimited), applied to both
  /// pipelines: the mice table discards over-budget Yen paths, the
  /// elephant probe stops at the first over-budget augmenting path.
  std::size_t max_route_hops = 0;
};

/// The paper's router. NOT thread-safe: route() mutates the routing table
/// and the RNG, so concurrent simulations must each own a FlashRouter (the
/// sweep engine builds one per (cell, run) via make_router). `graph` and
/// `fees` are borrowed and must outlive the router.
class FlashRouter : public Router {
 public:
  FlashRouter(const Graph& graph, const FeeSchedule& fees, FlashConfig config);

  /// Routes one payment: elephants through probing + LP split, mice through
  /// the routing table (see is_elephant for the classification).
  RouteResult route(const Transaction& tx, NetworkState& state) override;
  std::string name() const override { return "Flash"; }
  /// Drops all cached routing-table paths (recomputed on next lookup).
  void on_topology_update() override { table_.clear(); }

  bool supports_incremental_maintenance() const override { return true; }
  /// Masks both pipelines: the mice table's Yen weights closed edges out,
  /// the elephant probe's residual BFS refuses to traverse them.
  void set_open_mask(const unsigned char* mask) override {
    open_mask_ = mask;
    table_.set_open_mask(mask);
  }
  std::size_t apply_topology_delta(std::span<const EdgeId> closed,
                                   std::span<const EdgeId> reopened,
                                   bool strict) override;
  /// Yen prefetch for the mice table: helpers compute the paths of hinted
  /// mice whose pair the table lacks, under the open mask installed at the
  /// hint (see MiceRoutingTable::start_prefetch). Refused when every
  /// payment routes as an elephant.
  bool start_prefetch(std::size_t helpers) override;
  /// Borrows the prefetcher of `lender`, a prefetching FlashRouter over
  /// the same graph with the same mice path counts (see
  /// MiceRoutingTable::borrow_prefetch).
  bool borrow_prefetch(Router& lender) override;
  void prefetch(const Transaction& tx) override;
  void stop_prefetch() override { table_.stop_prefetch(); }

  /// Mirrors make_router's FlashConfig::seed derivation (sim/experiment.cc)
  /// so reseeding equals constructing afresh with the same seed.
  void reseed(std::uint64_t seed) override {
    rng_ = Rng(seed * 0x9e3779b9ULL + 7);
  }
  /// Shares the search, probe and LP workspaces of `lender`, a FlashRouter.
  bool borrow_workspace(Router& lender) override;

  /// Pins the mice-order shuffle (the router's only route-time randomness)
  /// to the payment's logical index; same mixing as reseed so one payment
  /// on a pinned router draws exactly like the first payment after reseed.
  void begin_payment(std::uint64_t seed) override {
    rng_ = Rng(seed * 0x9e3779b9ULL + 7);
  }
  /// The mice table holds the only balance-dependent route-time state
  /// (dead-path replacement); it journals and restores itself. Requires
  /// table_timeout == 0 (the scenario engine's only configuration): the
  /// eviction clock is not journaled.
  std::uint64_t speculation_mark() override { return table_.undo_mark(); }
  void speculation_rollback(std::uint64_t mark) override {
    table_.undo_rollback(mark);
  }
  void speculation_release(std::uint64_t mark) override {
    table_.undo_release(mark);
  }

  /// Classification rule: amount >= elephant_threshold is an elephant.
  bool is_elephant(Amount amount) const noexcept {
    return amount >= config_.elephant_threshold;
  }
  /// Whether route() sends this amount down the elephant pipeline (true
  /// for every amount in the m = 0 upper-bound configuration).
  bool routes_as_elephant(Amount amount) const noexcept {
    return is_elephant(amount) ||
           (config_.m_mice_paths == 0 && config_.mice_as_elephants_when_m0);
  }

  /// The configuration the router was built with.
  const FlashConfig& config() const noexcept { return config_; }
  /// Read access to the mice routing table (e.g. for overhead metrics).
  const MiceRoutingTable& routing_table() const noexcept { return table_; }

 private:
  const Graph* graph_;
  const FeeSchedule* fees_;
  FlashConfig config_;
  const unsigned char* open_mask_ = nullptr;  // borrowed; null = all open
  MiceRoutingTable table_;
  Rng rng_;
  // Per-router workspaces so a long simulation performs no graph-algorithm
  // or fee-LP allocations after warm-up. Same thread affinity as the
  // router itself. A borrower routes in its lender's; its own stay empty.
  struct Workspace {
    GraphScratch scratch;
    ElephantProbeResult probe;
    SplitWorkspace split;
  };
  Workspace& ws() noexcept { return borrowed_ws_ ? *borrowed_ws_ : ws_; }
  Workspace ws_;
  Workspace* borrowed_ws_ = nullptr;
};

}  // namespace flash
