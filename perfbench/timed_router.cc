#include "timed_router.h"

#include <chrono>
#include <optional>

namespace perfbench {

using namespace flash;

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

RoutingTableConfig table_config_of(const FlashConfig& c) {
  return RoutingTableConfig{c.m_mice_paths, c.spare_paths, c.table_timeout,
                            c.table_recompute_on_exhaustion,
                            c.max_route_hops};
}

}  // namespace

TimedFlashRouter::TimedFlashRouter(FlashRouter& inner, const Graph& graph,
                                   const FeeSchedule& fees, LayerTrace& trace)
    : inner_(inner),
      graph_(graph),
      fees_(fees),
      trace_(trace),
      shadow_table_(graph, table_config_of(inner.config())) {}

RouteResult TimedFlashRouter::route(const Transaction& tx,
                                    NetworkState& state) {
  const FlashConfig& cfg = inner_.config();
  const bool elephant = inner_.is_elephant(tx.amount) ||
                        (cfg.m_mice_paths == 0 &&
                         cfg.mice_as_elephants_when_m0);
  const auto copy_start = Clock::now();
  std::optional<NetworkState> before;
  if (elephant) before.emplace(state);
  trace_.side_us += micros_since(copy_start);
  const std::uint64_t yen_before = inner_.routing_table().computations();

  const auto start = Clock::now();
  RouteResult r = inner_.route(tx, state);
  const auto end = Clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(end - start).count();

  if (elephant) {
    trace_.elephant_us.push_back(us);
    trace_elephant(tx, *before, r);
  } else if (inner_.routing_table().computations() == yen_before) {
    trace_.mice_hit_us.push_back(us);
  } else {
    trace_.mice_miss_us.push_back(us);
    bool computed = false;
    const auto yen_start = Clock::now();
    shadow_table_.lookup(tx.sender, tx.receiver, scratch_, &computed);
    trace_.yen_us.push_back(micros_since(yen_start));
    if (!computed) ++trace_.mismatches;
  }
  before.reset();
  trace_.side_us += micros_since(end);
  return r;
}

void TimedFlashRouter::trace_elephant(const Transaction& tx,
                                      NetworkState& before,
                                      const RouteResult& real) {
  // route_elephant returns before probing on these; so does the shadow.
  if (tx.amount <= 0 || tx.sender == tx.receiver) return;
  const FlashConfig& cfg = inner_.config();

  const auto probe_start = Clock::now();
  elephant_find_paths_into(graph_, tx.sender, tx.receiver, tx.amount,
                           cfg.k_elephant_paths, before, scratch_, probe_,
                           nullptr, cfg.max_route_hops);
  trace_.probe_us.push_back(micros_since(probe_start));
  trace_.paths_found += probe_.paths.size();
  if (probe_.probes != real.probes || (!probe_.feasible && real.success)) {
    ++trace_.mismatches;
  }
  if (!probe_.feasible) return;

  const auto split_start = Clock::now();
  if (cfg.optimize_fees) {
    optimize_fee_split_core(graph_, probe_.paths, tx.amount,
                            probe_.capacities, fees_, split_ws_, split_);
    if (!split_.feasible) {
      ++trace_.lp_fallbacks;
      sequential_split_core(graph_, probe_.paths, tx.amount,
                            probe_.capacities, fees_, split_ws_, split_);
    }
  } else {
    sequential_split_core(graph_, probe_.paths, tx.amount, probe_.capacities,
                          fees_, split_ws_, split_);
  }
  trace_.split_us.push_back(micros_since(split_start));
  if (real.success && split_.total_fee != real.fee) ++trace_.mismatches;
}

}  // namespace perfbench
