#include "sim/simulator.h"

#include <stdexcept>
#include <string>

namespace flash {

SimResult run_simulation(const Workload& workload, Router& router,
                         const SimConfig& config) {
  return run_simulation(workload, router, config, SimObserver{});
}

SimResult run_simulation(const Workload& workload, Router& router,
                         const SimConfig& config,
                         const SimObserver& observer) {
  VectorWorkloadStream stream(workload.transactions());
  return run_simulation(workload, stream, router, config, observer);
}

SimResult run_simulation(const Workload& workload, WorkloadStream& stream,
                         Router& router, const SimConfig& config,
                         const SimObserver& observer) {
  NetworkState state = workload.make_state(config.capacity_scale);
  const Amount threshold = config.class_threshold > 0
                               ? config.class_threshold
                               : workload.size_quantile(0.9);
  SimResult result;
  std::size_t index = 0;
  Transaction tx;
  while (stream.next(tx)) {
    const RouteResult r = router.route(tx, state);
    result.add(tx, r, tx.amount < threshold);
    if (observer) observer(index, tx, r);
    ++index;
    if (config.invariant_stride && index % config.invariant_stride == 0) {
      std::size_t bad = 0;
      if (!state.check_invariants(&bad)) {
        throw std::logic_error(
            "ledger invariant violated at channel " + std::to_string(bad) +
            " after tx " + std::to_string(index) + " (router " +
            router.name() + ")");
      }
      if (state.active_holds() != 0) {
        throw std::logic_error("router " + router.name() +
                               " leaked holds after tx " +
                               std::to_string(index));
      }
    }
  }
  std::size_t bad = 0;
  if (!state.check_invariants(&bad)) {
    throw std::logic_error("ledger invariant violated at end (channel " +
                           std::to_string(bad) + ", router " + router.name() +
                           ")");
  }
  // check_invariants counts held funds as deposit, so a hold leaked after
  // the last strided check would otherwise pass.
  if (state.active_holds() != 0) {
    throw std::logic_error("router " + router.name() + " leaked holds at end");
  }
  return result;
}

}  // namespace flash
