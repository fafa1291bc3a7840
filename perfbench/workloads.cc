#include "workloads.h"

#include <stdexcept>
#include <vector>

#include "graph/topology.h"
#include "ledger/fee_policy.h"
#include "util/rng.h"

namespace perfbench {

using namespace flash;

namespace {

/// The payment network is the benchmark's fixed data set, like the Ripple
/// snapshot of the paper: the Ripple-like network drawn from this seed
/// (1,870 nodes, 8,708 channels). The workload seed draws the payments.
constexpr std::uint64_t kNetworkSeed = 1;

/// Capacity multiplier on the Ripple-like balances (Fig. 6's x-axis).
/// Calibrated so success lands in the 0.6-0.9 band on static-recurrent and
/// replay.
constexpr double kFlashCapacityScale = 10;
/// Retries recover most churn failures, so churn needs shallower channels
/// to stay inside the band.
constexpr double kChurnCapacityScale = 7;
/// The HTLC workload locks funds for whole round trips, so it needs deeper
/// channels for the same success band.
constexpr double kHtlcCapacityScale = 100;

/// Mice/elephant split of a streamed workload: the 90th percentile of
/// SizeDistribution::ripple() (solved from its lognormal body and Pareto
/// tail), which is where a materialized Ripple trace puts it. A stream has
/// no trace to take the quantile from.
constexpr Amount kRippleClassThreshold = 1750;

WorkloadSpec static_recurrent() {
  WorkloadSpec s;
  s.name = "static-recurrent";
  s.scheme = Scheme::kFlash;
  s.payments = 12000;
  s.sim.capacity_scale = kFlashCapacityScale;
  return s;
}

WorkloadSpec churn_gossip() {
  WorkloadSpec s = static_recurrent();
  s.name = "churn-gossip";
  s.payments = 3000;
  s.sim.capacity_scale = kChurnCapacityScale;
  s.scenario.churn.close_rate = 0.02;
  s.scenario.churn.mean_downtime = 60;
  s.scenario.gossip.hop_delay = 3;
  s.scenario.retry.max_retries = 1;
  return s;
}

WorkloadSpec htlc_fault_sp() {
  WorkloadSpec s;
  s.name = "htlc-fault-sp";
  s.scheme = Scheme::kShortestPath;
  s.payments = 2500000;
  s.streamed = true;
  s.sim.capacity_scale = kHtlcCapacityScale;
  s.scenario.htlc.hop_latency = 10;
  s.scenario.htlc.timelock_delta = 40;
  s.scenario.retry.max_retries = 1;
  s.scenario.fault.hub_count = 8;
  s.scenario.fault.congestion_factor = 2;
  return s;
}

/// Sim-time runs one unit per arrival, so fault windows are fractions of
/// the stream: a hub outage over [30%, 40%) and a 2x arrival ramp over
/// [60%, 70%).
void place_fault_windows(WorkloadSpec& s) {
  const double n = static_cast<double>(s.payments);
  FaultPlan& f = s.scenario.fault;
  f.hub_outage_start = 0.30 * n;
  f.hub_outage_duration = 0.10 * n;
  f.congestion_start = 0.60 * n;
  f.congestion_duration = 0.10 * n;
}

WorkloadSpec replay() {
  WorkloadSpec s = static_recurrent();
  s.name = "replay";
  s.scenario.concurrency.execution = ScenarioExecution::kReplay;
  // One worker beside the coordinator. With two, run-to-run wall time on
  // one seed varied by +-12 % (p99 latency +-16 %) on a 4-vCPU Xeon VM,
  // against +-2 % with one: more than any admissible regression bound can
  // absorb.
  s.scenario.concurrency.workers = 1;
  return s;
}

}  // namespace

WorkloadSpec find_workload(const std::string& name, std::size_t payments) {
  for (WorkloadSpec s :
       {static_recurrent(), churn_gossip(), htlc_fault_sp(), replay()}) {
    if (s.name != name) continue;
    if (payments != 0) s.payments = payments;
    if (s.scenario.fault.active()) place_fault_windows(s);
    return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

WorkloadSpec sequential_oracle(WorkloadSpec spec) {
  spec.scenario.concurrency = ConcurrencyConfig{};
  spec.scenario.payment_indexed_rng = true;
  return spec;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  // The network, drawn exactly as make_ripple_workload draws it.
  Rng net_rng(kNetworkSeed);
  Graph g = ripple_like(net_rng);
  NetworkState init(g);
  init.assign_lognormal_split(250.0, 1.0, net_rng);
  FeeSchedule fees = FeeSchedule::paper_default(g, net_rng);
  std::vector<Amount> balances(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) balances[e] = init.balance(e);

  GeneratedStreamConfig sc;
  sc.count = spec.payments;
  std::uint64_t mix = seed;
  const std::uint64_t trace_seed = splitmix64(mix);
  Inputs in;
  std::vector<Transaction> txs;
  if (!spec.streamed) {
    GeneratedWorkloadStream stream(g, trace_seed, sc);
    txs.reserve(spec.payments);
    Transaction tx;
    while (stream.next(tx)) txs.push_back(tx);
  }
  in.workload = std::make_unique<Workload>(std::move(g), std::move(balances),
                                           std::move(fees), std::move(txs),
                                           "ripple");
  if (spec.streamed) {
    in.stream = std::make_unique<GeneratedWorkloadStream>(
        in.workload->graph(), trace_seed, sc);
  }
  return in;
}

std::unique_ptr<ScenarioEngine> make_engine(const WorkloadSpec& spec,
                                            Inputs& inputs,
                                            std::uint64_t seed) {
  if (!inputs.stream) {
    return std::make_unique<ScenarioEngine>(*inputs.workload, spec.scheme,
                                            spec.opts, spec.sim,
                                            spec.scenario, seed);
  }
  FlashOptions opts = spec.opts;
  SimConfig sim = spec.sim;
  opts.elephant_threshold = kRippleClassThreshold;
  sim.class_threshold = kRippleClassThreshold;
  return std::make_unique<ScenarioEngine>(*inputs.workload, *inputs.stream,
                                          spec.scheme, opts, sim,
                                          spec.scenario, seed);
}

}  // namespace perfbench
