#include "trace/workload.h"

#include <algorithm>
#include <stdexcept>

#include "graph/topology.h"
#include "trace/size_dist.h"
#include "trace/workload_stream.h"
#include "util/stats.h"

namespace flash {

Workload::Workload(Graph graph, std::vector<Amount> initial_balances,
                   FeeSchedule fees, std::vector<Transaction> transactions,
                   std::string name)
    : graph_(std::move(graph)),
      initial_balances_(std::move(initial_balances)),
      fees_(std::move(fees)),
      transactions_(std::move(transactions)),
      name_(std::move(name)) {
  if (initial_balances_.size() != graph_.num_edges()) {
    throw std::invalid_argument("workload: balance/edge count mismatch");
  }
}

NetworkState Workload::make_state(double capacity_scale) const {
  // One bulk assignment: per-edge set_balance would recompute every
  // channel deposit per edge, O(edges x channels).
  std::vector<Amount> scaled(initial_balances_.size());
  for (std::size_t e = 0; e < scaled.size(); ++e) {
    scaled[e] = initial_balances_[e] * capacity_scale;
  }
  NetworkState state(graph_);
  state.assign_balances(scaled);
  return state;
}

Amount Workload::size_quantile(double q) const {
  if (transactions_.empty()) return 0;
  for (const auto& [cached_q, value] : quantile_cache_) {
    if (cached_q == q) return value;
  }
  std::vector<double> sizes;
  sizes.reserve(transactions_.size());
  for (const auto& tx : transactions_) sizes.push_back(tx.amount);
  const Amount value = percentile(std::move(sizes), q * 100.0);
  quantile_cache_.emplace_back(q, value);
  return value;
}

std::span<const Transaction> Workload::head(std::size_t n) const noexcept {
  return {transactions_.data(), std::min(n, transactions_.size())};
}

Workload Workload::truncated(std::size_t n) const {
  const auto h = head(n);
  return Workload(graph_, initial_balances_, fees_,
                  std::vector<Transaction>(h.begin(), h.end()), name_);
}

namespace {

using PairMode = StreamPairMode;

/// Materializes `count` transactions by draining a GeneratedWorkloadStream
/// (the single source of truth for the generation algorithm; streaming
/// consumers use it directly). The caller's rng is advanced exactly as if
/// the draws had happened in place, so factory draw sequences are
/// unchanged.
std::vector<Transaction> generate_transactions(
    const Graph& g, const SizeDistribution& sizes, std::size_t count,
    bool ensure_connectivity, PairMode mode, Rng& rng) {
  GeneratedStreamConfig config;
  config.count = count;
  config.mode = mode;
  config.sizes = sizes;
  config.ensure_connectivity = ensure_connectivity;
  GeneratedWorkloadStream stream(g, rng, std::move(config));
  std::vector<Transaction> txs;
  txs.reserve(count);
  Transaction tx;
  while (stream.next(tx)) txs.push_back(tx);
  rng = stream.rng();
  return txs;
}

std::vector<Amount> balances_of(const NetworkState& state, const Graph& g) {
  std::vector<Amount> balances(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) balances[e] = state.balance(e);
  return balances;
}

}  // namespace

Workload make_ripple_workload(const WorkloadConfig& config) {
  Rng rng(config.seed);
  Graph g = ripple_like(rng);
  NetworkState init(g);
  // Median channel capacity in Ripple is ~250 USD (§4.2), funds split
  // evenly across directions (§4.1).
  init.assign_lognormal_split(250.0, 1.0, rng);
  FeeSchedule fees = FeeSchedule::paper_default(g, rng);
  auto txs = generate_transactions(
      g, SizeDistribution::ripple(), config.num_transactions,
      config.ensure_connectivity, PairMode::kRecurrentByDegree, rng);
  return Workload(g, balances_of(init, g), std::move(fees), std::move(txs),
                  "ripple");
}

Workload make_lightning_workload(const WorkloadConfig& config) {
  Rng rng(config.seed);
  Graph g = lightning_like(rng);
  NetworkState init(g);
  // Median channel capacity in Lightning is ~500,000 satoshi (§4.2). The
  // crawled fund distribution is very skewed and concentrated on hub
  // channels (the paper uses it directly), modelled by degree weighting.
  init.assign_lognormal_degree_weighted(500000.0, 1.6, rng);
  FeeSchedule fees = FeeSchedule::paper_default(g, rng);
  auto txs = generate_transactions(
      g, SizeDistribution::bitcoin(), config.num_transactions,
      config.ensure_connectivity, PairMode::kRecurrentByDegree, rng);
  return Workload(g, balances_of(init, g), std::move(fees), std::move(txs),
                  "lightning");
}

Workload make_testbed_workload(std::size_t nodes, Amount cap_lo,
                               Amount cap_hi, const WorkloadConfig& config) {
  Rng rng(config.seed);
  Graph g = watts_strogatz(nodes, 8, 0.3, rng);
  NetworkState init(g);
  // Channels are funded mostly by the opening party, so the per-direction
  // split is skewed; this is what makes static single-path routing fragile
  // in the paper's testbed (Fig. 12b: SP trails Flash by ~36 %).
  init.assign_uniform_skewed(cap_lo, cap_hi, 0.35, 0.65, rng);
  FeeSchedule fees = FeeSchedule::paper_default(g, rng);

  // The testbed draws sender-receiver pairs uniformly (§5.2), with volumes
  // following the Ripple trace and at least one path guaranteed. The
  // uniform mode draws (sender, receiver, amount) in exactly the order the
  // old hand-rolled loop did, pinned by trace_test's testbed oracle.
  auto txs = generate_transactions(
      g, SizeDistribution::ripple(), config.num_transactions,
      config.ensure_connectivity, PairMode::kUniform, rng);
  return Workload(g, balances_of(init, g), std::move(fees), std::move(txs),
                  "testbed-" + std::to_string(nodes));
}

Workload make_toy_workload(std::size_t nodes, std::size_t num_transactions,
                           std::uint64_t seed) {
  Rng rng(seed);
  Graph g = watts_strogatz(std::max<std::size_t>(nodes, 8), 4, 0.2, rng);
  NetworkState init(g);
  init.assign_uniform_split(50.0, 150.0, rng);
  FeeSchedule fees = FeeSchedule::paper_default(g, rng);
  auto txs = generate_transactions(g, SizeDistribution::ripple(),
                                   num_transactions, true,
                                   PairMode::kRecurrentByDegree, rng);
  return Workload(g, balances_of(init, g), std::move(fees), std::move(txs),
                  "toy");
}

Workload make_snapshot_workload(const LightningSnapshot& snapshot,
                                std::string name) {
  Graph g = snapshot.to_graph();
  std::vector<Amount> balances(g.num_edges(), 0);
  FeeSchedule fees(g);
  for (std::size_t c = 0; c < snapshot.channels.size(); ++c) {
    const SnapshotChannel& ch = snapshot.channels[c];
    const EdgeId fwd = g.channel_forward_edge(c);
    const EdgeId rev = g.reverse(fwd);
    balances[fwd] = ch.balance_uv;
    balances[rev] = ch.balance_vu;
    fees.set_policy(fwd, FeePolicy{ch.base_uv, ch.rate_uv});
    fees.set_policy(rev, FeePolicy{ch.base_vu, ch.rate_vu});
  }
  return Workload(std::move(g), std::move(balances), std::move(fees), {},
                  std::move(name));
}

}  // namespace flash
