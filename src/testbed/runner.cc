#include "testbed/runner.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graph/bfs.h"
#include "graph/edge_disjoint.h"
#include "graph/scratch.h"
#include "graph/yen.h"
#include "testbed/sessions.h"
#include "trace/workload.h"

namespace flash::testbed {

namespace {

/// Per-scheme static path provider (the sender-side path knowledge:
/// shortest paths for SP, edge-disjoint set for Spider, the mice routing
/// table for Flash). Paths depend only on the topology, so they are cached
/// across payments exactly like the prototype's local routing state.
/// Keys are pair_key(s, t) (graph/types.h, the shared checked helper).
///
/// The caches hold at most one entry per distinct (sender, receiver) pair
/// in the replayed trace, so they are naturally bounded by the trace
/// length; kMaxEntries is a backstop for adversarially long traces (a full
/// reset on overflow only costs recomputation, never correctness).
class PathProvider {
 public:
  /// Per-cache entry cap; ~1M pairs at most a few hundred MB of paths.
  static constexpr std::size_t kMaxEntries = 1u << 20;

  PathProvider(const Graph& graph) : graph_(&graph) {}

  const NodePath& shortest(NodeId s, NodeId t) {
    bound(sp_);
    auto it = sp_.find(pair_key(s, t));
    if (it == sp_.end()) {
      Path p;
      bfs_path_core(*graph_, s, t, scratch_, AdmitAll{}, p);
      NodePath nodes;
      if (!p.empty()) nodes = graph_->path_nodes(p, s);
      it = sp_.emplace(pair_key(s, t), std::move(nodes)).first;
    }
    return it->second;
  }

  const std::vector<NodePath>& disjoint(NodeId s, NodeId t, std::size_t k) {
    bound(disjoint_);
    auto it = disjoint_.find(pair_key(s, t));
    if (it == disjoint_.end()) {
      std::vector<NodePath> node_paths;
      edge_disjoint_core(*graph_, s, t, k, scratch_, paths_);
      for (const Path& p : paths_) {
        node_paths.push_back(graph_->path_nodes(p, s));
      }
      it = disjoint_.emplace(pair_key(s, t), std::move(node_paths)).first;
    }
    return it->second;
  }

  const std::vector<NodePath>& mice_table(NodeId s, NodeId t, std::size_t m) {
    bound(mice_);
    auto it = mice_.find(pair_key(s, t));
    if (it == mice_.end()) {
      std::vector<NodePath> node_paths;
      yen_core(*graph_, s, t, m, scratch_, UnitWeight{}, paths_);
      for (const Path& p : paths_) {
        node_paths.push_back(graph_->path_nodes(p, s));
      }
      it = mice_.emplace(pair_key(s, t), std::move(node_paths)).first;
    }
    return it->second;
  }

 private:
  template <typename Map>
  static void bound(Map& map) {
    if (map.size() >= kMaxEntries) map.clear();
  }

  const Graph* graph_;
  GraphScratch scratch_;     // path-search workspace
  std::vector<Path> paths_;  // edge-path staging before node conversion
  std::unordered_map<std::uint64_t, NodePath> sp_;
  std::unordered_map<std::uint64_t, std::vector<NodePath>> disjoint_;
  std::unordered_map<std::uint64_t, std::vector<NodePath>> mice_;
};

}  // namespace

std::string testbed_scheme_name(TestbedScheme s) {
  switch (s) {
    case TestbedScheme::kFlash:
      return "Flash";
    case TestbedScheme::kSpider:
      return "Spider";
    case TestbedScheme::kShortestPath:
      return "SP";
  }
  throw std::invalid_argument("unknown testbed scheme");
}

TestbedResult run_testbed(const TestbedConfig& config) {
  WorkloadConfig wc;
  wc.num_transactions = config.num_transactions;
  wc.seed = config.seed;
  const Workload workload =
      make_testbed_workload(config.nodes, config.cap_lo, config.cap_hi, wc);
  const Graph& graph = workload.graph();
  const Amount threshold = workload.size_quantile(config.mice_quantile);

  Network net(graph, config.net);
  {
    // Load the initial balances into the distributed nodes.
    const NetworkState init = workload.make_state();
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      net.set_balance(e, init.balance(e));
    }
  }
  const Amount initial_total = net.total_balance();

  PathProvider paths(graph);
  Rng rng(config.seed ^ 0xf1a5f1a5ULL);
  TestbedResult result;

  for (const Transaction& tx : workload.transactions()) {
    const bool is_mouse = tx.amount < threshold;
    const double start = net.queue().now();
    bool success = false;
    std::unique_ptr<PaymentSession> session;
    const auto done = [&success](bool ok) { success = ok; };

    switch (config.scheme) {
      case TestbedScheme::kShortestPath: {
        session = std::make_unique<SpSession>(
            net, paths.shortest(tx.sender, tx.receiver), tx.amount, done);
        break;
      }
      case TestbedScheme::kSpider: {
        session = std::make_unique<SpiderSession>(
            net, paths.disjoint(tx.sender, tx.receiver, config.spider_paths),
            tx.amount, done);
        break;
      }
      case TestbedScheme::kFlash: {
        if (is_mouse) {
          session = std::make_unique<FlashMiceSession>(
              net, paths.mice_table(tx.sender, tx.receiver,
                                    config.m_mice_paths),
              tx.amount, rng, done);
        } else {
          session = std::make_unique<FlashElephantSession>(
              net, graph, workload.fees(), tx.sender, tx.receiver, tx.amount,
              config.k_elephant_paths, done);
        }
        break;
      }
    }

    session->start();
    net.queue().run_until_idle(config.net.max_events_per_payment);
    if (!session->finished()) {
      throw std::logic_error("testbed: session did not terminate");
    }
    const double delay = net.queue().now() - start;

    ++result.transactions;
    result.volume_attempted += tx.amount;
    result.total_delay_ms += delay;
    if (is_mouse) {
      ++result.mice_transactions;
      result.mice_delay_ms += delay;
    }
    if (success) {
      ++result.successes;
      result.volume_succeeded += tx.amount;
      result.success_delay_ms += delay;
      if (is_mouse) {
        ++result.mice_successes;
        result.mice_success_delay_ms += delay;
      }
    }
  }

  result.messages = net.messages_processed();

  // Funds conservation: everything held must have been released, and the
  // sum of all balances must equal the initial deposits.
  if (net.total_pending() > 1e-6) {
    throw std::logic_error("testbed: pending funds leaked");
  }
  if (std::abs(net.total_balance() - initial_total) >
      1e-6 * std::max<Amount>(1, initial_total)) {
    throw std::logic_error("testbed: funds conservation violated");
  }
  return result;
}

}  // namespace flash::testbed
