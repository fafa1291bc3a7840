#include "trace/workload_stream.h"

#include <algorithm>
#include <numeric>

#include "graph/bfs.h"
#include "graph/topology.h"

namespace flash {

GeneratedWorkloadStream::GeneratedWorkloadStream(const Graph& g,
                                                std::uint64_t seed,
                                                GeneratedStreamConfig config)
    : GeneratedWorkloadStream(g, Rng(seed), std::move(config)) {}

GeneratedWorkloadStream::GeneratedWorkloadStream(const Graph& g, Rng rng,
                                                GeneratedStreamConfig config)
    : graph_(&g),
      config_(std::move(config)),
      initial_rng_(rng),
      rng_(rng) {
  // On a connected topology every pair is reachable; skip per-pair BFS.
  check_pairs_ = config_.ensure_connectivity && !is_connected(*graph_);
  rebuild_pair_state();
}

void GeneratedWorkloadStream::rebuild_pair_state() {
  pairs_.reset();
  if (config_.mode == StreamPairMode::kRecurrentByDegree) {
    // Activity follows connectivity: the most active senders are the
    // highest-degree nodes (gateways), as in the real credit network.
    std::vector<NodeId> by_degree(graph_->num_nodes());
    std::iota(by_degree.begin(), by_degree.end(), NodeId{0});
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [this](NodeId a, NodeId b) {
                       return graph_->out_degree(a) > graph_->out_degree(b);
                     });
    pairs_.emplace(std::move(by_degree), config_.pair_config);
  }
}

bool GeneratedWorkloadStream::next(Transaction& out) {
  if (emitted_ >= config_.count) return false;
  for (;;) {
    NodeId s, r;
    if (pairs_) {
      std::tie(s, r) = pairs_->next(rng_);
    } else {
      s = static_cast<NodeId>(rng_.next_below(graph_->num_nodes()));
      r = static_cast<NodeId>(rng_.next_below(graph_->num_nodes()));
      if (s == r) continue;
    }
    if (check_pairs_) {
      bfs_core(*graph_, s, r, scratch_, AdmitAll{});
      if (!scratch_.parent.contains(r)) continue;
    }
    out.sender = s;
    out.receiver = r;
    out.amount = config_.sizes.sample(rng_);
    out.timestamp = static_cast<double>(emitted_);
    ++emitted_;
    return true;
  }
}

void GeneratedWorkloadStream::reset() {
  rng_ = initial_rng_;
  emitted_ = 0;
  rebuild_pair_state();
}

void GeneratedWorkloadStream::reset(std::uint64_t seed) {
  initial_rng_ = Rng(seed);
  reset();
}

}  // namespace flash
