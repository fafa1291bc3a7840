// Directed multigraph representing a payment-channel network topology.
//
// A payment channel between u and v is bidirectional (funds can flow either
// way, with independent balances per direction, see paper §3.1), so each
// channel is stored as a pair of directed edges that know each other as
// `reverse`. The graph holds topology only; balances live in
// ledger::NetworkState, mirroring the paper's premise that nodes know the
// topology but not the (dynamic) channel balances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace flash {

class Graph {
 public:
  Graph() = default;

  /// Creates a graph with n isolated nodes.
  explicit Graph(std::size_t n) : out_(n) {}

  /// Appends a new node, returning its id.
  NodeId add_node();

  /// Adds a bidirectional payment channel between u and v.
  ///
  /// Returns the id of the directed edge u->v; the paired edge v->u is
  /// always `reverse(returned_id)`. Parallel channels are allowed.
  /// Precondition: u != v and both are valid node ids.
  EdgeId add_channel(NodeId u, NodeId v);

  std::size_t num_nodes() const noexcept { return out_.size(); }

  /// Number of *directed* edges (= 2 x number of channels).
  std::size_t num_edges() const noexcept { return from_.size(); }

  std::size_t num_channels() const noexcept { return from_.size() / 2; }

  /// Builds the CSR (flat offsets + edge array) adjacency so out_edges()
  /// iterates contiguous memory instead of chasing per-node vectors.
  /// Idempotent; invalidated by add_node()/add_channel() (out_edges then
  /// falls back to the per-node vectors until finalize() runs again). The
  /// topology generators and loaders finalize before returning, so query
  /// code normally never sees the fallback. Per-node edge order is
  /// preserved exactly, so finalizing never changes any algorithm result.
  /// NOT thread-safe: finalize before sharing the graph across threads.
  void finalize();

  /// True when the CSR adjacency is current.
  bool finalized() const noexcept { return csr_valid_; }

  /// Pre-sizes the edge arrays for `channels` channels (2x directed edges),
  /// so building large (10k-100k node) topologies does not pay repeated
  /// geometric regrowth of four multi-megabyte vectors.
  void reserve_channels(std::size_t channels);

  NodeId from(EdgeId e) const { return from_[e]; }
  NodeId to(EdgeId e) const { return to_[e]; }

  /// The directed edge in the opposite direction of the same channel.
  EdgeId reverse(EdgeId e) const noexcept { return e ^ 1u; }

  /// Channel index of a directed edge (both directions map to the same).
  std::size_t channel_of(EdgeId e) const noexcept { return e >> 1; }

  /// Directed edge ids of channel c: (forward, backward).
  EdgeId channel_forward_edge(std::size_t c) const {
    return static_cast<EdgeId>(c << 1);
  }

  /// Outgoing directed edges of a node.
  std::span<const EdgeId> out_edges(NodeId u) const {
    if (csr_valid_) {
      return {csr_edges_.data() + csr_off_[u], csr_off_[u + 1] - csr_off_[u]};
    }
    return out_[u];
  }

  /// An outgoing edge together with its head node, packed so traversal
  /// loops read one sequential stream instead of chasing to(e) through a
  /// second array.
  struct Arc {
    EdgeId edge;
    NodeId head;  // == to(edge)
  };

  /// Outgoing arcs of a node, in the same order as out_edges().
  /// Precondition: finalized() — the search cores check once per query and
  /// fall back to out_edges()/to() on non-finalized graphs.
  std::span<const Arc> out_arcs(NodeId u) const {
    return {csr_arcs_.data() + csr_off_[u], csr_off_[u + 1] - csr_off_[u]};
  }

  std::size_t out_degree(NodeId u) const {
    return csr_valid_ ? csr_off_[u + 1] - csr_off_[u] : out_[u].size();
  }

  /// True if a directed path's endpoints/adjacency are consistent with this
  /// graph and it starts at s. Used for validation in tests and debug builds.
  bool is_valid_path(const Path& path, NodeId s) const;

  /// Node sequence visited by `path` starting at s (s included).
  std::vector<NodeId> path_nodes(const Path& path, NodeId s) const;

  /// Human-readable "s -> a -> b -> t" rendering of a path.
  std::string format_path(const Path& path, NodeId s) const;

 private:
  // Memory layout (audited for 100k-node / ~2.9M-directed-edge graphs):
  // from_/to_ are 4 bytes per directed edge each, csr_off_ 4 bytes per
  // node, csr_edges_ 4 and csr_arcs_ 8 per directed edge — ~58 MB total at
  // the 100k-node Lightning density, all flat arrays. out_ is the only
  // pointer-chasing structure (construction convenience).
  std::vector<NodeId> from_;
  std::vector<NodeId> to_;
  std::vector<std::vector<EdgeId>> out_;
  // CSR adjacency mirror of out_: csr_off_[u]..csr_off_[u+1] indexes the
  // outgoing edges of u inside csr_edges_ (same per-node order as out_).
  // csr_arcs_ is the same sequence with the head node packed alongside.
  std::vector<std::uint32_t> csr_off_;
  std::vector<EdgeId> csr_edges_;
  std::vector<Arc> csr_arcs_;
  bool csr_valid_ = false;
};

}  // namespace flash
