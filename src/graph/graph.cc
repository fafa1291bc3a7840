#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace flash {

NodeId Graph::add_node() {
  csr_valid_ = false;
  out_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

EdgeId Graph::add_channel(NodeId u, NodeId v) {
  if (u == v) throw std::invalid_argument("self-channel not allowed");
  if (u >= num_nodes() || v >= num_nodes()) {
    throw std::out_of_range("add_channel: node id out of range");
  }
  csr_valid_ = false;
  const auto fwd = static_cast<EdgeId>(from_.size());
  from_.push_back(u);
  to_.push_back(v);
  from_.push_back(v);
  to_.push_back(u);
  out_[u].push_back(fwd);
  out_[v].push_back(fwd + 1);
  return fwd;
}

void Graph::reserve_channels(std::size_t channels) {
  from_.reserve(2 * channels);
  to_.reserve(2 * channels);
}

void Graph::finalize() {
  if (csr_valid_) return;
  csr_off_.assign(num_nodes() + 1, 0);
  csr_edges_.resize(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    csr_off_[u + 1] =
        csr_off_[u] + static_cast<std::uint32_t>(out_[u].size());
  }
  for (NodeId u = 0; u < num_nodes(); ++u) {
    std::copy(out_[u].begin(), out_[u].end(),
              csr_edges_.begin() + csr_off_[u]);
  }
  csr_arcs_.resize(num_edges());
  for (std::size_t i = 0; i < csr_edges_.size(); ++i) {
    csr_arcs_[i] = Arc{csr_edges_[i], to_[csr_edges_[i]]};
  }
  csr_valid_ = true;
}

bool Graph::is_valid_path(const Path& path, NodeId s) const {
  NodeId cur = s;
  if (cur >= num_nodes()) return false;
  for (EdgeId e : path) {
    if (e >= num_edges()) return false;
    if (from_[e] != cur) return false;
    cur = to_[e];
  }
  return true;
}

std::vector<NodeId> Graph::path_nodes(const Path& path, NodeId s) const {
  assert(is_valid_path(path, s));
  std::vector<NodeId> nodes;
  nodes.reserve(path.size() + 1);
  nodes.push_back(s);
  for (EdgeId e : path) nodes.push_back(to_[e]);
  return nodes;
}

std::string Graph::format_path(const Path& path, NodeId s) const {
  std::string out = std::to_string(s);
  NodeId cur = s;
  for (EdgeId e : path) {
    cur = to_[e];
    out += " -> ";
    out += std::to_string(cur);
  }
  return out;
}

}  // namespace flash
