#include "graph/topology.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graph/bfs.h"

namespace flash {

namespace {

/// Tracks existing undirected pairs to avoid duplicate channels. Hashed on
/// the packed pair_key so membership stays O(1) at 100k-node scale (only
/// insert/contains are used — iteration order never matters here).
class PairSet {
 public:
  void reserve(std::size_t channels) { pairs_.reserve(channels); }
  bool insert(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return pairs_.insert(pair_key(u, v)).second;
  }
  bool contains(NodeId u, NodeId v) const {
    if (u > v) std::swap(u, v);
    return pairs_.count(pair_key(u, v)) != 0;
  }

 private:
  std::unordered_set<std::uint64_t> pairs_;
};

}  // namespace

Graph watts_strogatz(std::size_t n, std::size_t k_neighbors, double beta,
                     Rng& rng) {
  if (n <= k_neighbors || k_neighbors < 2) {
    throw std::invalid_argument("watts_strogatz: need n > k_neighbors >= 2");
  }
  const std::size_t half = k_neighbors / 2;
  Graph g(n);
  PairSet pairs;

  // Ring lattice: each node connects to its `half` clockwise neighbours.
  struct Lattice {
    NodeId u, v;
  };
  std::vector<Lattice> lattice;
  lattice.reserve(n * half);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 1; j <= half; ++j) {
      lattice.push_back({static_cast<NodeId>(i),
                         static_cast<NodeId>((i + j) % n)});
    }
  }
  // Rewire the far endpoint with probability beta.
  for (auto& e : lattice) {
    NodeId u = e.u;
    NodeId v = e.v;
    if (rng.chance(beta)) {
      // Pick a fresh endpoint; fall back to the lattice neighbour when the
      // node is already saturated.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto w = static_cast<NodeId>(rng.next_below(n));
        if (w != u && !pairs.contains(u, w)) {
          v = w;
          break;
        }
      }
    }
    if (u != v && pairs.insert(u, v)) g.add_channel(u, v);
  }
  g.finalize();
  return g;
}

Graph barabasi_albert(std::size_t n, std::size_t m_attach, Rng& rng) {
  if (m_attach < 1 || n <= m_attach) {
    throw std::invalid_argument("barabasi_albert: need n > m_attach >= 1");
  }
  Graph g(n);
  PairSet pairs;
  // Repeated-endpoint list implements preferential attachment: nodes appear
  // once per incident channel, so sampling the list is degree-proportional.
  std::vector<NodeId> endpoints;

  // Seed: a clique over the first m_attach + 1 nodes keeps early sampling
  // well-defined and the graph connected.
  const std::size_t seed = m_attach + 1;
  for (std::size_t i = 0; i < seed; ++i) {
    for (std::size_t j = i + 1; j < seed; ++j) {
      const auto u = static_cast<NodeId>(i);
      const auto v = static_cast<NodeId>(j);
      pairs.insert(u, v);
      g.add_channel(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (std::size_t i = seed; i < n; ++i) {
    const auto u = static_cast<NodeId>(i);
    std::size_t added = 0;
    std::size_t attempts = 0;
    while (added < m_attach && attempts < 64 * m_attach) {
      ++attempts;
      const NodeId v = endpoints[rng.next_below(endpoints.size())];
      if (v == u || pairs.contains(u, v)) continue;
      pairs.insert(u, v);
      g.add_channel(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
      ++added;
    }
  }
  g.finalize();
  return g;
}

Graph erdos_renyi(std::size_t n, std::size_t channels, Rng& rng) {
  if (n < 2) throw std::invalid_argument("erdos_renyi: need n >= 2");
  const std::size_t max_channels = n * (n - 1) / 2;
  if (channels > max_channels) {
    throw std::invalid_argument("erdos_renyi: too many channels requested");
  }
  Graph g(n);
  PairSet pairs;
  std::size_t added = 0;
  while (added < channels) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || !pairs.insert(u, v)) continue;
    g.add_channel(u, v);
    ++added;
  }
  g.finalize();
  return g;
}

Graph scale_free(std::size_t n, std::size_t channels, Rng& rng) {
  if (n < 2 || channels + 1 < n) {
    throw std::invalid_argument("scale_free: need channels >= n - 1");
  }
  // Start from a BA graph whose attach count approximates the target mean
  // degree, then add preferential extras (or stop early) to hit the exact
  // channel count.
  std::size_t m_attach = std::max<std::size_t>(1, channels / n);
  m_attach = std::min(m_attach, n - 1);
  Graph ba = barabasi_albert(n, m_attach, rng);

  // Rebuild, tracking pairs, so we can top up to the exact count.
  Graph g(n);
  g.reserve_channels(channels);
  PairSet pairs;
  pairs.reserve(channels);
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * channels);
  std::size_t added = 0;
  for (std::size_t c = 0; c < ba.num_channels() && added < channels; ++c) {
    const EdgeId e = ba.channel_forward_edge(c);
    const NodeId u = ba.from(e);
    const NodeId v = ba.to(e);
    if (!pairs.insert(u, v)) continue;
    g.add_channel(u, v);
    endpoints.push_back(u);
    endpoints.push_back(v);
    ++added;
  }
  std::size_t attempts = 0;
  const std::size_t max_attempts = 256 * channels;
  while (added < channels && attempts < max_attempts) {
    ++attempts;
    // One endpoint preferential, the other uniform: keeps the degree
    // distribution heavy-tailed, like the hub-dominated PCN crawls.
    const NodeId u = endpoints[rng.next_below(endpoints.size())];
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || !pairs.insert(u, v)) continue;
    g.add_channel(u, v);
    endpoints.push_back(u);
    endpoints.push_back(v);
    ++added;
  }
  if (added < channels) {
    throw std::runtime_error("scale_free: could not place requested channels");
  }
  g.finalize();
  return g;
}

Graph ripple_like(Rng& rng) { return scale_free(1870, 8708, rng); }

Graph lightning_like(Rng& rng) { return scale_free(2511, 36016, rng); }

Graph scale_free_lightning(std::size_t nodes, Rng& rng) {
  if (nodes < 2) {
    throw std::invalid_argument("scale_free_lightning: need nodes >= 2");
  }
  // Preserve the crawled snapshot's density (36,016 channels over 2,511
  // nodes ≈ 14.34 channels/node) at the requested scale, so 10k-100k-node
  // synthetics stress the same mean degree the paper's Lightning runs do.
  const auto channels = std::max<std::size_t>(
      nodes - 1, static_cast<std::size_t>(nodes * 36016ull / 2511));
  return scale_free(nodes, channels, rng);
}

Graph ring_graph(std::size_t n) {
  assert(n >= 3);
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_channel(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  g.finalize();
  return g;
}

Graph line_graph(std::size_t n) {
  assert(n >= 2);
  Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    g.add_channel(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  g.finalize();
  return g;
}

Graph star_graph(std::size_t leaves) {
  assert(leaves >= 1);
  Graph g(leaves + 1);
  for (std::size_t i = 1; i <= leaves; ++i) {
    g.add_channel(0, static_cast<NodeId>(i));
  }
  g.finalize();
  return g;
}

Graph complete_graph(std::size_t n) {
  assert(n >= 2);
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      g.add_channel(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
  }
  g.finalize();
  return g;
}

Graph prune_low_degree(const Graph& g, std::size_t min_degree,
                       std::vector<NodeId>* old_to_new) {
  // Iteratively drop nodes whose count of *distinct* live neighbours is
  // below the threshold.
  std::vector<char> alive(g.num_nodes(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (!alive[u]) continue;
      std::set<NodeId> nbrs;
      for (EdgeId e : g.out_edges(u)) {
        const NodeId v = g.to(e);
        if (alive[v]) nbrs.insert(v);
      }
      if (nbrs.size() < min_degree) {
        alive[u] = 0;
        changed = true;
      }
    }
  }
  std::vector<NodeId> mapping(g.num_nodes(), kInvalidNode);
  Graph out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (alive[u]) mapping[u] = out.add_node();
  }
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    const EdgeId e = g.channel_forward_edge(c);
    const NodeId u = g.from(e);
    const NodeId v = g.to(e);
    if (alive[u] && alive[v]) out.add_channel(mapping[u], mapping[v]);
  }
  if (old_to_new) *old_to_new = std::move(mapping);
  out.finalize();
  return out;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  GraphScratch scratch;
  bfs_core(g, 0, kInvalidNode, scratch, AdmitAll{});
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!scratch.parent.contains(v)) return false;
  }
  return true;
}

std::vector<double> approx_betweenness(const Graph& g, std::size_t samples,
                                       std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  std::vector<double> score(n, 0.0);
  if (n < 3) return score;  // no interior nodes to relay through

  // Deterministic pivot set: a partial Fisher-Yates shuffle of the node
  // ids (samples == 0 or >= n degenerates to every node, i.e. exact
  // Brandes up to the uniform scaling rank consumers ignore).
  std::vector<NodeId> pivots(n);
  for (std::size_t i = 0; i < n; ++i) pivots[i] = static_cast<NodeId>(i);
  std::size_t pivot_count = n;
  if (samples > 0 && samples < n) {
    std::uint64_t mix = seed ^ 0xbf58476d1ce4e5b9ULL;
    Rng rng(splitmix64(mix));
    for (std::size_t i = 0; i < samples; ++i) {
      const std::size_t j = i + rng.next_below(n - i);
      std::swap(pivots[i], pivots[j]);
    }
    pivot_count = samples;
  }

  // Brandes: one BFS per pivot, then dependency accumulation in reverse
  // BFS order. delta[v] = sum over successors w of
  // sigma[v]/sigma[w] * (1 + delta[w]).
  std::vector<std::uint32_t> dist(n);
  std::vector<double> sigma(n), delta(n);
  std::vector<NodeId> order;
  order.reserve(n);
  for (std::size_t pi = 0; pi < pivot_count; ++pi) {
    const NodeId s = pivots[pi];
    std::fill(dist.begin(), dist.end(), kUnreachable);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();
    dist[s] = 0;
    sigma[s] = 1.0;
    order.push_back(s);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId u = order[head];
      for (const EdgeId e : g.out_edges(u)) {
        const NodeId v = g.to(e);
        if (dist[v] == kUnreachable) {
          dist[v] = dist[u] + 1;
          order.push_back(v);
        }
        if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
      }
    }
    for (std::size_t i = order.size(); i-- > 1;) {  // skip the source
      const NodeId w = order[i];
      for (const EdgeId e : g.out_edges(w)) {
        const NodeId v = g.to(e);
        if (dist[v] + 1 == dist[w] && sigma[w] > 0) {
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (w != s) score[w] += delta[w];
    }
  }
  return score;
}

}  // namespace flash
