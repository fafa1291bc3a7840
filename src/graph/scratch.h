// Reusable, allocation-free workspaces for the graph-algorithm core.
//
// Every graph query (dijkstra, bfs, yen, edge-disjoint, maxflow, elephant
// probing) needs O(V)/O(E) working state. Allocating it per call dominates
// the per-transaction cost of a simulation and serializes multi-core sweeps
// on the allocator. A GraphScratch owns that state once and is reused across
// queries: per-query "clearing" is an O(1) epoch bump (StampedArray), heap
// and queue storage keeps its capacity, and paths are recycled through a
// pool. After a short warm-up a scratch performs zero heap allocations no
// matter how many queries run through it.
//
// Ownership and threading contract:
//  - A scratch is NOT thread-safe and has hard thread affinity: it may only
//    be used by one thread at a time. Every caller of a graph algorithm
//    passes a scratch it owns: each router (FlashRouter, ShortestPathRouter,
//    SpiderRouter) embeds one, the same way each owns its own Rng and
//    MiceRoutingTable, and one-off queries use a local.
//  - A scratch is graph-agnostic: arrays grow to the largest graph seen and
//    are epoch-reset per query, so one scratch can serve queries on
//    different graphs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace flash {

/// Dense index -> T map whose clear() is O(1): each slot carries the epoch
/// it was last written in, and only slots stamped with the current epoch
/// count as present. reset() bumps the epoch (O(n) work happens only when
/// the backing arrays first grow to a new size, or once every 2^32 resets
/// when the epoch counter wraps and all stamps must be re-zeroed).
template <typename T>
class StampedArray {
 public:
  /// Prepares the array for a new query over `n` indices, forgetting all
  /// previous entries in O(1).
  void reset(std::size_t n) {
    if (vals_.size() < n) {
      vals_.resize(n);
      stamp_.resize(n, 0);
    }
    if (++epoch_ == 0) {  // wrapped: stamps from 2^32 resets ago are stale
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool contains(std::size_t i) const { return stamp_[i] == epoch_; }

  void set(std::size_t i, const T& v) {
    stamp_[i] = epoch_;
    vals_[i] = v;
  }

  /// Value at i. Precondition: contains(i).
  const T& get(std::size_t i) const { return vals_[i]; }

  /// Value at i, or `fallback` when the slot was not written this epoch.
  T get_or(std::size_t i, const T& fallback) const {
    return contains(i) ? vals_[i] : fallback;
  }

  /// Mutable slot, value-initialized on first touch this epoch.
  T& slot(std::size_t i) {
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      vals_[i] = T{};
    }
    return vals_[i];
  }

  /// Raw view for the hottest search loops: pointers and the epoch in
  /// locals, so stores through the view cannot force the compiler to
  /// reload the epoch or array bases each iteration (a plain uint32 store
  /// may alias the uint32 epoch_ member under type-based alias analysis).
  /// Valid until the next reset(); reads and writes stay coherent with the
  /// owning array's own accessors.
  struct View {
    std::uint32_t* stamp;
    T* vals;
    std::uint32_t epoch;

    bool contains(std::size_t i) const { return stamp[i] == epoch; }
    void set(std::size_t i, const T& v) const {
      stamp[i] = epoch;
      vals[i] = v;
    }
    const T& get(std::size_t i) const { return vals[i]; }
    T get_or(std::size_t i, const T& fallback) const {
      return contains(i) ? vals[i] : fallback;
    }
  };
  View view() { return {stamp_.data(), vals_.data(), epoch_}; }

 private:
  std::vector<T> vals_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Recycling pool of Path buffers. alloc() hands out cleared paths whose
/// heap capacity survives reset(), so steady-state path construction is
/// allocation-free. Backed by a deque: references returned by alloc()/at()
/// stay valid across later alloc() calls (Yen holds several at once).
class PathPool {
 public:
  void reset() { used_ = 0; }

  /// A cleared path with retained capacity. Stable reference.
  Path& alloc() {
    if (used_ == paths_.size()) paths_.emplace_back();
    Path& p = paths_[used_++];
    p.clear();
    return p;
  }

  /// Returns the most recently alloc()ed path to the pool.
  void pop() { --used_; }

  Path& at(std::size_t i) { return paths_[i]; }
  const Path& at(std::size_t i) const { return paths_[i]; }
  std::size_t size() const { return used_; }

 private:
  std::deque<Path> paths_;
  std::size_t used_ = 0;
};

/// Entry of the dijkstra frontier heap (min-heap on dist via std::greater,
/// exactly mirroring the std::priority_queue the pre-scratch implementation
/// used, so relaxation order — and thus tie-breaking — is bit-identical).
struct DistEntry {
  double dist;
  NodeId node;
  bool operator>(const DistEntry& o) const { return dist > o.dist; }
};

/// One reusable workspace for all graph algorithms. Plain struct: the
/// algorithm cores in graph/*.h are the only intended users of the fields;
/// callers just construct one and thread it through. See the file comment
/// for the ownership/threading contract.
struct GraphScratch {
  // --- Per-query node state (epoch-reset by each search) ---------------
  StampedArray<double> dist;        // dijkstra tentative distances
  StampedArray<std::uint32_t> hops; // bfs hop counts
  StampedArray<EdgeId> parent;      // discovering edge per node ("seen")

  // --- Ban marks (independent epochs: set once, survive the inner
  //     searches of a composite algorithm like Yen's spur loop) ----------
  StampedArray<char> node_ban;
  StampedArray<char> edge_ban;

  // --- Search containers (capacity retained across queries) ------------
  std::vector<NodeId> bfs_queue;    // FIFO ring, head index is query-local
  std::vector<DistEntry> heap;      // dijkstra frontier (push/pop_heap)

  // --- Path construction ------------------------------------------------
  PathPool pool;                    // recycled path buffers
  std::vector<NodeId> node_buf;     // path -> node sequence scratch

  // --- Yen workspace ----------------------------------------------------
  std::vector<std::uint32_t> yen_result;    // pool indices of emitted paths
  std::vector<std::uint64_t> yen_hash;      // path hash, parallel to pool
  std::vector<std::uint32_t> yen_dev;       // deviation index, parallel
  // Open-addressing known-path set: slot = pool idx + 1, live only when the
  // parallel epoch stamp matches yen_epoch (so per-query reset is O(1)).
  std::vector<std::uint32_t> yen_known;
  std::vector<std::uint32_t> yen_known_epoch;
  std::uint32_t yen_epoch = 0;
  struct YenCandidate {
    double cost;
    std::uint32_t idx;  // pool index
  };
  std::vector<YenCandidate> yen_heap;       // candidate min-heap storage
  std::vector<double> yen_bound_buf;        // spur-cutoff selection scratch

  // --- Flow / probing workspace ----------------------------------------
  StampedArray<Amount> edge_amount; // sparse residuals (elephant probing)
  std::vector<Amount> amount_buf;   // dense per-edge amounts (maxflow, net)
  std::vector<Amount> balance_buf;  // probe_path results (mice/elephant)
  std::vector<std::pair<EdgeId, Amount>> flow_buf;  // netted flow (EdgeAmount)
  std::vector<std::size_t> index_buf;  // path-order shuffling (mice)
  std::vector<Path> path_list_buf;  // yen output staging (table fill)
};

/// Copies `p` into slot `i` of `out`, reusing the existing element's heap
/// buffer when possible. Callers emit slots 0..n-1 and then shrink with
/// `out.resize(n)`, so a vector reused across queries stops allocating once
/// its capacity (outer and per-element) has warmed up.
inline void assign_path_slot(std::vector<Path>& out, std::size_t i,
                             const Path& p) {
  if (i < out.size()) {
    out[i].assign(p.begin(), p.end());
  } else {
    out.push_back(p);
  }
}

}  // namespace flash
