// Bounded LRU cache of per-sender routing state for the scenario engine.
//
// Under churn every sender routes with its OWN stale-view router. A full
// rebuild gives each one a compacted view graph, mirror ledger and
// workspaces: O(network) per sender, O(network x senders) if kept forever
// (the original design). Under incremental maintenance a sender keeps
// only an open mask (one byte per view edge) and its routing table. This
// cache bounds the live set to the K most-recently-active senders: a
// payment from a cached sender reuses its state (hit), an uncached sender
// evicts the least-recently-used entry and RECYCLES its allocation (the
// rebuild overwrites every field, so buffer capacities carry over instead
// of being reallocated). With Zipf-skewed sender activity (the paper's
// workloads) a small K yields high hit rates; capacity 0 means unbounded,
// which preserves the original one-context-per-sender behavior bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/types.h"

namespace flash {

/// Base class for cache values. The cache owns values through this
/// interface so it stays independent of the (engine-private) context type.
class SenderCacheable {
 public:
  virtual ~SenderCacheable() = default;
};

class SenderRouterCache {
 public:
  /// capacity 0 = unbounded (never evicts).
  explicit SenderRouterCache(std::size_t capacity) : capacity_(capacity) {}

  /// Looks up a sender's cached state, marking it most-recently-used.
  /// Returns nullptr on miss. Counts a hit or a miss.
  SenderCacheable* find(NodeId sender);

  /// Prepares an insert after a miss: when the cache is at capacity, pops
  /// the least-recently-used entry and returns its value for recycling
  /// (counted as an eviction); otherwise returns nullptr and the caller
  /// allocates fresh. Always call insert() next.
  std::unique_ptr<SenderCacheable> evict_for_insert();

  /// Inserts a value for `sender` (must not be cached) as the
  /// most-recently-used entry.
  void insert(NodeId sender, std::unique_ptr<SenderCacheable> value);

  std::size_t size() const noexcept { return index_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  // Intrusive doubly-linked LRU list threaded through a slot vector (no
  // per-touch allocation): slots_[ head_ ] is most recent, slots_[ tail_ ]
  // least. kNil terminates both ends.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Slot {
    NodeId sender = kInvalidNode;
    std::unique_ptr<SenderCacheable> value;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void unlink(std::uint32_t i);
  void push_front(std::uint32_t i);

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<NodeId, std::uint32_t> index_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace flash
