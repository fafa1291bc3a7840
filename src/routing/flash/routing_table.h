// Per-sender routing table for mice payments (paper §3.3).
//
// Each node keeps, per unique receiver, the top-m shortest paths computed
// with Yen's algorithm on the local topology. Recurrence (Fig. 4) makes
// this a table-lookup fast path for the vast majority of payments. Entries
// time out when unused; a path that turns out dead is replaced by the next
// shortest path. The table is rebuilt when the gossiped topology changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"

namespace flash {

/// Tuning knobs for MiceRoutingTable. Plain value type.
struct RoutingTableConfig {
  /// Paths kept per receiver (the paper's m; default 4, §4.1).
  std::size_t paths_per_receiver = 4;
  /// Extra Yen paths computed and cached as spares for dead-path
  /// replacement, avoiding a full recomputation per replacement.
  std::size_t spare_paths = 4;
  /// Entries not used for this many lookups are evicted (the paper uses
  /// timeouts to bound table size). 0 disables eviction.
  std::uint64_t entry_timeout = 0;
  /// Dead-path replacement under churn: when an entry's last active path
  /// dies with the spares exhausted, drop the whole entry so the next
  /// lookup recomputes it (one extra Yen) instead of returning an empty
  /// path set forever. Off by default — recomputation changes the probe
  /// stream, and the static-simulation results are pinned bit-identical;
  /// the scenario engine enables it for its stale-view routers.
  bool recompute_on_exhaustion = false;
  /// Timelock budget as a hop cap (0 = unlimited): Yen results longer than
  /// this are discarded at computation time, so neither active paths nor
  /// spares can ever exceed the budget.
  std::size_t max_hops = 0;
};

/// Where Yen work went while a table was prefetching (see
/// MiceRoutingTable::start_prefetch). Plain value type.
struct PrefetchStats {
  /// Yen requests queued by prefetch().
  std::uint64_t requested = 0;
  /// Requests a helper picked up, and how many of those it finished.
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  /// How lookup misses with a request were served: a finished result, a
  /// running one waited for, or a still-queued one computed inline.
  std::uint64_t took_finished = 0;
  std::uint64_t waited_running = 0;
  std::uint64_t computed_inline = 0;
  /// Requests dropped unconsumed by clear() or stop_prefetch().
  std::uint64_t discarded = 0;
};

/// NOT thread-safe: lookup() mutates the entry cache and the eviction
/// clock. Each concurrently running FlashRouter owns its own table. The
/// Graph is borrowed and must outlive the table. The prefetch helpers are
/// internal: every public member is still called from one thread.
class MiceRoutingTable {
 public:
  MiceRoutingTable(const Graph& graph, RoutingTableConfig config);
  /// Stops prefetching first: no helper outlives the table.
  ~MiceRoutingTable();
  MiceRoutingTable(const MiceRoutingTable&) = delete;
  MiceRoutingTable& operator=(const MiceRoutingTable&) = delete;

  /// Active paths for (sender, receiver); computes and inserts them on
  /// first use. The returned reference is invalidated by any non-const
  /// call. `computed` (optional out) reports whether this call inserted a
  /// freshly computed entry (Yen ran here or on a prefetch helper).
  const std::vector<Path>& lookup(NodeId sender, NodeId receiver,
                                  bool* computed = nullptr);

  /// Hot-path variant: a cache miss runs Yen inside `scratch` instead of a
  /// thread-local one (FlashRouter passes its own). Same semantics.
  const std::vector<Path>& lookup(NodeId sender, NodeId receiver,
                                  GraphScratch& scratch,
                                  bool* computed = nullptr);

  /// Replaces `path` (one of the entry's active paths) with the next
  /// shortest spare, dropping it permanently. Returns true if a
  /// replacement was activated, false if the entry simply shrank.
  bool replace_dead_path(NodeId sender, NodeId receiver, const Path& path);

  /// Recomputes nothing eagerly; drops everything so the next lookups
  /// recompute on the fresh topology (periodic refresh, §3.3). Outstanding
  /// prefetch requests are dropped too (waiting for running ones).
  void clear();

  // --- Yen prefetch (sequential scenario engine) ---------------------------
  //
  // A miss's Yen depends only on the graph, the pair and k, never on the
  // ledger or on which pairs were looked up before. So while the graph is
  // unmasked, helper threads may compute upcoming pairs' paths ahead of
  // their lookup: lookup() then takes the finished result, waits for a
  // running one, or computes a still-queued one inline, and filters,
  // inserts, journals and counts it exactly as if it had run Yen itself.
  // Entries, spares and computations() are identical with or without it.

  /// Starts `helpers` helper threads, each with its own GraphScratch.
  /// Returns false (and does nothing) for 0 helpers or with an open mask
  /// installed; true if prefetch is running (already running: unchanged).
  bool start_prefetch(std::size_t helpers);
  /// Queues a Yen request for (sender, receiver) unless the pair is cached
  /// or already requested. No-op unless prefetch is running and unmasked.
  void prefetch(NodeId sender, NodeId receiver);
  /// Cancels queued requests, lets running ones finish, joins the helpers
  /// and drops every unconsumed result. Idempotent.
  void stop_prefetch();
  /// Totals since construction, over every start_prefetch/stop_prefetch.
  PrefetchStats prefetch_stats() const;

  /// Installs (or clears) the open-edge mask: when set, lookup's Yen runs
  /// with closed edges weighted out (kEdgeBanned), so computed paths only
  /// use open channels. Borrowed; caller keeps it alive and current.
  /// Prefetched results are computed unmasked, so lookups ignore them (and
  /// prefetch() queues nothing) while a mask is installed.
  void set_open_mask(const unsigned char* mask) noexcept { open_mask_ = mask; }

  /// Drops every entry holding a cached path (active or unconsumed spare)
  /// that traverses a masked-closed edge — the affected set of a channel
  /// close. Entries whose paths all stay open survive untouched; affected
  /// pairs re-Yen lazily on their next lookup. Returns entries dropped.
  /// Precondition: an open mask is installed.
  std::size_t invalidate_closed_paths();

  std::size_t size() const noexcept { return entries_.size(); }

  /// Total Yen invocations (path computations), an overhead metric.
  std::uint64_t computations() const noexcept { return computations_; }

  // --- Speculative undo journal (concurrent replay engine) ----------------
  //
  // The replay engine (sim/concurrent.cc) routes payments optimistically
  // and may need to un-route one whose ledger view turned out stale. While
  // the journal is armed (first undo_mark call), the two table mutations a
  // route can cause are recorded with enough context to restore the entry
  // map exactly: replace_dead_path (balance-dependent — WHICH path dies
  // depends on the ledger the route saw) and lookup's lazy Yen insert
  // (pure topology, but journaled so that an erase-then-reinsert pair
  // rolls back to the erased entry's exact prior state, not to a fresh
  // recompute). The lookup clock is deliberately NOT journaled: it is
  // unobservable while entry_timeout == 0, the only configuration the
  // speculative engine supports.

  /// Arms the journal and returns a token for the current state.
  std::uint64_t undo_mark();
  /// Restores the state captured at `mark` (undoes later mutations,
  /// newest first). Records above `mark` are consumed.
  void undo_rollback(std::uint64_t mark);
  /// Declares mutations before `mark` permanent, freeing their records.
  void undo_release(std::uint64_t mark);

 private:
  struct Entry {
    std::vector<Path> active;
    std::vector<Path> spares;       // next-shortest candidates, in order
    std::size_t next_spare = 0;     // first unconsumed spare (O(1) pop)
    std::uint64_t last_used = 0;    // lookup clock value
  };

  struct UndoRecord {
    enum class Kind : std::uint8_t {
      kInserted,   // lookup created the entry; undo erases it
      kActivated,  // replace_dead_path consumed a spare; undo un-consumes
      kShrunk,     // replace_dead_path erased an active path; undo reinserts
      kErased,     // exhaustion dropped the whole entry; undo re-creates it
    };
    Kind kind;
    std::uint64_t key;
    std::size_t active_pos = 0;       // kActivated/kShrunk: index in active
    std::size_t spare_pos = 0;        // kActivated: next_spare before
    std::size_t old_spare_count = 0;  // kActivated: spares.size() before
    Path dead_path;                   // the replaced/erased path
  };

  const Graph* graph_;
  RoutingTableConfig config_;
  const unsigned char* open_mask_ = nullptr;  // per directed edge; borrowed
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t computations_ = 0;
  std::vector<UndoRecord> undo_log_;
  std::uint64_t undo_base_ = 0;  // marks count released prefix records
  bool undo_armed_ = false;
  // Helper threads and their request map (defined in routing_table.cc);
  // null while not prefetching. A stopped prefetcher's stats fold into
  // prefetch_stats_.
  struct Prefetcher;
  std::unique_ptr<Prefetcher> prefetch_;
  PrefetchStats prefetch_stats_;

  void evict_stale();
  /// Serves a lookup miss from a prefetch request if one exists: true when
  /// `paths` now holds its Yen result (false: no request, or a queued one
  /// the caller must compute inline).
  bool take_prefetched(std::uint64_t key, std::vector<Path>& paths);
};

}  // namespace flash
