// Per-sender routing table for mice payments (paper §3.3).
//
// Each node keeps, per unique receiver, the top-m shortest paths computed
// with Yen's algorithm on the local topology. Recurrence (Fig. 4) makes
// this a table-lookup fast path for the vast majority of payments. Entries
// time out when unused; a path that turns out dead is replaced by the next
// shortest path. The table is rebuilt when the gossiped topology changes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "graph/types.h"
#include "util/thread_pool.h"

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

/// Where a YenPrefetcher's work went. Plain value type. Every request ends
/// in exactly one of took_finished, waited_running, computed_inline and
/// discarded, or is still outstanding.
struct PrefetchStats {
  /// Requests queued by request() (a re-queue under a new mask counts).
  std::uint64_t requested = 0;
  /// Requests a helper picked up, and how many of those it finished.
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  /// How lookup misses with a request were served: a finished result, a
  /// running one waited for, or inline (the request was still queued, or
  /// was computed under another mask).
  std::uint64_t took_finished = 0;
  std::uint64_t waited_running = 0;
  std::uint64_t computed_inline = 0;
  /// Requests dropped unconsumed: by drop(), by a re-queue under another
  /// mask, by discard_all().
  std::uint64_t discarded = 0;
};

/// Yen on helper threads, ahead of the routing-table lookups that need it.
///
/// A miss's Yen is a pure function of the graph, the open mask, the pair
/// and k: never of the ledger, nor of which pairs were looked up before.
/// So helpers may compute upcoming pairs' paths early, and a lookup may
/// adopt a result exactly when it was computed under a byte-equal mask (or
/// both are unmasked). Several MiceRoutingTables over one graph may borrow
/// one prefetcher; each request is keyed by its (sender, receiver) pair and
/// carries a copy of the mask it is computed under.
///
/// Not for concurrent callers: the tables that borrow one prefetcher share
/// one thread, and the helpers are internal (stats() alone may be called
/// from anywhere). The Graph is borrowed and must outlive the prefetcher;
/// the destructor drops every request and joins the helpers.
class YenPrefetcher {
 public:
  /// `helpers` threads, each with its own GraphScratch, run Yen for `k`
  /// paths over `graph`.
  YenPrefetcher(const Graph& graph, std::size_t k, std::size_t helpers);
  ~YenPrefetcher();
  YenPrefetcher(const YenPrefetcher&) = delete;
  YenPrefetcher& operator=(const YenPrefetcher&) = delete;

  const Graph& graph() const noexcept { return *graph_; }
  std::size_t k() const noexcept { return k_; }

  /// Queues Yen for (sender, receiver) under `mask` (one flag per directed
  /// edge of graph(), copied; null = unmasked). A pair holds at most one
  /// request: one under the same mask stays as it is, one under another
  /// mask is re-queued under `mask` unless a helper is running it (the
  /// helper reads the mask outside the lock). True if a request was queued.
  bool request(NodeId sender, NodeId receiver, const unsigned char* mask);
  /// Serves a lookup miss of (sender, receiver) under `mask`: true when
  /// `out` holds the Yen result of a request computed under a byte-equal
  /// mask, finished or (once it finishes) running. Otherwise the request,
  /// if any, is dropped, and the caller computes inline.
  bool take(NodeId sender, NodeId receiver, const unsigned char* mask,
            std::vector<Path>& out);
  /// Drops the pair's request, if any (a running one once it finishes).
  void drop(NodeId sender, NodeId receiver);
  /// Drops every request: queued and finished ones at once, running ones
  /// once they finish.
  void discard_all();
  /// Totals since construction.
  PrefetchStats stats() const;

 private:
  enum class State : std::uint8_t { kQueued, kRunning, kDone };
  struct Request {
    NodeId sender = 0;
    NodeId receiver = 0;
    std::vector<unsigned char> mask;  // empty = unmasked
    State state = State::kQueued;
    bool dropped = false;      // erase once the running helper finishes
    std::vector<Path> paths;   // raw Yen output, once kDone
    std::exception_ptr error;  // the helper's Yen threw
  };

  /// Helper task: computes the request for `key` if one is still queued.
  void run(std::uint64_t key);
  bool same_mask(const Request& r, const unsigned char* mask) const;
  void set_mask(Request& r, const unsigned char* mask) const;

  const Graph* graph_;
  std::size_t k_;

  mutable std::mutex mutex_;
  std::condition_variable finished_;  // a running request finished
  // Guarded by mutex_.
  std::unordered_map<std::uint64_t, Request> requests_;
  std::size_t running_ = 0;
  PrefetchStats stats_;

  // Last: destroyed first, so the destructor joins every helper (tasks
  // hold `this`) before the state they touch goes away.
  ThreadPool pool_;
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
  /// recompute on the fresh topology (periodic refresh, §3.3). An owned
  /// prefetcher drops its outstanding requests too (waiting for running
  /// ones); a borrowed one keeps them, each exact for its own mask.
  void clear();

  // --- Yen prefetch (sequential scenario engine) ---------------------------
  //
  // A table either owns a YenPrefetcher (start_prefetch) or borrows one
  // (borrow_prefetch). prefetch() requests a pair under the mask installed
  // at that call. A lookup miss takes the pair's request if it was computed
  // under a mask byte-equal to the one installed at the miss (finished, or
  // running and waited for), computes inline otherwise, and filters,
  // inserts, journals and counts the paths exactly as if it had run Yen
  // itself. Entries, spares and computations() are identical with or
  // without prefetch. A borrower's lookup hit drops the pair's unconsumed
  // request (the lender that took the hint cannot see this table).

  /// Starts owning a prefetcher with `helpers` threads over this table's
  /// graph and k. Returns false (and does nothing) for 0 helpers; true if
  /// prefetch is running (already running: unchanged).
  bool start_prefetch(std::size_t helpers);
  /// Serves misses from `prefetcher` (stopping an owned one first).
  /// Borrowed: it must outlive every later lookup, prefetch and clear.
  /// Throws std::invalid_argument unless it searches this table's graph
  /// for this table's k paths.
  void borrow_prefetch(YenPrefetcher& prefetcher);
  /// Requests (sender, receiver) under the installed mask unless the pair
  /// is cached. No-op unless prefetching.
  void prefetch(NodeId sender, NodeId receiver);
  /// Ends prefetching: an owned prefetcher drops its requests and joins
  /// its helpers, a borrowed one is let go untouched. Idempotent.
  void stop_prefetch();
  /// The prefetcher in use, owned or borrowed; null when not prefetching.
  YenPrefetcher* prefetcher() const noexcept { return prefetch_; }
  /// Totals of every prefetcher this table has owned, plus the one in use.
  /// A borrowed prefetcher's totals cover every table that borrows it.
  PrefetchStats prefetch_stats() const;

  /// Installs (or clears) the open-edge mask: when set, lookup's Yen runs
  /// with closed edges weighted out (kEdgeBanned), so computed paths only
  /// use open channels. Borrowed; caller keeps it alive and current. The
  /// caller may rewrite the mask between calls: prefetch() copies it into
  /// the request, and a miss adopts a request only under a byte-equal mask.
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
  // The prefetcher in use: owned_prefetch_ or a borrowed one. A stopped
  // owned prefetcher's totals fold into prefetch_stats_.
  std::unique_ptr<YenPrefetcher> owned_prefetch_;
  YenPrefetcher* prefetch_ = nullptr;
  PrefetchStats prefetch_stats_;

  std::size_t yen_k() const noexcept {
    return config_.paths_per_receiver + config_.spare_paths;
  }
  void evict_stale();
};

}  // namespace flash
