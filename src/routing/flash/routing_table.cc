#include "routing/flash/routing_table.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "graph/yen.h"
#include "util/thread_pool.h"

namespace flash {

// Entries are keyed by pair_key(sender, receiver) from graph/types.h (the
// shared checked NodeId-packing helper).

// The prefetch helpers and their requests, keyed like entries_. Every field
// below `mutex` is guarded by it. Each request is one task on the helper
// pool (FIFO, so helpers work in hint order); a task runs Yen outside the
// lock, in its helper thread's own GraphScratch and into its own buffer,
// so helpers share nothing with the table's thread besides this struct
// and the immutable graph.
struct MiceRoutingTable::Prefetcher {
  enum class State : std::uint8_t { kQueued, kRunning, kDone };
  struct Request {
    NodeId sender = 0;
    NodeId receiver = 0;
    State state = State::kQueued;
    std::vector<Path> paths;   // raw Yen output, once kDone
    std::exception_ptr error;  // the helper's Yen threw
  };

  Prefetcher(const Graph& g, std::size_t paths, std::size_t helpers)
      : graph(&g), k(paths), pool(helpers) {}
  // Pool tasks hold `this`. The pool is the last member, so it is
  // destroyed first: it runs every task still queued (a no-op for a
  // dropped request) and joins before the state they touch goes away.
  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Queues a request unless the pair already has one; true if queued.
  bool request(std::uint64_t key, NodeId sender, NodeId receiver) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto [it, fresh] = requests.try_emplace(key);
      if (!fresh) return false;
      it->second.sender = sender;
      it->second.receiver = receiver;
    }
    pool.submit([this, key] { run(key); });
    return true;
  }

  /// Helper task: computes the request for `key` if one is still queued
  /// (it may have been taken inline or dropped since).
  void run(std::uint64_t key) {
    std::unique_lock<std::mutex> lock(mutex);
    auto it = requests.find(key);
    if (it == requests.end() || it->second.state != State::kQueued) return;
    it->second.state = State::kRunning;
    ++running;
    ++started;
    const NodeId from = it->second.sender;
    const NodeId to = it->second.receiver;
    lock.unlock();
    thread_local GraphScratch scratch;  // one per helper thread
    std::vector<Path> paths;
    std::exception_ptr error;
    try {
      yen_core(*graph, from, to, k, scratch, UnitWeight{}, paths);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    // Still present: the owner waits for running requests (take(),
    // discard_all()) and never erases one.
    Request& r = requests.at(key);
    r.paths = std::move(paths);
    r.error = error;
    r.state = State::kDone;
    --running;
    ++completed;
    finished.notify_all();
  }

  /// Serves a lookup miss of `key`, counting how in `stats`: true when a
  /// finished result (or a running one, once it finishes) was moved into
  /// `out`; a queued request is dropped so the caller computes it inline.
  bool take(std::uint64_t key, std::vector<Path>& out, PrefetchStats& stats) {
    std::unique_lock<std::mutex> lock(mutex);
    auto it = requests.find(key);
    if (it == requests.end()) return false;
    if (it->second.state == State::kQueued) {
      requests.erase(it);
      ++stats.computed_inline;
      return false;
    }
    if (it->second.state == State::kRunning) {
      ++stats.waited_running;
      finished.wait(lock, [&] {
        return requests.at(key).state == State::kDone;
      });
      it = requests.find(key);
    } else {
      ++stats.took_finished;
    }
    const std::exception_ptr error = it->second.error;
    out.swap(it->second.paths);
    requests.erase(it);
    if (error) std::rethrow_exception(error);
    return true;
  }

  /// Drops every request: queued and finished ones at once, running ones
  /// once they finish (no new one starts meanwhile: nothing is queued).
  /// Returns the number dropped.
  std::size_t discard_all() {
    std::unique_lock<std::mutex> lock(mutex);
    std::size_t dropped = std::erase_if(requests, [](const auto& kv) {
      return kv.second.state != State::kRunning;
    });
    finished.wait(lock, [this] { return running == 0; });
    dropped += requests.size();
    requests.clear();
    return dropped;
  }

  /// Adds the helper-side counters to `stats`.
  void add_helper_stats(PrefetchStats& stats) {
    std::lock_guard<std::mutex> lock(mutex);
    stats.started += started;
    stats.completed += completed;
  }

  const Graph* graph;
  std::size_t k;

  std::mutex mutex;
  std::condition_variable finished;  // a running request finished
  std::unordered_map<std::uint64_t, Request> requests;
  std::size_t running = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;

  ThreadPool pool;  // last: see the constructor
};

MiceRoutingTable::MiceRoutingTable(const Graph& graph,
                                   RoutingTableConfig config)
    : graph_(&graph), config_(config) {}

MiceRoutingTable::~MiceRoutingTable() { stop_prefetch(); }

bool MiceRoutingTable::start_prefetch(std::size_t helpers) {
  if (helpers == 0 || open_mask_) return false;
  if (!prefetch_) {
    prefetch_ = std::make_unique<Prefetcher>(
        *graph_, config_.paths_per_receiver + config_.spare_paths, helpers);
  }
  return true;
}

void MiceRoutingTable::prefetch(NodeId sender, NodeId receiver) {
  if (!prefetch_ || open_mask_) return;
  const auto key = pair_key(sender, receiver);
  if (entries_.contains(key)) return;
  if (prefetch_->request(key, sender, receiver)) ++prefetch_stats_.requested;
}

void MiceRoutingTable::stop_prefetch() {
  if (!prefetch_) return;
  prefetch_stats_.discarded += prefetch_->discard_all();
  prefetch_->add_helper_stats(prefetch_stats_);
  prefetch_.reset();
}

PrefetchStats MiceRoutingTable::prefetch_stats() const {
  PrefetchStats stats = prefetch_stats_;
  if (prefetch_) prefetch_->add_helper_stats(stats);
  return stats;
}

bool MiceRoutingTable::take_prefetched(std::uint64_t key,
                                       std::vector<Path>& paths) {
  return prefetch_ && !open_mask_ &&
         prefetch_->take(key, paths, prefetch_stats_);
}

const std::vector<Path>& MiceRoutingTable::lookup(NodeId sender,
                                                  NodeId receiver,
                                                  bool* computed) {
  LegacyScratchLease lease;
  GraphScratch& scratch = lease.get();
  return lookup(sender, receiver, scratch, computed);
}

const std::vector<Path>& MiceRoutingTable::lookup(NodeId sender,
                                                  NodeId receiver,
                                                  GraphScratch& scratch,
                                                  bool* computed) {
  ++clock_;
  if (config_.entry_timeout != 0 && (clock_ % 256) == 0) evict_stale();

  const auto key = pair_key(sender, receiver);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    auto& paths = scratch.path_list_buf;
    if (take_prefetched(key, paths)) {
      // A helper ran exactly the Yen below (unmasked branch) for this pair.
    } else if (open_mask_) {
      // Masked topology: closed edges cost kEdgeBanned, which dijkstra_core
      // skips before pushing — the search behaves exactly as if the edge
      // were absent, so results match Yen on the open-channel subgraph.
      yen_core(*graph_, sender, receiver,
               config_.paths_per_receiver + config_.spare_paths, scratch,
               MaskedUnitWeight{open_mask_}, paths);
    } else {
      yen_core(*graph_, sender, receiver,
               config_.paths_per_receiver + config_.spare_paths, scratch,
               UnitWeight{}, paths);
    }
    ++computations_;
    if (config_.max_hops != 0) {
      // Yen emits paths in non-decreasing length, so the over-budget ones
      // form a suffix; dropping them keeps the top-m semantics intact.
      std::erase_if(paths, [this](const Path& p) {
        return p.size() > config_.max_hops;
      });
    }
    const std::size_t active =
        std::min(paths.size(), config_.paths_per_receiver);
    entry.active.assign(paths.begin(),
                        paths.begin() + static_cast<long>(active));
    entry.spares.assign(paths.begin() + static_cast<long>(active),
                        paths.end());
    it = entries_.emplace(key, std::move(entry)).first;
    if (undo_armed_) {
      undo_log_.push_back({UndoRecord::Kind::kInserted, key, 0, 0, 0, {}});
    }
    if (computed) *computed = true;
  } else if (computed) {
    *computed = false;
  }
  it->second.last_used = clock_;
  return it->second.active;
}

bool MiceRoutingTable::replace_dead_path(NodeId sender, NodeId receiver,
                                         const Path& path) {
  const auto key = pair_key(sender, receiver);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  const auto pos = std::find(entry.active.begin(), entry.active.end(), path);
  if (pos == entry.active.end()) return false;
  const auto active_pos =
      static_cast<std::size_t>(pos - entry.active.begin());
  if (entry.next_spare < entry.spares.size()) {
    if (undo_armed_) {
      undo_log_.push_back({UndoRecord::Kind::kActivated, key, active_pos,
                           entry.next_spare, entry.spares.size(), *pos});
    }
    // O(1) pop-front: consume spares by index instead of erasing (the
    // spares vector is dropped wholesale once exhausted).
    *pos = std::move(entry.spares[entry.next_spare++]);
    if (entry.next_spare == entry.spares.size()) {
      entry.spares.clear();
      entry.next_spare = 0;
    }
    return true;
  }
  const bool erase_entry =
      config_.recompute_on_exhaustion && entry.active.size() == 1;
  if (undo_armed_) {
    undo_log_.push_back(
        {erase_entry ? UndoRecord::Kind::kErased : UndoRecord::Kind::kShrunk,
         key, active_pos, 0, 0, *pos});
  }
  entry.active.erase(pos);
  if (erase_entry) {
    // Every path this entry ever knew is dead. Under churn the topology
    // that produced them is gone too, so forget the entry: the next lookup
    // re-runs Yen on the (refreshed) graph rather than failing forever.
    entries_.erase(it);
  }
  return false;
}

std::uint64_t MiceRoutingTable::undo_mark() {
  undo_armed_ = true;
  return undo_base_ + undo_log_.size();
}

void MiceRoutingTable::undo_rollback(std::uint64_t mark) {
  while (undo_base_ + undo_log_.size() > mark) {
    UndoRecord rec = std::move(undo_log_.back());
    undo_log_.pop_back();
    switch (rec.kind) {
      case UndoRecord::Kind::kInserted:
        entries_.erase(rec.key);
        break;
      case UndoRecord::Kind::kActivated: {
        Entry& entry = entries_.at(rec.key);
        // If the activation exhausted (and cleared) the spares vector,
        // re-grow it: slots below spare_pos were consumed husks before the
        // clear and are never read again once next_spare is restored.
        if (entry.spares.size() < rec.old_spare_count) {
          entry.spares.resize(rec.old_spare_count);
        }
        entry.spares[rec.spare_pos] = std::move(entry.active[rec.active_pos]);
        entry.active[rec.active_pos] = std::move(rec.dead_path);
        entry.next_spare = rec.spare_pos;
        break;
      }
      case UndoRecord::Kind::kShrunk: {
        Entry& entry = entries_.at(rec.key);
        entry.active.insert(
            entry.active.begin() + static_cast<long>(rec.active_pos),
            std::move(rec.dead_path));
        break;
      }
      case UndoRecord::Kind::kErased: {
        Entry entry;
        entry.active.push_back(std::move(rec.dead_path));
        entry.last_used = clock_;  // unobservable: timeout disabled
        entries_.emplace(rec.key, std::move(entry));
        break;
      }
    }
  }
}

void MiceRoutingTable::undo_release(std::uint64_t mark) {
  if (mark <= undo_base_) return;
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(undo_log_.size(), mark - undo_base_));
  undo_log_.erase(undo_log_.begin(), undo_log_.begin() + static_cast<long>(n));
  undo_base_ += n;
}

void MiceRoutingTable::clear() {
  entries_.clear();
  if (prefetch_) prefetch_stats_.discarded += prefetch_->discard_all();
}

std::size_t MiceRoutingTable::invalidate_closed_paths() {
  // Affected-set rule: an entry dies iff any path it could ever serve —
  // active paths and the unconsumed spare tail (replace_dead_path may
  // activate those later) — crosses a closed edge. One O(path length) mask
  // scan per cached path, no per-close graph work.
  const unsigned char* mask = open_mask_;
  auto path_closed = [mask](const Path& p) {
    for (const EdgeId e : p) {
      if (!mask[e]) return true;
    }
    return false;
  };
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& entry = it->second;
    bool dead = false;
    for (const Path& p : entry.active) {
      if (path_closed(p)) {
        dead = true;
        break;
      }
    }
    for (std::size_t i = entry.next_spare; !dead && i < entry.spares.size();
         ++i) {
      dead = path_closed(entry.spares[i]);
    }
    if (dead) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void MiceRoutingTable::evict_stale() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (clock_ - it->second.last_used > config_.entry_timeout) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace flash
