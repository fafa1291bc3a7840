#include "routing/flash/routing_table.h"

#include <algorithm>
#include <stdexcept>

#include "graph/yen.h"

namespace flash {

// Entries are keyed by pair_key(sender, receiver) from graph/types.h (the
// shared checked NodeId-packing helper).

namespace {

void add_stats(PrefetchStats& into, const PrefetchStats& from) {
  into.requested += from.requested;
  into.started += from.started;
  into.completed += from.completed;
  into.took_finished += from.took_finished;
  into.waited_running += from.waited_running;
  into.computed_inline += from.computed_inline;
  into.discarded += from.discarded;
}

}  // namespace

// Requests are keyed like the table's entries. Each is one task on the
// helper pool (FIFO, so helpers work in hint order); a task runs Yen
// outside the lock, in its helper thread's own GraphScratch and into its
// own buffer, reading only the immutable graph and its request's mask. No
// one erases or rewrites a running request: take() and discard_all() wait
// for it, drop() and a mismatched take() only flag it, and request()
// leaves it alone.

YenPrefetcher::YenPrefetcher(const Graph& graph, std::size_t k,
                             std::size_t helpers)
    : graph_(&graph), k_(k), pool_(helpers) {}

YenPrefetcher::~YenPrefetcher() { discard_all(); }

bool YenPrefetcher::same_mask(const Request& r,
                              const unsigned char* mask) const {
  if (!mask) return r.mask.empty();
  return !r.mask.empty() &&
         std::equal(r.mask.begin(), r.mask.end(), mask);
}

void YenPrefetcher::set_mask(Request& r, const unsigned char* mask) const {
  if (mask) {
    r.mask.assign(mask, mask + graph_->num_edges());
  } else {
    r.mask.clear();
  }
}

bool YenPrefetcher::request(NodeId sender, NodeId receiver,
                            const unsigned char* mask) {
  const auto key = pair_key(sender, receiver);
  bool submit = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = requests_.try_emplace(key);
    Request& r = it->second;
    if (!fresh) {
      if (r.state == State::kRunning || same_mask(r, mask)) return false;
      // Queued or finished under another mask: re-queue under this one. A
      // queued request's pool task is still pending and will run it.
      ++stats_.discarded;
      submit = r.state == State::kDone;
      r.state = State::kQueued;
      r.paths.clear();
      r.error = nullptr;
    }
    r.sender = sender;
    r.receiver = receiver;
    set_mask(r, mask);
    ++stats_.requested;
  }
  if (submit) pool_.submit([this, key] { run(key); });
  return true;
}

void YenPrefetcher::run(std::uint64_t key) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = requests_.find(key);
  if (it == requests_.end() || it->second.state != State::kQueued) return;
  Request& r = it->second;  // stable: unordered_map nodes never move
  r.state = State::kRunning;
  ++running_;
  ++stats_.started;
  lock.unlock();
  thread_local GraphScratch scratch;  // one per helper thread
  std::vector<Path> paths;
  std::exception_ptr error;
  try {
    if (r.mask.empty()) {
      yen_core(*graph_, r.sender, r.receiver, k_, scratch, UnitWeight{},
               paths);
    } else {
      yen_core(*graph_, r.sender, r.receiver, k_, scratch,
               MaskedUnitWeight{r.mask.data()}, paths);
    }
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  --running_;
  ++stats_.completed;
  if (r.dropped) {
    requests_.erase(key);
  } else {
    r.paths = std::move(paths);
    r.error = error;
    r.state = State::kDone;
  }
  finished_.notify_all();
}

bool YenPrefetcher::take(NodeId sender, NodeId receiver,
                         const unsigned char* mask, std::vector<Path>& out) {
  const auto key = pair_key(sender, receiver);
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = requests_.find(key);
  if (it == requests_.end() || it->second.dropped) return false;
  Request& r = it->second;
  if (r.state == State::kQueued || !same_mask(r, mask)) {
    ++stats_.computed_inline;
    if (r.state == State::kRunning) {
      r.dropped = true;
    } else {
      requests_.erase(it);
    }
    return false;
  }
  if (r.state == State::kRunning) {
    ++stats_.waited_running;
    // `r` stays valid: only the caller's own later calls can drop it.
    finished_.wait(lock, [&r] { return r.state == State::kDone; });
  } else {
    ++stats_.took_finished;
  }
  const std::exception_ptr error = r.error;
  out.swap(r.paths);
  requests_.erase(key);
  if (error) std::rethrow_exception(error);
  return true;
}

void YenPrefetcher::drop(NodeId sender, NodeId receiver) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = requests_.find(pair_key(sender, receiver));
  if (it == requests_.end() || it->second.dropped) return;
  ++stats_.discarded;
  if (it->second.state == State::kRunning) {
    it->second.dropped = true;
  } else {
    requests_.erase(it);
  }
}

void YenPrefetcher::discard_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& [key, r] : requests_) {
    if (!r.dropped) ++stats_.discarded;
    r.dropped = true;
  }
  std::erase_if(requests_, [](const auto& kv) {
    return kv.second.state != State::kRunning;
  });
  // Running helpers erase their own (now dropped) requests.
  finished_.wait(lock, [this] { return running_ == 0; });
}

PrefetchStats YenPrefetcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

MiceRoutingTable::MiceRoutingTable(const Graph& graph,
                                   RoutingTableConfig config)
    : graph_(&graph), config_(config) {}

MiceRoutingTable::~MiceRoutingTable() { stop_prefetch(); }

bool MiceRoutingTable::start_prefetch(std::size_t helpers) {
  if (helpers == 0) return false;
  if (!owned_prefetch_) {
    stop_prefetch();  // let go of a borrowed one
    owned_prefetch_ =
        std::make_unique<YenPrefetcher>(*graph_, yen_k(), helpers);
    prefetch_ = owned_prefetch_.get();
  }
  return true;
}

void MiceRoutingTable::borrow_prefetch(YenPrefetcher& prefetcher) {
  if (&prefetcher.graph() != graph_ || prefetcher.k() != yen_k()) {
    throw std::invalid_argument(
        "MiceRoutingTable: a borrowed prefetcher must run Yen over this "
        "table's graph for this table's paths_per_receiver + spare_paths");
  }
  stop_prefetch();
  prefetch_ = &prefetcher;
}

void MiceRoutingTable::prefetch(NodeId sender, NodeId receiver) {
  if (!prefetch_ || entries_.contains(pair_key(sender, receiver))) return;
  prefetch_->request(sender, receiver, open_mask_);
}

void MiceRoutingTable::stop_prefetch() {
  prefetch_ = nullptr;
  if (!owned_prefetch_) return;
  owned_prefetch_->discard_all();
  add_stats(prefetch_stats_, owned_prefetch_->stats());
  owned_prefetch_.reset();
}

PrefetchStats MiceRoutingTable::prefetch_stats() const {
  PrefetchStats stats = prefetch_stats_;
  if (prefetch_) add_stats(stats, prefetch_->stats());
  return stats;
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
    if (prefetch_ && prefetch_->take(sender, receiver, open_mask_, paths)) {
      // A helper ran exactly the Yen below, under a byte-equal mask.
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
  } else {
    // An owner requests only pairs it lacks and consumes each request at
    // the pair's first miss, so only a borrower, hinted through a lender
    // that cannot see this table's entries, can hit a requested pair.
    if (prefetch_ && !owned_prefetch_) prefetch_->drop(sender, receiver);
    if (computed) *computed = false;
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
  if (owned_prefetch_) owned_prefetch_->discard_all();
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
