// Concurrent payment engine: the kReplay execution mode of ScenarioEngine
// (see ScenarioExecution in sim/scenario.h and the "Concurrent payment
// engine" section of docs/ARCHITECTURE.md). Speculative routing,
// logical-order settlement:
//
//   The sequential event loop stays the single source of ordering truth.
//   Worker threads (one per `sender % workers` shard) route upcoming
//   payments ahead of time against private mirror ledgers; when the event
//   loop reaches a payment's arrival, the coordinator *consumes* the
//   speculation: if every balance the route READ is still current (checked
//   against per-edge write stamps), the speculated writes are applied to
//   the truth verbatim — by induction they are exactly the writes the
//   sequential engine would have produced — otherwise every unconsumed
//   speculation of that worker is rolled back (router undo journal +
//   mirror refresh) and the payment re-routes inline on the same router.
//   Accept/abort only needs to be SOUND, not deterministic: an aborted
//   speculation leaves no trace, so thread count and timing cannot leak
//   into results. Replay is therefore bit-identical to the sequential
//   engine (with payment_indexed_rng on) at ANY worker count.
//
//   All cross-thread happens-before comes from two BoundedQueue families
//   (per-worker dispatch inboxes, one shared completion queue); workers
//   and coordinator share no atomics. State published before a push is
//   safely read after the matching pop — which covers the speculation
//   frames, the truth-write replay log, and the per-worker cursors.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"

namespace flash {

// ---------------------------------------------------------------------------
// ConcurrentRuntime: all kReplay pipeline state.
// ---------------------------------------------------------------------------

struct ScenarioEngine::ConcurrentRuntime {
  // Truth-write replay log entries live in fixed-size chunks behind a
  // never-reallocated pointer table, so workers can read any entry below
  // their dispatch watermark with plain loads: the coordinator writes the
  // chunk-table slot (and the entries) before publishing the watermark
  // through an inbox push, and the queue mutex carries the happens-before.
  static constexpr std::size_t kChunkBits = 13;  // 8192 entries per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;
  /// Stamp source for non-speculative truth writes (inline re-routes,
  /// rebalance publishes): conflicts with every in-flight speculation.
  static constexpr std::uint32_t kExternalSrc = 0xffffffffu;

  struct LogEntry {
    EdgeId edge = 0;
    std::uint32_t src = kExternalSrc;
    Amount value = 0;
  };

  struct SpecTask {
    std::size_t index = 0;
    Transaction tx;
    std::uint64_t rng_seed = 0;
  };

  struct SpecBatch {
    std::uint64_t id = 0;
    std::vector<SpecTask> tasks;
    /// Replay-log watermark: the worker syncs its mirror to here before
    /// speculating (every entry below is an applied truth write).
    std::size_t log_len = 0;
    /// Router undo records below this mark are permanent; free them.
    std::uint64_t release_mark = 0;
  };

  struct Completion {
    std::uint32_t worker = 0;
    std::uint64_t batch_id = 0;
  };

  // One speculation per payment index, living in a ring slot. The slot is
  // coordinator-owned except between the dispatch push and the completion
  // pop of its batch, when the worker fills it in.
  struct Frame {
    enum class State : std::uint8_t {
      kEmpty,    // slot free / consumed
      kDone,     // speculated; result + read/write sets valid
      kInvalid,  // rolled back; consume must re-route inline
    };
    State state = State::kEmpty;
    std::size_t index = 0;
    Transaction tx;  // kept for re-dispatch after a rollback
    RouteResult result;
    std::vector<EdgeId> reads;        // sorted, deduplicated
    std::vector<EdgeId> write_edges;  // first-touch order, no-ops dropped
    std::vector<Amount> write_post;   // final value per write edge
    std::vector<Amount> write_pre;    // pre-images (accept-time cross-check)
    std::uint64_t router_mark = 0;    // undo journal position before route
    std::size_t log_len = 0;          // mirror watermark at route time
    std::chrono::steady_clock::time_point spec_start{};
    std::exception_ptr error;
  };

  struct Worker {
    // Worker-owned between dispatch and completion; coordinator-owned
    // (for rollback / inline routes) while the worker is idle.
    std::uint32_t id = 0;
    std::unique_ptr<BoundedQueue<SpecBatch>> inbox;
    std::unique_ptr<Router> router;
    std::unique_ptr<NetworkState> mirror;
    std::size_t sync_pos = 0;               // log position mirror reflects
    std::vector<std::uint32_t> write_slot;  // dedup scratch (zeros at rest)
    std::vector<Amount> pre_scratch;        // first-touch pre-images

    // Coordinator-owned bookkeeping.
    std::uint64_t batch_seq = 0;        // batches dispatched
    std::uint64_t last_completed = 0;   // highest completed batch id
    std::size_t outstanding = 0;        // dispatched minus completed
    std::deque<std::size_t> inflight;   // unconsumed speculated indices
    std::uint64_t release_mark = 0;     // journal prefix known-permanent
  };

  ~ConcurrentRuntime() {
    // Unblock parked workers before joining the pool: a worker waits only
    // on its inbox pop (or, never in practice, a completions push).
    for (Worker& w : workers) {
      if (w.inbox) w.inbox->close();
    }
    if (completions) completions->close();
    pool.reset();  // joins
  }

  ScenarioEngine* eng = nullptr;
  std::size_t window = 0;  // speculation window: 8 payments per worker
  std::size_t ring = 0;    // frame ring size = 2 * window

  std::vector<Worker> workers;
  std::vector<std::vector<SpecTask>> pending_tasks;  // dispatch scratch
  std::unique_ptr<BoundedQueue<Completion>> completions;
  std::unique_ptr<ThreadPool> pool;

  std::vector<Frame> frames;            // ring, indexed by index % ring
  std::vector<std::uint64_t> slot_batch;  // batch id per ring slot

  // Per-edge write stamps (coordinator-owned): position-in-log + 1 of the
  // last truth write to the edge, and which worker's accepted speculation
  // produced it (kExternalSrc for inline/rebalance writes). A frame of
  // worker w with watermark L is valid iff every read edge's stamp is
  // <= L or sourced by w itself (w's own accepted writes are layered into
  // its mirror by construction).
  std::vector<std::size_t> stamp_pos;
  std::vector<std::uint32_t> stamp_src;

  // The truth-write replay log (see kChunkBits above).
  std::vector<std::unique_ptr<LogEntry[]>> chunk_store;
  std::vector<LogEntry*> chunk_table;  // sized kMaxChunks once, no realloc
  std::size_t log_size = 0;

  // Dispatch reads the stream through the engine's read-ahead (shared
  // with arrival staging), which keeps every entry from dispatched_end on
  // while spec_on.
  std::size_t dispatched_end = 0;  // payments dispatched for speculation
  std::size_t next_consume = 0;    // next arrival index to settle
  bool spec_on = false;            // dispatch active (pristine era only)

  std::vector<Amount> truth_snapshot;  // full-resync scratch
  std::vector<EdgeId> inline_edges;    // inline-route write scratch
  std::vector<Amount> inline_pre;
  std::vector<std::size_t> rolled_back;  // last rollback's frame indices

  // --- Log -----------------------------------------------------------------

  void log_append(EdgeId e, std::uint32_t src, Amount v) {
    const std::size_t i = log_size;
    const std::size_t c = i >> kChunkBits;
    if (c >= chunk_store.size()) {
      if (c >= kMaxChunks) {
        throw std::logic_error("concurrent engine: replay log overflow");
      }
      chunk_store.push_back(std::make_unique<LogEntry[]>(kChunkSize));
      chunk_table[c] = chunk_store.back().get();
    }
    chunk_table[c][i & kChunkMask] = LogEntry{e, src, v};
    log_size = i + 1;
    stamp_pos[e] = log_size;
    stamp_src[e] = src;
  }

  /// Replays log entries [sync_pos, upto) into the mirror — EXCEPT the
  /// worker's own accepted writes. Those are already in the mirror (they
  /// were layered there when the frame was speculated and are never
  /// clobbered), and replaying one would be a time-travel bug: an entry
  /// this worker's frame F produced is OLDER than the layered writes of
  /// frames speculated after F, so re-applying it would roll those layers
  /// back. Foreign entries may clobber a layer, but then the layer's
  /// frame reads a foreign-stamped edge and fails validation at consume,
  /// which invalidates every later frame of this worker with it.
  void sync_mirror(Worker& w, std::size_t upto) const {
    for (; w.sync_pos < upto; ++w.sync_pos) {
      const LogEntry& le =
          chunk_table[w.sync_pos >> kChunkBits][w.sync_pos & kChunkMask];
      if (le.src != w.id) w.mirror->mirror_balance(le.edge, le.value);
    }
  }

  // --- Coordinator-side completion tracking --------------------------------

  void drain_one() {
    const auto c = completions->pop();
    if (!c) {
      throw std::logic_error("concurrent engine: completion queue closed");
    }
    Worker& w = workers[c->worker];
    w.last_completed = c->batch_id;
    --w.outstanding;
  }

  void wait_for_batch(Worker& w, std::uint64_t batch_id) {
    while (w.last_completed < batch_id) drain_one();
  }

  void wait_idle(Worker& w) {
    while (w.outstanding > 0) drain_one();
  }

  void wait_all_idle() {
    for (Worker& w : workers) wait_idle(w);
  }

  // --- Validation / rollback ----------------------------------------------

  bool frame_valid(const Frame& f, std::uint32_t wid) const {
    for (const EdgeId e : f.reads) {
      if (stamp_pos[e] > f.log_len && stamp_src[e] != wid) return false;
    }
    return true;
  }

  /// Coordinator, worker idle: discards every unconsumed speculation of
  /// `w` — undoes the router back to the OLDEST in-flight frame's mark
  /// (per-worker consume order means everything above it is speculative)
  /// and refreshes the mirror wholesale from the truth. Frames flip to
  /// kInvalid so their consume re-routes inline.
  void rollback_worker(Worker& w) {
    rolled_back.clear();
    if (w.inflight.empty()) return;
    const Frame& oldest = frames[w.inflight.front() % ring];
    w.router->speculation_rollback(oldest.router_mark);
    w.release_mark = oldest.router_mark;
    for (const std::size_t i : w.inflight) {
      frames[i % ring].state = Frame::State::kInvalid;
      rolled_back.push_back(i);
    }
    w.inflight.clear();
    full_resync(w);
  }

  /// Coordinator, worker idle: re-dispatches the frames the preceding
  /// rollback_worker invalidated (minus `consumed`, which just routed
  /// inline) for a fresh speculation against the post-rollback truth.
  /// Without this, one stale consume degrades the worker's whole
  /// outstanding window to inline routes; with it, only payments whose
  /// re-speculation ALSO goes stale pay the sequential price. Purely a
  /// throughput device — accept/abort stays sound either way, so replay
  /// results are unchanged.
  void redispatch_rolled_back(Worker& w, std::size_t consumed) {
    if (!spec_on || rolled_back.empty()) return;
    SpecBatch batch;
    for (const std::size_t idx : rolled_back) {
      if (idx == consumed) continue;
      const Frame& f = frames[idx % ring];
      batch.tasks.push_back({idx, f.tx, eng->payment_rng_seed(idx, 0)});
    }
    rolled_back.clear();
    if (batch.tasks.empty()) return;
    batch.id = ++w.batch_seq;
    batch.log_len = log_size;
    batch.release_mark = w.release_mark;
    for (const SpecTask& t : batch.tasks) {
      slot_batch[t.index % ring] = batch.id;
      w.inflight.push_back(t.index);
    }
    ++w.outstanding;
    // Never blocks: the worker is idle, so its inbox is empty.
    w.inbox->push(std::move(batch));
  }

  /// Coordinator, worker idle: mirror := truth (the log-suffix shortcut is
  /// unsound after a rollback — a rolled-back frame may have overwritten a
  /// synced-in value that no suffix entry repeats).
  void full_resync(Worker& w) {
    const Graph& g = eng->workload_->graph();
    truth_snapshot.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      truth_snapshot[e] = eng->truth_.balance(e);
    }
    w.mirror->assign_balances(truth_snapshot);
    w.sync_pos = log_size;
  }

  // --- Inline (non-speculative) routing ------------------------------------

  /// Coordinator, worker idle, no in-flight speculations on `w` (caller
  /// rolled them back): routes on w's mirror (== truth after the sync),
  /// applies the settlement to the truth, publishes it through the log.
  /// This is exactly the sequential pristine route, executed on the shard
  /// router — identical to the oracle by the sender-sharding argument.
  RouteResult inline_route(Worker& w, const Transaction& tx, std::size_t idx,
                           std::size_t attempt) {
    sync_mirror(w, log_size);
    NetworkState& m = *w.mirror;
    m.clear_read_log();
    m.clear_change_log();
    w.router->begin_payment(eng->payment_rng_seed(idx, attempt));
    const RouteResult r = w.router->route(tx, m);
    if (m.active_holds() != 0) {
      throw std::logic_error("scenario: router " + w.router->name() +
                             " leaked holds after tx " + std::to_string(idx));
    }
    // Inline routes are permanent: drop their undo records immediately.
    w.release_mark = w.router->speculation_mark();
    w.router->speculation_release(w.release_mark);
    // First-touch pre / final post per touched edge; apply non-no-ops.
    const auto cl = m.change_log();
    const auto pre = m.change_log_pre();
    inline_edges.clear();
    inline_pre.clear();
    auto& slot = w.write_slot;
    for (std::size_t i = 0; i < cl.size(); ++i) {
      const EdgeId e = cl[i];
      if (slot[e] == 0) {
        inline_edges.push_back(e);
        inline_pre.push_back(pre[i]);
        slot[e] = static_cast<std::uint32_t>(inline_edges.size());
      }
    }
    for (std::size_t j = 0; j < inline_edges.size(); ++j) {
      const EdgeId e = inline_edges[j];
      slot[e] = 0;
      const Amount post = m.balance(e);
      if (post != inline_pre[j]) {
        eng->truth_.mirror_balance(e, post);
        log_append(e, kExternalSrc, post);
      }
    }
    eng->truth_.charge_messages(r.probe_messages);
    m.clear_read_log();
    m.clear_change_log();
    return r;
  }

  // --- Worker side ---------------------------------------------------------

  void collect_frame(Worker& w, Frame& f) {
    NetworkState& m = *w.mirror;
    // Writes: first-touch pre-image, final post-value; drop edges whose
    // final value equals their pre-route value (applying a no-op write is
    // observationally identical to skipping it — the sequential engine
    // routing on the truth leaves such edges at the same value — and
    // skipping avoids stamping false conflicts onto other speculations).
    f.write_edges.clear();
    f.write_post.clear();
    f.write_pre.clear();
    w.pre_scratch.clear();
    const auto cl = m.change_log();
    const auto pre = m.change_log_pre();
    auto& slot = w.write_slot;
    for (std::size_t i = 0; i < cl.size(); ++i) {
      const EdgeId e = cl[i];
      if (slot[e] == 0) {
        f.write_edges.push_back(e);
        w.pre_scratch.push_back(pre[i]);
        slot[e] = static_cast<std::uint32_t>(f.write_edges.size());
      }
    }
    std::size_t out = 0;
    for (std::size_t j = 0; j < f.write_edges.size(); ++j) {
      const EdgeId e = f.write_edges[j];
      slot[e] = 0;
      const Amount post = m.balance(e);
      if (post != w.pre_scratch[j]) {
        f.write_edges[out] = e;
        f.write_post.push_back(post);
        f.write_pre.push_back(w.pre_scratch[j]);
        ++out;
      }
    }
    f.write_edges.resize(out);
    // Reads, sorted + deduplicated. NetworkState funnels every balance
    // read — probes, hold feasibility, and the commit/abort RMW reads —
    // through the read log, so this set is a superset of the write set
    // and one membership check covers write-write conflicts too.
    const auto rl = m.read_log();
    f.reads.assign(rl.begin(), rl.end());
    std::sort(f.reads.begin(), f.reads.end());
    f.reads.erase(std::unique(f.reads.begin(), f.reads.end()),
                  f.reads.end());
  }

  void spec_one(Worker& w, const SpecTask& t, Frame& f) {
    f.index = t.index;
    f.tx = t.tx;
    f.error = nullptr;
    f.log_len = w.sync_pos;
    f.spec_start = std::chrono::steady_clock::now();
    NetworkState& m = *w.mirror;
    m.clear_read_log();
    m.clear_change_log();
    try {
      f.router_mark = w.router->speculation_mark();
      w.router->begin_payment(t.rng_seed);
      f.result = w.router->route(t.tx, m);
      if (m.active_holds() != 0) {
        throw std::logic_error("scenario: router " + w.router->name() +
                               " leaked holds during speculation of tx " +
                               std::to_string(t.index));
      }
      collect_frame(w, f);
    } catch (...) {
      f.error = std::current_exception();
    }
    f.state = Frame::State::kDone;
  }

  void worker_loop(std::uint32_t wid) {
    Worker& w = workers[wid];
    while (auto batch = w.inbox->pop()) {
      w.router->speculation_release(batch->release_mark);
      sync_mirror(w, batch->log_len);
      for (const SpecTask& t : batch->tasks) {
        spec_one(w, t, frames[t.index % ring]);
      }
      completions->push(Completion{wid, batch->id});
    }
  }
};

// Defined here (not scenario.h/.cc) so ConcurrentRuntime is complete only
// where it must be.
void ScenarioEngine::ConcurrentRuntimeDeleter::operator()(
    ConcurrentRuntime* rt) const {
  delete rt;
}

ScenarioEngine::~ScenarioEngine() = default;

// ---------------------------------------------------------------------------
// kReplay: engine-side coordinator.
// ---------------------------------------------------------------------------

void ScenarioEngine::begin_replay() {
  // The determinism argument requires per-payment rng pinning: worker
  // routers must draw exactly like the oracle's shared router would for
  // the same payment. The equality oracle is the sequential engine with
  // this same knob on.
  cfg_.payment_indexed_rng = true;

  concurrent_.reset(new ConcurrentRuntime());
  ConcurrentRuntime& rt = *concurrent_;
  rt.eng = this;
  const std::size_t n = cfg_.concurrency.workers
                            ? cfg_.concurrency.workers
                            : ThreadPool::hardware_threads();
  rt.window = 8 * n;
  rt.ring = 2 * rt.window;

  const Graph& g = workload_->graph();
  rt.frames.resize(rt.ring);
  rt.slot_batch.assign(rt.ring, 0);
  rt.stamp_pos.assign(g.num_edges(), 0);
  rt.stamp_src.assign(g.num_edges(), ConcurrentRuntime::kExternalSrc);
  rt.chunk_table.assign(ConcurrentRuntime::kMaxChunks, nullptr);
  rt.pending_tasks.resize(n);
  // Deadlock-freedom: outstanding batches carry disjoint non-empty sets of
  // unconsumed dispatched indices (pump batches are disjoint by
  // construction; a re-dispatch batch's indices left their previous batch
  // when it completed), and unconsumed dispatched indices number at most
  // `ring`. Sizing the completion queue past that means a worker's
  // completion push NEVER blocks, so workers always return to their inbox
  // and every coordinator dispatch push eventually completes.
  rt.completions =
      std::make_unique<BoundedQueue<ConcurrentRuntime::Completion>>(
          std::max(rt.ring, 2 * n) + 1);
  rt.truth_snapshot.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    rt.truth_snapshot[e] = truth_.balance(e);
  }

  rt.workers.resize(n);
  for (std::size_t wid = 0; wid < n; ++wid) {
    ConcurrentRuntime::Worker& w = rt.workers[wid];
    w.id = static_cast<std::uint32_t>(wid);
    w.inbox =
        std::make_unique<BoundedQueue<ConcurrentRuntime::SpecBatch>>(4);
    // Identical construction to base_router_, so with payment-indexed rng
    // a shard router routes any given payment exactly like the oracle.
    w.router = make_router(scheme_, *workload_, opts_, seed_);
    w.router->speculation_mark();  // arm the undo journal on this thread
    w.mirror = std::make_unique<NetworkState>(g);
    w.mirror->assign_balances(rt.truth_snapshot);
    w.mirror->enable_change_log(/*with_pre_images=*/true);
    w.mirror->enable_read_log();
    w.write_slot.assign(g.num_edges(), 0);
  }

  rt.spec_on = stream_->size() > 0;
  result_.workers_used = n;
  rt.pool = std::make_unique<ThreadPool>(n);
  for (std::size_t wid = 0; wid < n; ++wid) {
    ConcurrentRuntime* rtp = &rt;
    rt.pool->submit(
        [rtp, wid] { rtp->worker_loop(static_cast<std::uint32_t>(wid)); });
  }
}

void ScenarioEngine::end_replay() {
  ConcurrentRuntime& rt = *concurrent_;
  rt.spec_on = false;
  for (ConcurrentRuntime::Worker& w : rt.workers) {
    if (w.inbox) w.inbox->close();
  }
  if (rt.completions) rt.completions->close();
  if (rt.pool) rt.pool->wait_idle();
}

void ScenarioEngine::replay_pump() {
  ConcurrentRuntime& rt = *concurrent_;
  if (!rt.spec_on || read_ahead_.dead) {
    release_read_ahead();
    return;
  }
  const std::size_t total = stream_->size();
  while (rt.dispatched_end < total) {
    const std::size_t chunk = std::min(rt.window, total - rt.dispatched_end);
    // Ring-slot safety: never let in-flight indices span more than `ring`
    // (a slot is reused only after its previous occupant was consumed).
    if (rt.dispatched_end + chunk - rt.next_consume > rt.ring) break;
    std::size_t actual = 0;
    for (; actual < chunk; ++actual) {
      const std::size_t idx = rt.dispatched_end + actual;
      if (!read_ahead_.fill(idx, *stream_)) break;
      const Transaction& tx = read_ahead_.at(idx);
      const std::uint32_t wid =
          static_cast<std::uint32_t>(tx.sender % rt.workers.size());
      rt.pending_tasks[wid].push_back(
          {idx, tx, payment_rng_seed(idx, 0)});
    }
    for (std::size_t wid = 0; wid < rt.workers.size(); ++wid) {
      auto& tasks = rt.pending_tasks[wid];
      if (tasks.empty()) continue;
      ConcurrentRuntime::Worker& w = rt.workers[wid];
      ConcurrentRuntime::SpecBatch batch;
      batch.id = ++w.batch_seq;
      batch.log_len = rt.log_size;
      batch.release_mark = w.release_mark;
      batch.tasks = std::move(tasks);
      tasks = {};
      for (const ConcurrentRuntime::SpecTask& t : batch.tasks) {
        rt.slot_batch[t.index % rt.ring] = batch.id;
        w.inflight.push_back(t.index);
      }
      ++w.outstanding;
      // May block transiently if the inbox is full, but never deadlocks:
      // completion pushes can't block (see the completion-queue sizing in
      // begin_replay), so the worker always drains its inbox.
      w.inbox->push(std::move(batch));
    }
    rt.dispatched_end += actual;
    if (actual < chunk) break;  // stream exhausted early
  }
  release_read_ahead();
}

std::size_t ScenarioEngine::replay_dispatch_end() const {
  const ConcurrentRuntime& rt = *concurrent_;
  return rt.spec_on ? rt.dispatched_end : SIZE_MAX;
}

RouteResult ScenarioEngine::replay_route(std::size_t tx_index,
                                         std::size_t attempt) {
  ConcurrentRuntime& rt = *concurrent_;
  const Transaction tx = pending_.at(tx_index).tx;
  const std::uint32_t wid =
      static_cast<std::uint32_t>(tx.sender % rt.workers.size());
  ConcurrentRuntime::Worker& w = rt.workers[wid];

  if (attempt == 0 && tx_index >= rt.next_consume) {
    rt.next_consume = tx_index + 1;
  }

  if (attempt == 0 && rt.spec_on && tx_index < rt.dispatched_end) {
    rt.wait_for_batch(w, rt.slot_batch[tx_index % rt.ring]);
    ConcurrentRuntime::Frame& f = rt.frames[tx_index % rt.ring];
    if (f.error) {
      rt.spec_on = false;
      std::rethrow_exception(f.error);
    }
    if (f.state == ConcurrentRuntime::Frame::State::kDone &&
        rt.frame_valid(f, wid)) {
      // Accept: the speculation read only current values, so its writes
      // are bit-for-bit the sequential engine's writes. Apply + publish.
      // Validation soundness implies every speculative pre-image equals
      // the live truth; a mismatch means silent divergence, so fail loud.
      for (std::size_t j = 0; j < f.write_edges.size(); ++j) {
        if (truth_.balance(f.write_edges[j]) != f.write_pre[j]) {
          throw std::logic_error(
              "concurrent engine: accepted speculation diverged from truth "
              "at edge " + std::to_string(f.write_edges[j]));
        }
        truth_.mirror_balance(f.write_edges[j], f.write_post[j]);
        rt.log_append(f.write_edges[j], wid, f.write_post[j]);
      }
      truth_.charge_messages(f.result.probe_messages);
      pending_.at(tx_index).started = f.spec_start;
      w.inflight.pop_front();  // == tx_index: consume order is index order
      w.release_mark = f.router_mark;
      f.state = ConcurrentRuntime::Frame::State::kEmpty;
      ++result_.spec_accepted;
      return f.result;
    }
    // Stale (or already rolled back): every later speculation of this
    // worker is layered above this one (mirror values and router undo
    // records), so discard them all and re-route inline.
    rt.wait_idle(w);
    rt.rollback_worker(w);
    ++result_.spec_rerouted;
    const RouteResult r = rt.inline_route(w, tx, tx_index, attempt);
    rt.redispatch_rolled_back(w, tx_index);
    return r;
  }

  // Retries, and arrivals past the speculation era: inline on the shard
  // router. In-flight speculations (if any) must go first — an inline
  // route's permanent router mutations may not interleave above their
  // undo marks.
  rt.wait_idle(w);
  rt.rollback_worker(w);
  const RouteResult r = rt.inline_route(w, tx, tx_index, attempt);
  rt.redispatch_rolled_back(w, tx_index);
  return r;
}

void ScenarioEngine::replay_quiesce(bool permanent) {
  ConcurrentRuntime& rt = *concurrent_;
  if (!rt.spec_on) return;
  rt.wait_all_idle();
  if (permanent) {
    // Speculated frames are abandoned un-applied; the routers and mirrors
    // are never consulted again on the accept path (post-churn arrivals
    // route through sender contexts). Lazy rollback_worker calls from
    // replay_route's inline path clean up any shard that still gets
    // pristine-path traffic (possible only if no channel actually closed).
    rt.spec_on = false;
    return;
  }
  for (ConcurrentRuntime::Worker& w : rt.workers) rt.rollback_worker(w);
}

void ScenarioEngine::replay_publish_all_edges() {
  ConcurrentRuntime& rt = *concurrent_;
  if (!rt.spec_on) return;
  const Graph& g = workload_->graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    rt.log_append(e, ConcurrentRuntime::kExternalSrc, truth_.balance(e));
  }
}

}  // namespace flash
