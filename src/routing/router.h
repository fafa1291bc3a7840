// Router interface shared by Flash and the three baselines.
//
// A router processes one payment at a time against the live ledger
// (NetworkState), exactly as in the paper's simulation where "payments
// arrive at senders sequentially" (§4.1). Routers learn balances only
// through NetworkState's probing interface, which meters probe messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "ledger/network_state.h"
#include "trace/transaction.h"

namespace flash {

/// Per-payment outcome.
struct RouteResult {
  bool success = false;
  /// Amount delivered end-to-end: tx.amount on success, 0 on failure
  /// (payments are atomic — partial delivery never settles, §3.1).
  Amount delivered = 0;
  /// Total transaction fees that the delivered payment incurs.
  Amount fee = 0;
  /// Probe messages this payment consumed (delta of the ledger's meter).
  std::uint64_t probe_messages = 0;
  /// Number of path probes issued.
  std::uint32_t probes = 0;
  /// Paths that carried a positive amount.
  std::uint32_t paths_used = 0;
  /// Set by Flash: whether the payment was classified as an elephant.
  bool elephant = false;
};

class Router {
 public:
  virtual ~Router() = default;

  /// Routes one payment, settling it against `state` on success.
  virtual RouteResult route(const Transaction& tx, NetworkState& state) = 0;

  /// Scheme name as used in the paper's figures ("Flash", "Spider", ...).
  virtual std::string name() const = 0;

  /// Invalidates any cached paths/coordinates after a topology change
  /// (the paper's routing tables are refreshed when the gossiped topology
  /// updates, §3.3).
  virtual void on_topology_update() {}

  // --- Incremental maintenance (scenario engine; see sim/scenario.h) ---
  //
  // A router that supports it is constructed over a FIXED full-shape graph
  // whose closed channels are masked out via set_open_mask: mask[e] != 0
  // means directed edge e is currently traversable. Search cores skip
  // masked edges, so the router behaves exactly as if built over the
  // subgraph of open channels, without ever rebuilding the CSR. On a view
  // change the owner updates the mask and calls apply_topology_delta with
  // the flipped channels instead of reconstructing the router.

  /// Whether this router honors set_open_mask/apply_topology_delta.
  /// Routers that return false (e.g. SpeedyMurmurs, whose embeddings are
  /// baked from the raw adjacency) must be fully rebuilt on view changes.
  virtual bool supports_incremental_maintenance() const { return false; }

  /// Installs (or clears, with nullptr) the per-directed-edge open mask.
  /// Borrowed: the caller keeps it alive and in sync with the topology.
  virtual void set_open_mask(const unsigned char* /*mask*/) {}

  /// Reacts to a mask delta. `closed`/`reopened` hold the forward edge ids
  /// of channels that flipped since the last call (the mask is already
  /// updated). `strict` drops every cached entry — bit-identical to a
  /// freshly built router; otherwise only entries whose cached paths
  /// traverse a now-closed edge are dropped (Ramalingam-Reps-style
  /// affected set) and reopens leave entries stale-but-usable. Returns the
  /// number of invalidated cache entries.
  virtual std::size_t apply_topology_delta(std::span<const EdgeId> /*closed*/,
                                           std::span<const EdgeId> /*reopened*/,
                                           bool /*strict*/) {
    on_topology_update();
    return 0;
  }

  /// Re-derives the router's internal randomness exactly as constructing
  /// it through make_router(..., seed) would. No-op for deterministic
  /// routers. Lets a patched router match a freshly built one stream-for-
  /// stream (the scenario engine reseeds per (sender, view version)).
  virtual void reseed(std::uint64_t /*seed*/) {}

  // --- Lookahead prefetch (sequential scenario engine) -------------------
  //
  // The engine can show a router the payments it will route next. A router
  // may precompute topology-only state for them on background threads, as
  // long as every route() result stays bit-identical to running without
  // the hints. Routers with nothing to precompute override nothing, and
  // the engine then reads no arrivals ahead.

  /// Starts precomputing hinted payments on `helpers` background threads.
  /// Returns whether prefetch is running (default: never).
  virtual bool start_prefetch(std::size_t /*helpers*/) { return false; }
  /// Hint: `tx` will be routed soon (in hint order). No-op by default.
  virtual void prefetch(const Transaction& /*tx*/) {}
  /// Cancels pending precomputation and joins the helper threads; no
  /// helper outlives this call. Idempotent.
  virtual void stop_prefetch() {}

  // --- Speculative routing (concurrent engine; see sim/concurrent.cc) ---
  //
  // The concurrent engine routes payments optimistically on worker threads
  // and needs two guarantees from a router: (a) per-payment randomness can
  // be pinned to the payment's logical stream index, so a route's outcome
  // does not depend on which payments this router instance happened to
  // serve before it; (b) a route can be *undone* — every balance-dependent
  // internal mutation restored — when the speculation is discarded. Pure
  // topology-derived caches (SP/Spider per-pair paths, Yen inserts) may
  // persist across an undo: recomputing them yields identical values.
  // Deterministic, cache-stable routers override nothing.

  /// Pins the randomness of the NEXT route() call to `seed` (derived from
  /// the payment's logical index). No-op for rng-free routers.
  virtual void begin_payment(std::uint64_t /*seed*/) {}

  /// Arms undo journaling and returns a token for the current
  /// balance-dependent state.
  virtual std::uint64_t speculation_mark() { return 0; }
  /// Restores the state captured at `mark`, undoing every route() since.
  virtual void speculation_rollback(std::uint64_t /*mark*/) {}
  /// Declares routes up to `mark` permanent; their journal space is freed.
  virtual void speculation_release(std::uint64_t /*mark*/) {}
};

}  // namespace flash
