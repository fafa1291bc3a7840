// Dynamic scenario engine: churn, retries, and stale-view routing.
//
// run_simulation (simulator.h) replays payments against a static,
// perfectly-known network. Real offchain networks are nothing like that:
// channels open and close on-chain, topology knowledge spreads through
// gossip with delay, balances drift from background rebalancing, and
// wallets retry failed payments. The ScenarioEngine generalizes the
// simulator into an event-driven loop over timestamped events so those
// dynamics become measurable:
//
//   - *Transaction arrivals* with a configurable retry policy: a failed
//     payment is re-routed (with fresh probing) up to N more times after a
//     backoff delay, during which gossip and churn advance.
//   - *Channel churn*: closes arrive as a Poisson process over the open
//     channels; closed channels optionally reopen after an exponential
//     downtime with their initial deposits (a fresh on-chain funding).
//   - *Gossip propagation delay*: each churn event is announced by the
//     channel's endpoints and floods one hop per `hop_delay` time units
//     through the existing gossip::GossipNetwork.
//   - *Stale-view routing*: each sender routes with a router built over its
//     OWN gossip view (rebuilt lazily when the view changes, §3.3 "all
//     entries are re-computed using the latest G"), against a mirror ledger
//     synced from the live one — probes read live balances (probing is a
//     network operation), but path structure comes from the stale view, so
//     a closed channel the sender has not heard about yet still attracts
//     payments and fails them.
//   - *Background rebalancing*: periodic drift of every open channel's
//     balance split toward even (interval + strength configurable).
//
// Settlement always executes against the ground-truth ledger. With every
// dynamic knob at zero the engine degenerates to exactly run_simulation —
// one shared perfectly-informed router against the truth — and the results
// are pinned bit-identical by tests/scenario_test.cc.
//
// Memory model (Lightning-scale since the streaming refactor):
//   - Transactions arrive through a WorkloadStream and are scheduled
//     lazily, one staged arrival at a time: O(1) workload memory for
//     generated streams of any length (plus a bounded read-ahead while
//     replay dispatch or Yen prefetch looks ahead).
//   - Gossip views share one bootstrap baseline (see gossip/node_view.h):
//     O(channels) total, not O(nodes x channels).
//   - Per-sender routing state lives in a bounded LRU
//     (ScenarioConfig::max_sender_routers = K; 0 = unbounded). Under
//     incremental maintenance a sender keeps only its open mask, routing
//     table and RNG: all share one mirror ledger and the pristine router's
//     workspaces. A full rebuild keeps O(network) state per sender.
//   - Mirror ledgers resync from the truth via a change journal (O(edges
//     actually touched) per payment) instead of full O(network) sweeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "gossip/gossip.h"
#include "ledger/network_state.h"
#include "routing/router.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/sender_cache.h"
#include "sim/simulator.h"
#include "trace/workload.h"
#include "trace/workload_stream.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace flash {

/// Failed payments are re-routed up to `max_retries` more times, each
/// `delay` sim-time units after the previous failure. Plain value type.
struct RetryPolicy {
  std::size_t max_retries = 0;
  double delay = 1.0;
};

/// Channel open/close churn, sampled as a Poisson process. Plain value
/// type. One sim-time unit is one transaction inter-arrival for the
/// generated workloads (timestamps are 0, 1, 2, ...).
struct ChurnConfig {
  /// Expected channel closes per sim-time unit (0 disables churn).
  double close_rate = 0;
  /// Mean downtime before a closed channel reopens with its initial
  /// deposit (fresh funding). 0 = closed channels stay closed.
  double mean_downtime = 0;
  /// Seed of the churn/rebalance randomness stream, mixed with the run
  /// seed so dynamics are independent of workload randomness.
  std::uint64_t seed = 0xc4u;
};

/// Periodic background rebalancing: every `interval`, each open channel
/// moves `strength` of the distance between its current split and the even
/// split (channel totals are conserved). Plain value type.
struct RebalanceConfig {
  double interval = 0;  // 0 disables
  double strength = 0.5;
};

/// Gossip propagation timing. Plain value type.
struct GossipTiming {
  /// Sim-time per flooding hop. 0 = announcements reach every node
  /// instantly (views perfectly track the truth; no staleness).
  double hop_delay = 0;
};

/// Time-extended HTLC lifecycle (hold-time-lock-contract semantics).
///
/// With the default config (all zero) payments settle instantly inside the
/// route step, exactly as before — bit-identical, pinned by
/// tests/htlc_lifecycle_test.cc. When active(), a successful route no
/// longer settles instantly: the engine re-stages the router's holds as
/// per-hop HTLCs that lock forward hop by hop (one latency draw per edge),
/// settle by unwinding backward from the receiver, and unwind forward
/// hops on failure — so funds are locked for the full round trip and
/// LATER payments route against the reduced available balances. Each hop
/// locks its amount plus every downstream hop's fee, like Lightning's
/// onion amounts. Plain value type.
struct HtlcConfig {
  /// Mean one-hop forward/backward propagation delay in sim-time units
  /// (per-edge delays are drawn once, uniform in [0.5, 1.5] x this).
  /// 0 = instantaneous hops.
  double hop_latency = 0;
  /// Per-hop timelock decrement: hop k of an n-hop path expires
  /// (n - k) x delta after locking; an expired HTLC aborts the whole
  /// payment and refunds every still-locked hop. 0 = no expiry.
  double timelock_delta = 0;
  /// Sender's total timelock budget. With timelock_delta > 0 this caps
  /// route length at floor(budget / delta) hops, enforced inside ALL four
  /// routers (FlashOptions::max_route_hops) so no scheme can lock a path
  /// the sender's budget cannot cover. 0 = unlimited.
  double timelock_budget = 0;
  /// Fraction of nodes that grief by sitting on settle/fail relays
  /// (holding the HTLC instead of releasing it promptly).
  double holder_fraction = 0;
  /// How long a holder sits on each relay. 0 with holder_fraction > 0
  /// defaults to 0.8 x timelock_delta x path length — long enough to
  /// threaten expiry, the classic griefing attack.
  double holder_delay = 0;
  /// Pick holders among the highest-degree nodes (hub griefing) instead
  /// of uniformly.
  bool holders_prefer_hubs = false;
  /// Fraction of nodes that are offline: an offline forwarding node or
  /// receiver fails the payment in flight (discovered at forward time,
  /// not route time — routers do not know liveness).
  double offline_fraction = 0;
  /// Seed of the HTLC randomness stream (edge latencies, holder/offline
  /// draws), mixed with the run seed.
  std::uint64_t seed = 0x417cu;

  /// True when any time-extended dynamic is on. timelock_budget alone
  /// does not activate (it is only a route-length cap, which
  /// FlashOptions::max_route_hops already expresses).
  bool active() const noexcept {
    return hop_latency > 0 || timelock_delta > 0 || holder_fraction > 0 ||
           offline_fraction > 0;
  }
};

/// One scheduled channel close (deterministic fault injection): `channel`
/// closes at `close_time` and, when `reopen_after` > 0, reopens with its
/// initial deposit that much later. Plain value type.
struct ChannelFault {
  std::size_t channel = 0;
  double close_time = 0;
  double reopen_after = 0;
};

/// Deterministic, seed-driven adversarial fault injection. Three fault
/// families compose freely (each is off by default):
///
///   - *Coordinated hub outage*: the top `hub_count` nodes by approximate
///     betweenness centrality (32 BFS pivots) go offline (fail payments
///     in flight, like HtlcConfig::offline_fraction victims) for
///     [hub_outage_start, hub_outage_start + hub_outage_duration).
///   - *Regional close burst*: at `burst_time`, a BFS ball of up to
///     `burst_channels` open channels around a seeded center closes at
///     once (on-chain resolution for any in-flight HTLCs crossing them);
///     with burst_reopen_after > 0 they all reopen together.
///   - *Congestion collapse*: arrivals inside
///     [congestion_start, congestion_start + congestion_duration) are
///     time-compressed by `congestion_factor` (a factor-f arrival-rate
///     spike), later arrivals shift earlier by the saved time.
///
/// ScenarioResult gains per-fault counters plus degradation metrics
/// (success inside vs. after the fault window, recovery time). Plain value
/// type; inactive() configs are bit-identical to a no-FaultPlan run.
struct FaultPlan {
  /// Number of top-betweenness hub nodes to take offline (0 disables).
  std::size_t hub_count = 0;
  double hub_outage_start = 0;
  double hub_outage_duration = 0;

  /// Channels to close in the regional burst (0 disables).
  std::size_t burst_channels = 0;
  double burst_time = 0;
  /// Downtime before the burst's channels reopen together. 0 = they stay
  /// closed.
  double burst_reopen_after = 0;

  /// Congestion-collapse ramp: arrival-rate multiplier inside the window
  /// (1 disables; must be >= 1).
  double congestion_factor = 1;
  double congestion_start = 0;
  double congestion_duration = 0;

  /// Explicitly scheduled channel closes (deterministic reproduction of a
  /// specific fault trace; applied in addition to the burst).
  std::vector<ChannelFault> channel_faults;

  /// Seed of the fault randomness stream (hub tie-breaks, burst center),
  /// mixed with the run seed.
  std::uint64_t seed = 0xfa17u;

  bool active() const noexcept {
    return hub_count > 0 || burst_channels > 0 || congestion_factor > 1 ||
           !channel_faults.empty();
  }
};

/// How per-sender routers react to gossip view changes.
enum class RouterMaintenance : std::uint8_t {
  /// Reconstruct the sender's local graph, fees, mirror and router from
  /// scratch on every view change — O(network) per change. The oracle the
  /// differential fuzz harness pins the incremental modes against, and the
  /// path of schemes whose router cannot mask edges (SpeedyMurmurs).
  kFullRebuild,
  /// The default. Keep one engine-shared full-shape view graph and patch
  /// the sender's open-edge mask for the delta only, then drop ALL router
  /// caches and reseed — O(churned channels) per change, provably
  /// bit-identical to kFullRebuild for every scheme (masked search over
  /// the full-shape graph equals search over the compacted open subgraph;
  /// see docs/ARCHITECTURE.md "Incremental router maintenance").
  kIncrementalStrict,
  /// Patch the mask AND keep router caches, dropping only entries whose
  /// cached paths cross a closed channel; reopens leave entries
  /// stale-but-usable. Cheapest. Identical to the oracle for SP/Spider
  /// under closes-only churn; deterministic but not path-identical for
  /// Flash (dijkstra heap tie-breaks may differ from a fresh table — the
  /// PR 6-style documented caveat).
  kIncrementalLazy,
};

/// How the engine executes the payment stream (the concurrent payment
/// engine; see sim/concurrent.cc and docs/ARCHITECTURE.md).
enum class ScenarioExecution : std::uint8_t {
  /// The classic single-threaded event loop. Default.
  kSequential,
  /// Speculative parallel routing with logical-order settlement. Worker
  /// threads route payments ahead of time on mirror ledgers; the
  /// coordinator settles them in stream order, accepting a speculation iff
  /// every balance it read is still current and re-routing inline
  /// otherwise. Bit-identical (payment digest and all semantic counters)
  /// to kSequential with payment_indexed_rng on, at ANY worker count.
  kReplay,
};

/// Concurrent-engine knobs (used when execution != kSequential).
struct ConcurrencyConfig {
  ScenarioExecution execution = ScenarioExecution::kSequential;
  /// Worker threads; 0 = one per hardware thread. The replay speculation
  /// window is 8 payments per worker.
  std::size_t workers = 0;
};

/// Everything dynamic about a scenario. The default-constructed config has
/// every dynamic switched off and reproduces run_simulation bit-for-bit.
struct ScenarioConfig {
  RetryPolicy retry;
  ChurnConfig churn;
  RebalanceConfig rebalance;
  GossipTiming gossip;
  /// Time-extended HTLC lifecycle. Composes with churn, gossip staleness,
  /// and rebalancing (in-flight parts crossing a closed channel resolve
  /// on-chain and fail backward from the break point; rebalance sweeps
  /// skip escrowed channels). Still incompatible with kReplay execution
  /// (validated): it assumes instant settlement.
  HtlcConfig htlc;
  /// Deterministic adversarial fault injection (hub outages, close
  /// bursts, congestion ramps). Inactive by default.
  FaultPlan fault;
  /// Concurrent execution (see ScenarioExecution / sim/concurrent.cc).
  ConcurrencyConfig concurrency;
  /// Pin each route attempt's randomness to the payment's logical stream
  /// index (Router::begin_payment) instead of the router's running rng
  /// stream. Forced on by kReplay (its determinism argument needs route
  /// outcomes independent of which payments a router instance served
  /// before); off by default so sequential results stay bit-identical to
  /// the pinned historical streams. A sequential run with this on is the
  /// replay mode's equality oracle.
  bool payment_indexed_rng = false;
  /// Cap on live per-sender stale-view routers (LRU-evicted beyond; see
  /// sim/sender_cache.h). 0 = unbounded — one router per sender forever,
  /// the original behavior, bit-identical. Evicted senders rebuild on
  /// their next payment, so any K > 0 trades rebuild work for memory.
  std::size_t max_sender_routers = 0;
  /// View-change reaction (see RouterMaintenance). Defaults to strict
  /// incremental maintenance, bit-identical to the full rebuild; schemes
  /// whose router cannot mask edges (SpeedyMurmurs) silently fall back to
  /// the full rebuild.
  RouterMaintenance maintenance = RouterMaintenance::kIncrementalStrict;
};

/// Simulation metrics plus scenario-level counters.
struct ScenarioResult {
  /// Per-payment metrics; includes the dynamic counters (retries,
  /// retry_successes, stale_view_failures, time_to_success_total).
  SimResult sim;
  std::size_t channels_closed = 0;
  std::size_t channels_reopened = 0;
  std::size_t rebalance_events = 0;
  /// Flooding rounds and messages spent on churn announcements (bootstrap
  /// knowledge is seeded without messages and not counted).
  std::size_t gossip_rounds = 0;
  std::uint64_t gossip_messages = 0;
  /// Stale-view router (re)builds: one per sender whose view changed since
  /// its last payment (plus its first payment after churn begins, and one
  /// per cache-evicted sender's return). Under incremental maintenance
  /// only first builds and cache-evicted returns count here; view changes
  /// on live contexts land in router_patches instead.
  std::size_t router_rebuilds = 0;
  /// Incremental O(delta) view patches applied to live sender contexts
  /// (mask update + router delta) in place of full rebuilds.
  std::size_t router_patches = 0;
  /// Router cache entries dropped by those patches (affected-set
  /// invalidation in lazy mode; whole-cache clears in strict mode).
  std::size_t entries_invalidated = 0;
  /// Order-sensitive fold of every settled payment's outcome (success,
  /// amount delivered, fee, probe counts, attempt, settle time) in completion
  /// order, plus a final fold of the ground-truth ledger. Two runs agree
  /// on this iff they agree payment-for-payment and balance-for-balance —
  /// the differential fuzz harness's event-level equality pin.
  std::uint64_t payment_digest = 0;
  /// Sender-router cache traffic (see ScenarioConfig::max_sender_routers);
  /// all zero while the scenario stays pristine (no churn yet).
  std::uint64_t router_cache_hits = 0;
  std::uint64_t router_cache_misses = 0;
  std::uint64_t router_cache_evictions = 0;
  /// Sim-time at which the last payment settled or finally failed.
  double duration = 0;

  // --- HTLC lifecycle counters (all zero unless ScenarioConfig::htlc is
  // active; see HtlcConfig). ---

  /// Successful routes that entered the timed in-flight lifecycle (counts
  /// attempts, so a payment retried through the lifecycle counts once per
  /// in-flight attempt).
  std::size_t htlc_payments = 0;
  /// In-flight lock failures: a forward hop (or an escrow re-lock at the
  /// sender) found insufficient balance because CONCURRENT in-flight
  /// HTLCs hold the funds — the contention the instant-settlement model
  /// cannot express.
  std::size_t htlc_inflight_failures = 0;
  /// HTLCs that hit their timelock and were force-refunded.
  std::size_t htlc_expiries = 0;
  /// Payments failed by an offline forwarding node or receiver.
  std::size_t htlc_offline_failures = 0;
  /// Settle/fail relays a holder node sat on (griefing delay applied).
  std::size_t htlc_holder_delays = 0;
  /// Peak number of payments simultaneously in flight.
  std::size_t htlc_max_inflight = 0;

  // --- HTLC x dynamics counters (all zero unless htlc composes with
  // churn/rebalance/faults). ---

  /// Hops force-SETTLED on-chain by a channel close (the hold was already
  /// settling: its preimage is public, the downstream party claims).
  std::size_t htlc_onchain_settled_hops = 0;
  /// Hops force-REFUNDED on-chain by a channel close (no preimage yet:
  /// the HTLC output times out back to the sender side).
  std::size_t htlc_onchain_refunded_hops = 0;
  /// In-flight payments failed because a channel under one of their
  /// still-locked hops closed (break-point unwind).
  std::size_t htlc_break_failures = 0;
  /// Open channels a rebalance sweep left untouched because in-flight
  /// HTLC escrow locked part of their deposit.
  std::size_t rebalance_skipped_channels = 0;

  // --- Fault-injection counters and degradation metrics (all zero unless
  // ScenarioConfig::fault is active; see FaultPlan). ---

  /// Hub nodes actually taken offline by the coordinated outage.
  std::size_t fault_hub_outages = 0;
  /// Channels closed by the burst + scheduled channel faults (also
  /// counted in channels_closed).
  std::size_t fault_channel_closes = 0;
  /// Arrivals time-compressed by the congestion window.
  std::size_t fault_congestion_arrivals = 0;
  /// Payments that ARRIVED inside any fault window, and how many of them
  /// succeeded — the degradation numerator/denominator.
  std::size_t fault_window_payments = 0;
  std::size_t fault_window_successes = 0;
  /// Payments that arrived after the last fault window ended — the
  /// recovery numerator/denominator.
  std::size_t post_fault_payments = 0;
  std::size_t post_fault_successes = 0;
  /// Sim-time from the last fault window's end to the first post-window
  /// success (0 when no post-window payment succeeded).
  double fault_recovery_time = 0;

  // --- Wall-clock and concurrent-engine diagnostics (EXCLUDED from
  // payment_digest and from the replay-vs-sequential equality contract —
  // wall-clock latency and scheduling luck are not semantic). ---

  /// Wall-clock per-payment service latency (first route start to final
  /// settlement), summarized from a log-binned histogram
  /// (util/histogram.h). Recorded by every execution mode.
  struct LatencySummary {
    std::uint64_t count = 0;
    double mean_seconds = 0;
    double p50_seconds = 0;
    double p99_seconds = 0;
    double max_seconds = 0;
  };
  LatencySummary latency;
  /// SIM-TIME per-payment service latency under the HTLC lifecycle: first
  /// lock to final settle/refund, per in-flight attempt. Zero (count 0)
  /// unless ScenarioConfig::htlc is active — instant settlement has no
  /// sim-time extent. Unlike `latency` this is semantic and deterministic,
  /// but it stays out of payment_digest so the zero-config digest pin is
  /// unaffected.
  LatencySummary sim_latency;
  /// Worker threads the run actually used (1 for sequential).
  std::size_t workers_used = 1;
  /// Replay: speculative routes settled as-is / re-routed inline because a
  /// balance they read changed before their turn (zero for sequential).
  std::uint64_t spec_accepted = 0;
  std::uint64_t spec_rerouted = 0;
};

/// The event-driven scenario simulator. Single-use: construct, run() once,
/// read the result. NOT thread-safe — like routers, each concurrent run
/// owns its own engine (the sweep engine builds one per (cell, run)).
/// `workload` is borrowed and must outlive the engine.
///
/// Timeline semantics: payment i arrives at max(timestamp_i, previous
/// arrival) — arrival order is always the trace order, exactly like
/// run_simulation (all generated workloads already have non-decreasing
/// timestamps, so this is only a guard for odd external traces). Same-time
/// events execute in scheduling order.
class ScenarioEngine {
 public:
  /// Validates the config (throws std::invalid_argument on negative rates,
  /// delays, intervals, or strength outside [0, 1]). Payments replay the
  /// workload's materialized transaction vector.
  ScenarioEngine(const Workload& workload, Scheme scheme,
                 const FlashOptions& opts, const SimConfig& sim,
                 const ScenarioConfig& scenario, std::uint64_t seed);

  /// Streaming variant: payments come from `stream` (borrowed; must
  /// outlive the engine), consumed lazily one arrival at a time — O(1)
  /// workload memory regardless of stream length. `workload` supplies
  /// topology, balances, and fees and may carry an empty transaction
  /// vector; set SimConfig::class_threshold and
  /// FlashOptions::elephant_threshold explicitly in that case (an empty
  /// trace has no size quantiles).
  ScenarioEngine(const Workload& workload, WorkloadStream& stream,
                 Scheme scheme, const FlashOptions& opts,
                 const SimConfig& sim, const ScenarioConfig& scenario,
                 std::uint64_t seed);
  ~ScenarioEngine();

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  /// Runs every payment to settlement or final failure. Throws
  /// std::logic_error if the ledger invariant breaks (checked on the
  /// SimConfig::invariant_stride, against the ground truth).
  ScenarioResult run();

 private:
  // A ledger over a routing graph, made equal to the truth on every
  // routing edge before each route (sync_context) and written back after.
  struct Mirror {
    std::unique_ptr<NetworkState> ledger;
    std::vector<Amount> synced;  // truth balances at the last sync
    // truth_journal_ position replayed up to, valid for generation
    // journal_gen (0 = never synced: engine generations start at 1).
    std::size_t journal_pos = 0;
    std::uint64_t journal_gen = 0;
  };

  // The per-sender stale routing state: a router over the sender's view
  // and the mirror it routes against (its own, over its own materialized
  // view graph, under a full rebuild; view_mirror_ under incremental
  // maintenance). Heap-allocated so the Graph (and everything pointing
  // into it) has a stable address.
  struct SenderContext;

  /// Delegation target of both public constructors: a non-null
  /// `owned_stream` is adopted (vector ctor), otherwise the public stream
  /// ctor assigns the borrowed stream afterwards.
  ScenarioEngine(const Workload& workload, Scheme scheme,
                 const FlashOptions& opts, const SimConfig& sim,
                 const ScenarioConfig& scenario, std::uint64_t seed,
                 std::unique_ptr<WorkloadStream> owned_stream);

  enum class EventType : std::uint8_t {
    kArrival,    // a = transaction index
    kRetry,      // a = transaction index, b = attempt number (1-based)
    kClose,      // churn: close a random open channel, schedule the next
    kReopen,     // a = channel index
    kGossipHop,  // flood pending announcements one hop
    kRebalance,  // drift every open channel toward the even split
    // HTLC lifecycle events (a = part slot, b = generation<<kHopBits |
    // hop; stale generations are dropped — an aborted part orphans its
    // queued events instead of cancelling them).
    kHopForward,      // lock hop b at the part, or arrival when b == path size
    kSettleBackward,  // settle hop b and relay the preimage downstream
    kFailBackward,    // refund hop b and relay the error downstream
    kHtlcExpiry,      // timelock hit: force-refund the whole part
    // Fault-injection events (see FaultPlan).
    kHubOutageStart,  // top-k betweenness hubs go offline
    kHubOutageEnd,    // ... and come back
    kFaultBurst,      // regional close burst around a seeded center
    kFaultClose,      // a = index into cfg_.fault.channel_faults
  };
  struct Event {
    double time = 0;
    std::uint64_t seq = 0;  // FIFO tie-break: scheduling order
    EventType type = EventType::kArrival;
    std::size_t a = 0;
    std::size_t b = 0;
  };
  struct EventAfter {
    bool operator()(const Event& x, const Event& y) const {
      return x.time != y.time ? x.time > y.time : x.seq > y.seq;
    }
  };
  // Attempt bookkeeping for payments in flight (from arrival until final
  // settlement/failure). Carries the transaction itself: with a streaming
  // source there is no materialized vector to re-read it from on retries.
  struct PendingPayment {
    Transaction tx;
    std::uint64_t probe_messages = 0;
    std::uint32_t probes = 0;
    /// Wall-clock start of the first route attempt (replay backdates it to
    /// the speculation's route start). Feeds ScenarioResult::latency.
    std::chrono::steady_clock::time_point started{};
    /// Sim-time of the payment's arrival: classifies its final outcome
    /// into the fault-window / post-fault degradation buckets.
    double arrival_time = 0;
  };

  // --- HTLC lifecycle state (used only when cfg_.htlc.active()) ----------
  //
  // A *part* is one HTLC of a payment (one routed path, or one netted
  // elephant flow). Parts live in a recycled slot arena; every queued
  // event carries the slot's generation so freeing a slot orphans the
  // slot's outstanding events.

  enum class PartState : std::uint8_t {
    kForwarding,  // locking hops toward the receiver
    kArrived,     // reached the receiver, waiting for sibling parts (AMP)
    kSettling,    // unwinding backward, committing hop by hop
    kFailing,     // unwinding backward, refunding hop by hop
  };
  struct HtlcPart {
    std::uint64_t gen = 0;  // bumped on alloc AND free (event orphaning)
    bool in_use = false;
    bool flow = false;  // netted elephant flow: one aggregate timed phase
    bool flow_blocked = false;  // flow traverses an offline node
    PartState state = PartState::kForwarding;
    std::size_t tx_index = 0;
    HoldId hold = 0;
    std::vector<EdgeId> path;        // hop edges sender -> receiver
    std::vector<Amount> lock_amount; // escrow per hop (amount + dnstr fees)
    std::size_t hops_locked = 0;     // prefix of `path` currently locked
    std::size_t hop_count = 0;       // n (flows: equivalent path length)
    double unit_latency = 0;         // flows: one-way traverse time
  };
  // Per-payment in-flight bookkeeping (alive from begin_htlc until the
  // last part is done; keyed by transaction index like pending_).
  struct InFlight {
    std::size_t attempt = 0;
    std::size_t parts = 0;
    std::size_t arrived = 0;
    std::size_t done = 0;
    bool failed = false;
    double lock_start = 0;
    RouteResult route;  // the accepted route (reported iff not failed)
    std::vector<std::size_t> slots;
  };
  static constexpr std::size_t kHopBits = 20;

  void setup_htlc();
  void begin_htlc(std::size_t tx_index, std::size_t attempt,
                  const RouteResult& r);
  void begin_part(std::size_t tx_index, const Transaction& tx,
                  const std::vector<EdgeId>& edges,
                  const std::vector<Amount>& amounts);
  void conclude_attempt(std::size_t tx_index, std::size_t attempt,
                        const Transaction& tx, const RouteResult& r,
                        bool diverged);
  void handle_hop_forward(std::size_t slot, std::size_t enc);
  void handle_settle_backward(std::size_t slot, std::size_t enc);
  void handle_fail_backward(std::size_t slot, std::size_t enc);
  void handle_htlc_expiry(std::size_t slot, std::size_t enc);
  void start_settlement(std::size_t tx_index);
  void fail_htlc_payment(std::size_t tx_index);
  void begin_fail_unwind(std::size_t slot);
  void part_done(std::size_t slot);
  void conclude_htlc(std::size_t tx_index);
  /// Null if the (slot, encoded gen) pair no longer names a live part.
  HtlcPart* live_part(std::size_t slot, std::size_t enc);
  std::size_t alloc_part();
  void schedule_part(double delay, EventType type, std::size_t slot,
                     std::size_t hop);
  /// Griefing delay if `node` is a holder relaying for part `p` (counts
  /// the event), else 0.
  double relay_delay(NodeId node, const HtlcPart& p);
  void note_sim_latency(double t);

  void schedule(double time, EventType type, std::size_t a = 0,
                std::size_t b = 0);
  void stage_next_arrival();
  /// Drops read-ahead entries every cursor has passed: staging, and replay
  /// dispatch while it is live.
  void release_read_ahead();

  // --- Yen prefetch (sequential execution) -------------------------------
  //
  // The engine shows each payment to a prefetching router a few arrivals
  // before it routes, through Router::prefetch, so a Flash router's
  // helpers can run the mice table's Yen ahead of the arrival cursor. In
  // the pristine era that router is base_router_. From the first close,
  // incremental maintenance hints view_prefetcher_ instead, under the
  // sender's current view mask (again if that view changes before the
  // payment routes), and every stale-view router borrows its helpers.
  // Exact because a request is adopted only under a byte-equal
  // mask over the same immutable graph; see docs/ARCHITECTURE.md "Yen
  // prefetch".

  /// Payments hinted ahead of the staged arrival in the pristine era.
  static constexpr std::size_t kPrefetchDepth = 1024;
  /// Payments hinted ahead after the first close. A payment whose
  /// sender's view changes before it routes is hinted again, so depth
  /// trades lead time against helper work spent on masks that go stale.
  /// On perfbench churn-gossip (seeds 1102 / 1106, 4-vCPU Xeon VM, one
  /// run each) depths 4, 8 and 16 gave p50 173 / 131, 111 / 94 and
  /// 83 / 62 us, p99 2,588 / 2,154, 2,692 / 2,408 and 3,048 / 3,043 us,
  /// and 2,186 / 2,589, 2,400 / 2,542 and 2,407 / 2,584 pay/s.
  static constexpr std::size_t kViewPrefetchDepth = 8;
  /// Starts the pristine router's prefetch on one helper per CPU the
  /// process may run on (ThreadPool::hardware_threads()), none on a single
  /// CPU: the plain path then runs unchanged. The engine thread gets no
  /// CPU of its own, since it spends most of the run waiting on helpers.
  void start_prefetch();
  /// Hints every payment up to the era's depth past the staging cursor.
  /// After the first close it first hints again every hinted payment
  /// whose sender's view changed since its hint.
  void prefetch_ahead();
  /// Hints stream payment `idx` to view_prefetcher_ under its sender's
  /// current view mask and records that view's version.
  void hint_view(std::size_t idx);
  /// Ends the current era's prefetch: the prefetching router cancels its
  /// queue and joins its helpers. Idempotent.
  void stop_prefetch();
  /// The first close: ends the pristine era, builds the view graph for
  /// incremental maintenance and starts its prefetch.
  void end_pristine_era();
  /// Builds view_graph_, view_fees_, the edge maps and view_mirror_.
  void build_view_graph();
  /// A stale-view router over view_graph_ (incremental maintenance).
  std::unique_ptr<Router> make_view_router(std::uint64_t seed) const;
  /// Sets `mask` (one flag per view_graph_ edge) to `sender`'s gossip
  /// view: open unless a churned channel is unknown to the view.
  void fill_view_mask(NodeId sender, std::vector<unsigned char>& mask) const;
  void attempt_payment(std::size_t tx_index, std::size_t attempt);
  /// Stages the router's holds (abort on `ledger`, remember edges/amounts
  /// in staged_edges_/staged_amounts_, translating view edges to physical
  /// through `to_phys` when routing happened on a mirror) for begin_htlc
  /// to re-lock hop by hop on the truth.
  void stage_htlc_parts(NetworkState& ledger,
                        const std::vector<EdgeId>* to_phys);
  void finish_payment(const Transaction& tx, const RouteResult& final_attempt,
                      std::size_t attempt, const PendingPayment& totals);
  void handle_close();
  /// Closes channel `c` now (ledger zeroing, on-chain HTLC resolution,
  /// open bookkeeping, gossip announcement). False if already closed.
  bool close_channel_now(std::size_t c);
  /// Forces every in-flight HTLC hop crossing `channel` to its on-chain
  /// resolution and fails the affected payments backward from the break
  /// point (see docs/ARCHITECTURE.md "HTLC x dynamics").
  void resolve_htlcs_on_close(std::size_t channel);
  /// Replays the truth ledger's change journal into the mirror-sync
  /// journal (HTLC hop events write the truth between payments; without
  /// this, stale mirrors would miss those writes).
  void drain_truth_log();
  void handle_reopen(std::size_t channel);
  void handle_hub_outage(bool start);
  void handle_fault_burst();
  void handle_fault_close(std::size_t index);
  /// Registers [start, end) as a fault window for the degradation
  /// metrics.
  void note_fault_window(double start, double end);
  void handle_gossip_hop();
  void handle_rebalance();
  void flush_gossip_or_schedule_hop();
  SenderContext& context_for(NodeId sender);
  void rebuild_context(SenderContext& ctx, NodeId sender);
  void build_incremental_context(SenderContext& ctx, NodeId sender);
  void patch_context(SenderContext& ctx, NodeId sender);
  std::uint64_t context_router_seed(NodeId sender) const;
  void sync_context(SenderContext& ctx);
  void record_truth_change(EdgeId physical_edge);
  bool view_diverged(SenderContext& ctx, NodeId sender);
  void check_invariants_if_due();

  // --- Concurrent execution (defined in sim/concurrent.cc) ---------------
  //
  // ConcurrentRuntime owns the worker pool, per-worker routers/mirrors,
  // the speculation frame ring, and the truth-write replay log. The
  // sequential event loop stays the single source of ordering truth:
  // replay mode only swaps the route step of pristine first attempts for
  // "consume the speculation frame (or re-route inline)".

  struct ConcurrentRuntime;
  /// Out-of-line deleter (sim/concurrent.cc) so TUs that construct or
  /// destroy a ScenarioEngine need not see ConcurrentRuntime's definition.
  struct ConcurrentRuntimeDeleter {
    void operator()(ConcurrentRuntime* rt) const;
  };
  /// Spawns workers and pre-dispatch state for kReplay; forces
  /// payment_indexed_rng on.
  void begin_replay();
  /// Drains and joins the replay pipeline (idempotent; dtor-safe).
  void end_replay();
  /// Dispatches further speculation batches while the window has room.
  void replay_pump();
  /// Route step under replay: consume the frame for (tx_index, attempt 0)
  /// if its readset is still current, otherwise re-route inline on the
  /// owning worker's router. Retries always route inline.
  RouteResult replay_route(std::size_t tx_index, std::size_t attempt);
  /// Parks the pipeline: permanent on churn (speculation ends for good;
  /// the non-pristine stale-view path takes over), temporary around a
  /// rebalance (all in-flight speculations are rolled back and re-routed).
  void replay_quiesce(bool permanent);
  /// After a rebalance rewrote the truth wholesale: publishes every edge
  /// through the replay log so worker mirrors converge on their next sync.
  void replay_publish_all_edges();
  /// Read-ahead entries from this stream index on are still needed by
  /// replay dispatch (no limit once dispatch is over).
  std::size_t replay_dispatch_end() const;
  /// Per-(payment index, attempt) rng seed for Router::begin_payment.
  std::uint64_t payment_rng_seed(std::size_t tx_index,
                                 std::size_t attempt) const;
  void note_latency(double seconds);
  void finalize_latency();

  const Workload* workload_;
  WorkloadStream* stream_;                        // arrival source
  std::unique_ptr<WorkloadStream> owned_stream_;  // vector-ctor adapter
  Scheme scheme_;
  FlashOptions opts_;
  SimConfig sim_;
  ScenarioConfig cfg_;
  std::uint64_t seed_;

  NetworkState truth_;
  std::vector<Amount> initial_balance_;  // scaled; reopen deposits
  Amount class_threshold_ = 0;           // mice/elephant metric split
  Amount elephant_threshold_ = 0;        // Flash classification
  // Pristine-mode shared router; after the first close it routes nothing
  // and lends its workspaces to every incremental context (outlives them).
  std::unique_ptr<Router> base_router_;

  gossip::GossipNetwork gossip_;
  std::vector<std::uint64_t> channel_seq_;   // per-channel announcement seq
  std::vector<char> open_;                   // truth open flag per channel
  std::vector<std::size_t> open_list_;       // open channels (unordered)
  // Truth channels sorted ascending by their normalized (u, v) pair — the
  // exact order NodeView::for_each_open emits — so rebuild_context maps
  // view channels to truth channels with one merge cursor instead of a
  // hash lookup per channel per rebuild. Built once per engine.
  std::vector<std::pair<NodeId, NodeId>> sorted_pairs_;
  std::vector<std::size_t> sorted_channels_;
  std::uint64_t truth_version_ = 0;          // bumped per churn event
  bool pristine_ = true;                     // no churn happened yet
  bool hop_scheduled_ = false;
  Rng dyn_rng_;

  // Truth-ledger change journal: every post-pristine balance write to the
  // truth (mirror-backs, closes, reopens) appends the edge here, so sender
  // mirrors resync by replaying only the suffix they have not seen
  // (SenderContext::journal_pos). A full rewrite (rebalance drift) or a
  // journal grown past ~4x the edge count bumps the generation instead,
  // forcing affected mirrors through one full resync.
  std::vector<EdgeId> truth_journal_;
  std::uint64_t journal_gen_ = 1;
  // Channels that ever churned — the only ones a view can disagree with
  // the truth about (bootstrap seeds every view open; see view_diverged).
  std::vector<char> ever_churned_;
  std::vector<std::size_t> churned_list_;

  // Incremental maintenance (cfg_.maintenance != kFullRebuild and the
  // scheme's router supports masking): every sender's view is a subset of
  // the truth channel set, so all senders share ONE immutable full-shape
  // "view graph" (every truth channel, added in the sorted (u, v) order
  // for_each_open emits) with per-sender open-edge masks. The fee schedule
  // and the view-edge <-> truth-edge maps are identical across senders and
  // shared too, and so is the mirror, which equals the truth at every
  // route (docs/ARCHITECTURE.md, "Incremental router maintenance").
  // Per-sender state shrinks to mask + router. All of it is built at the
  // first close (build_view_graph).
  bool incremental_ = false;
  Graph view_graph_;
  FeeSchedule view_fees_;
  std::vector<EdgeId> view_to_physical_;          // view edge -> truth edge
  std::vector<std::uint32_t> view_phys_to_local_; // truth edge -> view edge+1
  std::vector<std::size_t> truth_to_view_channel_;
  Mirror view_mirror_;
  std::vector<EdgeId> closed_buf_, reopened_buf_; // patch delta scratch
  // Created once, at the first close (sequential execution, incremental
  // Flash maintenance, >= 2 hardware threads): a router over view_graph_
  // that routes nothing. It owns the stale era's Yen helpers, which every
  // stale-view router borrows, and the engine hints it under hint_mask_.
  // Declared before contexts_ so the borrowers are destroyed first.
  std::unique_ptr<Router> view_prefetcher_;
  std::vector<unsigned char> hint_mask_;
  // Sender view version each hinted payment was hinted under, by stream
  // index mod kViewPrefetchDepth (the hint window is never longer).
  std::vector<std::uint64_t> hint_version_;

  SenderRouterCache contexts_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::uint64_t event_seq_ = 0;
  std::unordered_map<std::size_t, PendingPayment> pending_;

  // Stream read-ahead shared by arrival staging, replay dispatch and Yen
  // prefetch: stream transactions [base, base + buf.size()), read but not
  // yet released by every cursor. Staging alone keeps it at depth 0 (one
  // entry in, one out), so streamed runs without read-ahead stay O(1).
  struct ReadAhead {
    std::deque<Transaction> buf;
    std::size_t base = 0;
    bool dead = false;  // the stream ended earlier than advertised
    /// Reads the stream through index `idx`; false if it ended first.
    bool fill(std::size_t idx, WorkloadStream& stream);
    const Transaction& at(std::size_t idx) const { return buf[idx - base]; }
    /// Releases every entry below stream index `keep`.
    void release(std::size_t keep);
  };
  ReadAhead read_ahead_;
  Router* prefetch_router_ = nullptr;  // hinted while prefetch runs
  std::size_t prefetch_end_ = 0;       // next stream index to hint
  std::size_t next_arrival_ = 0;      // index of the next stream payment
  double prev_arrival_time_ = 0;      // arrival-time monotonicity clamp
  Transaction staged_tx_;             // payment of the staged arrival event
  std::size_t outstanding_ = 0;  // payments not yet settled/failed
  std::size_t completed_ = 0;    // drives the invariant stride
  double now_ = 0;
  std::vector<Amount> drift_buf_;
  ScenarioResult result_;
  bool ran_ = false;

  // Concurrent execution (null unless cfg_.concurrency selects kReplay).
  std::unique_ptr<ConcurrentRuntime, ConcurrentRuntimeDeleter> concurrent_;
  LogHistogram latency_hist_{1e-8, 1e3, 8};
  double latency_sum_ = 0;
  double latency_max_ = 0;

  // --- Fault injection (see FaultPlan; all empty when inactive) ----------
  Rng fault_rng_;
  std::vector<NodeId> fault_hubs_;          // top-k betweenness targets
  std::vector<char> hub_offline_saved_;     // pre-outage node_offline_ bits
  std::vector<std::pair<double, double>> fault_windows_;  // [start, end)
  double fault_window_end_ = 0;  // max end over all windows
  bool recovery_noted_ = false;
  std::vector<char> held_buf_;  // rebalance escrow-skip scratch

  // --- HTLC lifecycle (see setup_htlc; all empty when inactive) ----------
  bool htlc_active_ = false;
  bool closes_possible_ = false;  // churn or fault plan can close channels
  bool track_htlc_truth_ = false;  // drain truth change log for mirrors
  std::vector<std::vector<EdgeId>> staged_edges_;  // stage_htlc_parts
  std::vector<std::vector<Amount>> staged_amounts_;  // scratch, per part
  std::vector<std::pair<std::size_t, std::size_t>> close_hits_;  // slot, hop
  std::vector<double> edge_latency_;  // per truth edge, drawn once
  std::vector<char> node_offline_;
  std::vector<char> node_holder_;
  std::vector<HtlcPart> parts_;
  std::vector<std::size_t> free_parts_;
  std::unordered_map<std::size_t, InFlight> inflight_;
  std::vector<HoldId> deferred_buf_;  // take_deferred_commits scratch
  std::size_t htlc_open_holds_ = 0;   // live HTLC holds on the truth
  LogHistogram sim_latency_hist_{1e-6, 1e9, 4};
  double sim_latency_sum_ = 0;
  double sim_latency_max_ = 0;
};

/// Convenience wrapper: builds a ScenarioEngine and runs it. Seeding
/// matches the sweep engine: `seed` drives the router exactly as
/// make_router does in run_series/run_sweep, so a zero-dynamics scenario
/// reproduces the corresponding run_simulation run bit-identically.
/// Thread-compatible under the sweep engine's rules: concurrent calls must
/// not share the workload.
ScenarioResult run_scenario(const Workload& workload, Scheme scheme,
                            const FlashOptions& opts, const SimConfig& sim,
                            const ScenarioConfig& scenario,
                            std::uint64_t seed);

}  // namespace flash
