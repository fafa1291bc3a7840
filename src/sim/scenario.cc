#include "sim/scenario.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/topology.h"
#include "util/thread_pool.h"

namespace flash {

// The per-sender stale routing state (see scenario.h). In full-rebuild
// (oracle) mode `local` is the sender's materialized gossip view and
// `to_physical` maps each local directed edge to the corresponding
// ground-truth edge (orientation preserved). In incremental mode the
// routing surface is the engine's shared full-shape view graph and mirror
// instead, and the per-sender state shrinks to an open-edge mask and the
// router; `graph`/`to_phys`/`phys_map`/`mirror` point at whichever of the
// two applies.
struct ScenarioEngine::SenderContext : SenderCacheable {
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  std::uint64_t view_version = kNever;
  // Oracle-mode storage (unused by incremental contexts).
  Graph local;
  FeeSchedule fees;
  std::vector<EdgeId> to_physical;
  // Inverse of to_physical: physical edge -> local edge + 1 (0 = not in
  // this sender's view). Lets journal replay translate truth changes.
  std::vector<std::uint32_t> phys_to_local;
  Mirror own_mirror;
  // Routing surface selectors: the oracle-mode storage above, or the
  // engine's shared view-graph members in incremental mode.
  const Graph* graph = nullptr;
  const std::vector<EdgeId>* to_phys = nullptr;
  const std::vector<std::uint32_t>* phys_map = nullptr;
  Mirror* mirror = nullptr;
  // Incremental mode: per-directed-edge open flags over the shared graph.
  std::vector<unsigned char> open_mask;
  // Set when a cache eviction recycles this slot for a different sender:
  // the mask and router caches belong to someone else, so the next use
  // must rebuild them from the new sender's view — never patch.
  bool recycled = false;
  std::unique_ptr<Router> router;
  // view_diverged memo, valid for one (truth, view) version pair.
  std::uint64_t div_truth_version = kNever;
  std::uint64_t div_view_version = kNever;
  bool divergent = false;
};

namespace {

/// Order-sensitive 64-bit fold (boost-style hash combine) driving
/// ScenarioResult::payment_digest.
inline void fold64(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

/// Yen prefetch helpers: one per CPU this process may run on, none on a
/// single CPU (the engine thread then routes every payment inline). The
/// engine thread needs no CPU of its own: it spends most of a prefetched
/// run waiting on the helpers' Yen.
std::size_t prefetch_helpers() {
  const std::size_t cpus = ThreadPool::hardware_threads();
  return cpus > 1 ? cpus : 0;
}

/// BFS pivots sampled for the hub outage's approximate betweenness ranking
/// (graph/topology.h approx_betweenness).
constexpr std::size_t kHubBetweennessSamples = 32;

// Every rejection names the offending field AND the remedy: what to set
// (or unset) to get a valid config. tests/htlc_lifecycle_test.cc asserts
// both halves of every message.
void validate(const ScenarioConfig& cfg) {
  if (cfg.retry.delay < 0) {
    throw std::invalid_argument(
        "scenario: retry.delay must be >= 0 - set 0 for immediate retries");
  }
  if (cfg.churn.close_rate < 0) {
    throw std::invalid_argument(
        "scenario: churn.close_rate must be >= 0 - set 0 to disable churn");
  }
  if (cfg.churn.mean_downtime < 0) {
    throw std::invalid_argument(
        "scenario: churn.mean_downtime must be >= 0 - set 0 to keep closed "
        "channels closed");
  }
  if (cfg.rebalance.interval < 0) {
    throw std::invalid_argument(
        "scenario: rebalance.interval must be >= 0 - set 0 to disable "
        "rebalancing");
  }
  if (cfg.rebalance.strength < 0 || cfg.rebalance.strength > 1) {
    throw std::invalid_argument(
        "scenario: rebalance.strength must be in [0, 1] - 0 leaves splits "
        "alone, 1 jumps straight to the even split");
  }
  if (cfg.gossip.hop_delay < 0) {
    throw std::invalid_argument(
        "scenario: gossip.hop_delay must be >= 0 - set 0 for instant "
        "propagation");
  }
  if (cfg.htlc.hop_latency < 0 || cfg.htlc.timelock_delta < 0 ||
      cfg.htlc.timelock_budget < 0 || cfg.htlc.holder_delay < 0) {
    throw std::invalid_argument(
        "scenario: htlc.hop_latency, timelock_delta, timelock_budget and "
        "holder_delay must all be >= 0 - set 0 to disable each");
  }
  if (cfg.htlc.holder_fraction < 0 || cfg.htlc.holder_fraction > 1 ||
      cfg.htlc.offline_fraction < 0 || cfg.htlc.offline_fraction > 1) {
    throw std::invalid_argument(
        "scenario: htlc.holder_fraction and offline_fraction must be in "
        "[0, 1] - set 0 to disable each");
  }
  if (cfg.htlc.timelock_budget > 0 && cfg.htlc.timelock_delta <= 0) {
    throw std::invalid_argument(
        "scenario: htlc.timelock_budget needs timelock_delta > 0 to "
        "convert to a hop cap - set timelock_delta, or cap hops directly "
        "with FlashOptions::max_route_hops");
  }
  if (cfg.htlc.active() &&
      cfg.concurrency.execution != ScenarioExecution::kSequential) {
    // Replay's determinism argument assumes settlement happens inside the
    // route step, never between events.
    throw std::invalid_argument(
        "scenario: the HTLC lifecycle requires sequential execution - set "
        "concurrency.execution = kSequential");
  }
  const FaultPlan& f = cfg.fault;
  if (f.hub_outage_start < 0 || f.hub_outage_duration < 0) {
    throw std::invalid_argument(
        "scenario: fault.hub_outage_start and hub_outage_duration must be "
        ">= 0 - set both 0 (with hub_count = 0) to disable the outage");
  }
  if (f.hub_count > 0 && f.hub_outage_duration <= 0) {
    throw std::invalid_argument(
        "scenario: fault.hub_count > 0 needs hub_outage_duration > 0 - set "
        "a window length, or set hub_count = 0");
  }
  if (f.hub_count > 0 && !cfg.htlc.active()) {
    throw std::invalid_argument(
        "scenario: hub outages fail payments in flight, which needs the "
        "timed HTLC lifecycle - set htlc.hop_latency > 0 (or another "
        "active htlc knob), or set fault.hub_count = 0");
  }
  if (f.burst_time < 0 || f.burst_reopen_after < 0) {
    throw std::invalid_argument(
        "scenario: fault.burst_time and burst_reopen_after must be >= 0 - "
        "set both 0 (with burst_channels = 0) to disable the burst");
  }
  if (f.congestion_factor < 1) {
    throw std::invalid_argument(
        "scenario: fault.congestion_factor must be >= 1 - set 1 to disable "
        "the congestion ramp");
  }
  if (f.congestion_start < 0 || f.congestion_duration < 0) {
    throw std::invalid_argument(
        "scenario: fault.congestion_start and congestion_duration must be "
        ">= 0 - set both 0 (with congestion_factor = 1) to disable the "
        "ramp");
  }
  if (f.congestion_factor > 1 && f.congestion_duration <= 0) {
    throw std::invalid_argument(
        "scenario: fault.congestion_factor > 1 needs congestion_duration > "
        "0 - set a window length, or set congestion_factor = 1");
  }
  for (const ChannelFault& cf : f.channel_faults) {
    if (cf.close_time < 0 || cf.reopen_after < 0) {
      throw std::invalid_argument(
          "scenario: fault.channel_faults times (close_time, reopen_after) "
          "must be >= 0 - drop the entry or fix its times");
    }
  }
}

}  // namespace

ScenarioEngine::ScenarioEngine(const Workload& workload, Scheme scheme,
                               const FlashOptions& opts, const SimConfig& sim,
                               const ScenarioConfig& scenario,
                               std::uint64_t seed)
    : ScenarioEngine(workload, scheme, opts, sim, scenario, seed,
                     std::make_unique<VectorWorkloadStream>(
                         workload.transactions())) {}

ScenarioEngine::ScenarioEngine(const Workload& workload,
                               WorkloadStream& stream, Scheme scheme,
                               const FlashOptions& opts, const SimConfig& sim,
                               const ScenarioConfig& scenario,
                               std::uint64_t seed)
    : ScenarioEngine(workload, scheme, opts, sim, scenario, seed, nullptr) {
  stream_ = &stream;
}

ScenarioEngine::ScenarioEngine(const Workload& workload, Scheme scheme,
                               const FlashOptions& opts, const SimConfig& sim,
                               const ScenarioConfig& scenario,
                               std::uint64_t seed,
                               std::unique_ptr<WorkloadStream> owned_stream)
    : workload_(&workload),
      stream_(owned_stream.get()),
      owned_stream_(std::move(owned_stream)),
      scheme_(scheme),
      opts_(opts),
      sim_(sim),
      cfg_(scenario),
      seed_(seed),
      truth_(workload.make_state(sim.capacity_scale)),
      gossip_(workload.graph()),
      dyn_rng_(0),
      contexts_(scenario.max_sender_routers) {
  validate(cfg_);
  const Graph& g = workload.graph();

  initial_balance_.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    initial_balance_[e] = truth_.balance(e);
  }
  class_threshold_ = sim_.class_threshold > 0 ? sim_.class_threshold
                                              : workload.size_quantile(0.9);
  elephant_threshold_ = opts_.elephant_threshold > 0
                            ? opts_.elephant_threshold
                            : workload.size_quantile(opts_.mice_quantile);
  // HTLC setup must precede router construction: the timelock budget
  // tightens opts_.max_route_hops, which every scheme's router bakes in.
  setup_htlc();
  // The pristine-mode router: exactly the router run_simulation would use
  // (same construction, same seed), so the zero-dynamics scenario is
  // bit-identical to the static path.
  base_router_ = make_router(scheme_, workload, opts_, seed_);

  channel_seq_.assign(g.num_channels(), 1);  // seq 1 = bootstrap open
  open_.assign(g.num_channels(), 1);
  ever_churned_.assign(g.num_channels(), 0);
  open_list_.resize(g.num_channels());
  for (std::size_t c = 0; c < g.num_channels(); ++c) open_list_[c] = c;

  // Channels sorted by normalized pair — the order for_each_open emits —
  // so view-channel -> truth-channel mapping is one merge cursor per
  // rebuild instead of a hash lookup per channel (the old channel_index_).
  {
    std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> order;
    order.reserve(g.num_channels());
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      const EdgeId fe = g.channel_forward_edge(c);
      const NodeId u = std::min(g.from(fe), g.to(fe));
      const NodeId v = std::max(g.from(fe), g.to(fe));
      order.emplace_back(std::pair<NodeId, NodeId>{u, v}, c);
    }
    std::sort(order.begin(), order.end());
    truth_to_view_channel_.assign(g.num_channels(), 0);
    sorted_pairs_.reserve(order.size());
    sorted_channels_.reserve(order.size());
    for (const auto& [pair, c] : order) {
      if (sorted_pairs_.empty() || sorted_pairs_.back() != pair) {
        // Parallel channels collapse onto one gossip identity; the lowest
        // channel id carries the view mapping (first-emplace-wins, like
        // the hash map this replaced; the generators build simple graphs).
        sorted_pairs_.push_back(pair);
        sorted_channels_.push_back(c);
      }
      truth_to_view_channel_[c] = sorted_pairs_.size() - 1;
    }
  }

  // Dynamics randomness: independent of the workload/router streams.
  std::uint64_t mix = seed_ ^ (cfg_.churn.seed * 0x9e3779b97f4a7c15ULL);
  dyn_rng_ = Rng(splitmix64(mix));

  // Fault injection: its own deterministic stream (hub tie-breaks, burst
  // center), independent of churn's so adding a fault plan does not
  // perturb the churn sequence.
  std::uint64_t fmix = seed_ ^ (cfg_.fault.seed * 0x9e3779b97f4a7c15ULL);
  fault_rng_ = Rng(splitmix64(fmix));
  for (const ChannelFault& cf : cfg_.fault.channel_faults) {
    if (cf.channel >= g.num_channels()) {
      throw std::invalid_argument(
          "scenario: fault.channel_faults names channel " +
          std::to_string(cf.channel) + " but the graph has only " +
          std::to_string(g.num_channels()) +
          " - use a channel id below num_channels()");
    }
  }
  if (cfg_.fault.hub_count > 0) {
    // Coordinated hub outage targets: the top-k nodes by approximate
    // betweenness centrality (the paper's hubs carry most relay traffic).
    const std::vector<double> bc =
        approx_betweenness(g, kHubBetweennessSamples, splitmix64(fmix));
    std::vector<NodeId> order(g.num_nodes());
    for (std::size_t n = 0; n < g.num_nodes(); ++n) {
      order[n] = static_cast<NodeId>(n);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&bc](NodeId a, NodeId b) { return bc[a] > bc[b]; });
    const std::size_t k = std::min(cfg_.fault.hub_count, order.size());
    fault_hubs_.assign(order.begin(), order.begin() + k);
  }

  // Anything that CAN close a channel (churn or a fault plan) switches the
  // engine onto the stale-view machinery at the first close; the
  // view-graph bootstrap below keys off the same predicate.
  closes_possible_ = cfg_.churn.close_rate > 0 ||
                     cfg_.fault.burst_channels > 0 ||
                     !cfg_.fault.channel_faults.empty();
  if (htlc_active_ && closes_possible_) {
    // HTLC hop events write the truth BETWEEN payments; the truth change
    // log is the single choke point feeding those writes into the
    // mirror-sync journal (drain_truth_log after every event).
    truth_.enable_change_log();
    track_htlc_truth_ = true;
  }

  incremental_ = cfg_.maintenance != RouterMaintenance::kFullRebuild &&
                 base_router_->supports_incremental_maintenance() &&
                 closes_possible_;

  if (closes_possible_) {
    // Views start fully converged (the network existed long before t = 0);
    // seeding without flooding keeps bootstrap out of the message counts.
    gossip_.bootstrap_full_topology();
  }
}

// ~ScenarioEngine lives in sim/concurrent.cc, where ConcurrentRuntime is
// a complete type (unique_ptr member destruction).

void ScenarioEngine::schedule(double time, EventType type, std::size_t a,
                              std::size_t b) {
  events_.push(Event{time, event_seq_++, type, a, b});
}

ScenarioResult ScenarioEngine::run() {
  if (ran_) throw std::logic_error("ScenarioEngine: run() is single-use");
  ran_ = true;

  if (cfg_.concurrency.execution == ScenarioExecution::kReplay) {
    begin_replay();
  } else {
    start_prefetch();
  }

  // Arrivals are staged LAZILY, one at a time: arrival i enters the heap
  // only when arrival i-1 is popped (arrivals are chronological, so the
  // staged arrival is always the earliest outstanding one — heap pop order
  // is exactly what scheduling every arrival up front produced). Each
  // arrival keeps its historical sequence number i and event_seq_ starts
  // past the reserved block, so every event's (time, seq) heap key — and
  // therefore the whole run — is unchanged by the streaming rewrite.
  outstanding_ = stream_->size();
  event_seq_ = stream_->size();
  stage_next_arrival();
  if (cfg_.churn.close_rate > 0) {
    schedule(dyn_rng_.exponential(cfg_.churn.close_rate), EventType::kClose);
  }
  if (cfg_.rebalance.interval > 0) {
    schedule(cfg_.rebalance.interval, EventType::kRebalance);
  }
  // Fault plan: every fault is scheduled (and its degradation window
  // registered) up front — deterministic by construction.
  {
    const FaultPlan& f = cfg_.fault;
    if (f.hub_count > 0) {
      schedule(f.hub_outage_start, EventType::kHubOutageStart);
      note_fault_window(f.hub_outage_start,
                        f.hub_outage_start + f.hub_outage_duration);
    }
    if (f.burst_channels > 0) {
      schedule(f.burst_time, EventType::kFaultBurst);
      note_fault_window(f.burst_time, f.burst_time + f.burst_reopen_after);
    }
    for (std::size_t i = 0; i < f.channel_faults.size(); ++i) {
      schedule(f.channel_faults[i].close_time, EventType::kFaultClose, i);
      note_fault_window(
          f.channel_faults[i].close_time,
          f.channel_faults[i].close_time + f.channel_faults[i].reopen_after);
    }
    if (f.congestion_factor > 1 && f.congestion_duration > 0) {
      // The window in WARPED time: arrivals in [s, s + d) land compressed
      // into [s, s + d / factor) (see stage_next_arrival).
      note_fault_window(
          f.congestion_start,
          f.congestion_start + f.congestion_duration / f.congestion_factor);
    }
  }

  while (outstanding_ > 0 && !events_.empty()) {
    if (concurrent_) replay_pump();
    const Event ev = events_.top();
    events_.pop();
    now_ = ev.time;
    switch (ev.type) {
      case EventType::kArrival:
        pending_[ev.a].tx = staged_tx_;
        pending_[ev.a].arrival_time = now_;
        stage_next_arrival();
        attempt_payment(ev.a, 0);
        break;
      case EventType::kRetry:
        ++result_.sim.retries;
        attempt_payment(ev.a, ev.b);
        break;
      case EventType::kClose:
        handle_close();
        break;
      case EventType::kReopen:
        handle_reopen(ev.a);
        break;
      case EventType::kGossipHop:
        handle_gossip_hop();
        break;
      case EventType::kRebalance:
        handle_rebalance();
        break;
      case EventType::kHopForward:
        handle_hop_forward(ev.a, ev.b);
        break;
      case EventType::kSettleBackward:
        handle_settle_backward(ev.a, ev.b);
        break;
      case EventType::kFailBackward:
        handle_fail_backward(ev.a, ev.b);
        break;
      case EventType::kHtlcExpiry:
        handle_htlc_expiry(ev.a, ev.b);
        break;
      case EventType::kHubOutageStart:
        handle_hub_outage(/*start=*/true);
        break;
      case EventType::kHubOutageEnd:
        handle_hub_outage(/*start=*/false);
        break;
      case EventType::kFaultBurst:
        handle_fault_burst();
        break;
      case EventType::kFaultClose:
        handle_fault_close(ev.a);
        break;
    }
    if (track_htlc_truth_) drain_truth_log();
  }
  stop_prefetch();
  if (concurrent_) end_replay();

  std::size_t bad = 0;
  if (!truth_.check_invariants(&bad)) {
    throw std::logic_error("ledger invariant violated at end (channel " +
                           std::to_string(bad) + ", scheme " +
                           scheme_name(scheme_) + ")");
  }
  // check_invariants counts held funds as deposit; every payment has
  // settled or failed by now, so any live hold leaked.
  if (truth_.active_holds() != 0) {
    throw std::logic_error("scheme " + scheme_name(scheme_) +
                           " leaked holds at end");
  }
  result_.gossip_messages = gossip_.total_messages();
  result_.router_cache_hits = contexts_.hits();
  result_.router_cache_misses = contexts_.misses();
  result_.router_cache_evictions = contexts_.evictions();
  // Seal the digest with the final truth ledger: two runs that agreed on
  // every per-payment outcome but left different balances behind (a
  // mirror-sync bug would do exactly that) must not share a digest.
  const Graph& g = workload_->graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    fold64(result_.payment_digest,
           std::bit_cast<std::uint64_t>(truth_.balance(e)));
  }
  finalize_latency();
  return result_;
}

bool ScenarioEngine::ReadAhead::fill(std::size_t idx,
                                     WorkloadStream& stream) {
  while (base + buf.size() <= idx) {
    Transaction tx;
    if (!stream.next(tx)) {
      dead = true;
      return false;
    }
    buf.push_back(tx);
  }
  return true;
}

void ScenarioEngine::ReadAhead::release(std::size_t keep) {
  while (base < keep && !buf.empty()) {
    buf.pop_front();
    ++base;
  }
}

void ScenarioEngine::release_read_ahead() {
  std::size_t keep = next_arrival_;
  if (concurrent_) keep = std::min(keep, replay_dispatch_end());
  read_ahead_.release(keep);
}

void ScenarioEngine::start_prefetch() {
  const std::size_t helpers = prefetch_helpers();
  if (helpers > 0 && stream_->size() > 0 &&
      base_router_->start_prefetch(helpers)) {
    prefetch_router_ = base_router_.get();
  }
}

void ScenarioEngine::prefetch_ahead() {
  const std::size_t depth = pristine_ ? kPrefetchDepth : kViewPrefetchDepth;
  const std::size_t end = std::min(stream_->size(), next_arrival_ + depth);
  prefetch_end_ = std::max(prefetch_end_, next_arrival_);
  if (!pristine_) {
    // A hint whose sender's view moved on would be refused at lookup
    // (another mask) and its Yen computed inline; this re-hint lets the
    // helpers compute it under the mask the lookup will use.
    for (std::size_t i = next_arrival_; i < prefetch_end_; ++i) {
      if (hint_version_[i % kViewPrefetchDepth] !=
          gossip_.view_version(read_ahead_.at(i).sender)) {
        hint_view(i);
      }
    }
  }
  for (; prefetch_end_ < end; ++prefetch_end_) {
    if (!read_ahead_.fill(prefetch_end_, *stream_)) return;
    if (pristine_) {
      prefetch_router_->prefetch(read_ahead_.at(prefetch_end_));
    } else {
      hint_view(prefetch_end_);
    }
  }
}

void ScenarioEngine::hint_view(std::size_t idx) {
  const Transaction& tx = read_ahead_.at(idx);
  // The mask the sender's context will route under unless its view
  // changes first.
  fill_view_mask(tx.sender, hint_mask_);
  hint_version_[idx % kViewPrefetchDepth] = gossip_.view_version(tx.sender);
  prefetch_router_->set_open_mask(hint_mask_.data());
  prefetch_router_->prefetch(tx);
}

void ScenarioEngine::stop_prefetch() {
  if (!prefetch_router_) return;
  prefetch_router_->stop_prefetch();
  prefetch_router_ = nullptr;
}

void ScenarioEngine::end_pristine_era() {
  // The pristine router routes nothing from here on: end its prefetch.
  stop_prefetch();
  pristine_ = false;
  if (!incremental_) return;
  // Built here, not in the constructor: the stale-view machinery is the
  // first reader, and a run without closes never needs it.
  build_view_graph();
  // Replay parks its pipeline at this close and routes on; its stale-view
  // routers keep routing inline, unhinted.
  const std::size_t helpers = prefetch_helpers();
  if (concurrent_ || helpers == 0) return;
  std::unique_ptr<Router> lender = make_view_router(seed_);
  if (!lender->start_prefetch(helpers)) return;
  view_prefetcher_ = std::move(lender);
  hint_mask_.resize(view_graph_.num_edges());
  hint_version_.resize(kViewPrefetchDepth);
  prefetch_router_ = view_prefetcher_.get();
  // Hints restart at the next arrival to stage; the staged one routes
  // unhinted.
  prefetch_end_ = next_arrival_;
}

void ScenarioEngine::stage_next_arrival() {
  if (next_arrival_ >= stream_->size()) return;
  if (prefetch_router_) prefetch_ahead();
  // Staging reads through the shared read-ahead: replay dispatch and
  // prefetch may have read this payment from the stream already.
  if (!read_ahead_.fill(next_arrival_, *stream_)) {
    return;  // stream shorter than advertised
  }
  const Transaction tx = read_ahead_.at(next_arrival_);
  // Congestion-collapse warp: arrivals inside the window compress by the
  // factor (a rate spike), later arrivals shift earlier by the saved
  // time. The mapping is monotone, so trace order survives the clamp.
  double ts = tx.timestamp;
  {
    const FaultPlan& f = cfg_.fault;
    if (f.congestion_factor > 1 && f.congestion_duration > 0 &&
        ts >= f.congestion_start) {
      if (ts < f.congestion_start + f.congestion_duration) {
        ts = f.congestion_start +
             (ts - f.congestion_start) / f.congestion_factor;
        ++result_.fault_congestion_arrivals;
      } else {
        ts -= f.congestion_duration * (1 - 1 / f.congestion_factor);
      }
    }
  }
  // Arrival order is always the trace order: a timestamp that runs
  // backwards is clamped to the previous arrival, like run_simulation's
  // sequential replay.
  const double t =
      next_arrival_ == 0 ? ts : std::max(prev_arrival_time_, ts);
  prev_arrival_time_ = t;
  events_.push(Event{t, next_arrival_, EventType::kArrival, next_arrival_});
  staged_tx_ = tx;
  ++next_arrival_;
  release_read_ahead();
}

void ScenarioEngine::attempt_payment(std::size_t tx_index,
                                     std::size_t attempt) {
  {
    PendingPayment& first = pending_.at(tx_index);
    if (attempt == 0) first.started = std::chrono::steady_clock::now();
  }
  const Transaction tx = pending_.at(tx_index).tx;
  RouteResult r;
  bool diverged = false;
  if (pristine_) {
    // No churn has happened yet: every view still equals the truth, so the
    // shared perfectly-informed router is exact (and this fast path is what
    // makes the zero-dynamics scenario bit-identical to run_simulation).
    if (concurrent_) {
      r = replay_route(tx_index, attempt);
    } else {
      if (cfg_.payment_indexed_rng) {
        base_router_->begin_payment(payment_rng_seed(tx_index, attempt));
      }
      r = base_router_->route(tx, truth_);
      if (htlc_active_ && r.success) stage_htlc_parts(truth_, nullptr);
    }
  } else {
    SenderContext& ctx = context_for(tx.sender);
    // Sync the mirror from the truth: probes during routing read live
    // balances (probing is a network operation), only the topology is
    // stale. A truth-closed channel the view still believes in carries
    // balance 0 — sends over it fail, probes report it dead.
    sync_context(ctx);
    NetworkState& mirror = *ctx.mirror->ledger;
    if (cfg_.payment_indexed_rng) {
      ctx.router->begin_payment(payment_rng_seed(tx_index, attempt));
    }
    r = ctx.router->route(tx, mirror);
    // With the lifecycle active the mirror is armed too: drain its queued
    // settlements into the staging buffers (translating view edges to
    // physical) and abort the mirror holds — net-zero on the mirror, so
    // the change-log mirror-back below carries nothing for them. The
    // actual locks re-stage hop by hop on the TRUTH in begin_part, where
    // concurrent in-flight escrow the stale view never saw can refuse
    // them.
    if (htlc_active_ && r.success) stage_htlc_parts(mirror, ctx.to_phys);
    if (mirror.active_holds() != 0) {
      throw std::logic_error("scenario: router " + ctx.router->name() +
                             " leaked holds after tx " +
                             std::to_string(tx_index));
    }
    // Mirror the settlement back onto the truth — only the edges the
    // router's holds/commits actually touched (the mirror's change log),
    // not an O(local_edges) sweep. Channel totals are conserved by
    // construction (commit credits what hold debited), which the periodic
    // invariant sweep verifies.
    const std::vector<EdgeId>& to_phys = *ctx.to_phys;
    for (const EdgeId le : mirror.change_log()) {
      const Amount nb = mirror.balance(le);
      if (nb != ctx.mirror->synced[le]) {
        truth_.mirror_balance(to_phys[le], nb);
        record_truth_change(to_phys[le]);
      }
    }
    mirror.clear_change_log();
    diverged = view_diverged(ctx, tx.sender);
  }

  {
    PendingPayment& pp = pending_[tx_index];
    pp.probe_messages += r.probe_messages;
    pp.probes += r.probes;
  }
  if (htlc_active_ && r.success) {
    // The route succeeded, but nothing has moved yet: the armed ledger
    // queued the settlements instead of executing them. Hand the queued
    // holds to the timed lifecycle; the payment concludes (and retries)
    // from its backward unwind, not from here.
    begin_htlc(tx_index, attempt, r);
    return;
  }
  conclude_attempt(tx_index, attempt, tx, r, diverged);
}

void ScenarioEngine::conclude_attempt(std::size_t tx_index,
                                      std::size_t attempt,
                                      const Transaction& tx,
                                      const RouteResult& r, bool diverged) {
  const PendingPayment& pp = pending_.at(tx_index);
  if (r.success) {
    finish_payment(tx, r, attempt, pp);
    pending_.erase(tx_index);
  } else if (attempt < cfg_.retry.max_retries) {
    if (diverged) ++result_.sim.stale_view_failures;
    schedule(now_ + cfg_.retry.delay, EventType::kRetry, tx_index,
             attempt + 1);
  } else {
    if (diverged) ++result_.sim.stale_view_failures;
    finish_payment(tx, r, attempt, pp);
    pending_.erase(tx_index);
  }
}

void ScenarioEngine::finish_payment(const Transaction& tx,
                                    const RouteResult& final_attempt,
                                    std::size_t attempt,
                                    const PendingPayment& totals) {
  RouteResult combined = final_attempt;
  combined.probe_messages = totals.probe_messages;
  combined.probes = totals.probes;
  result_.sim.add(tx, combined, tx.amount < class_threshold_);
  // Event-level equality pin for the differential harness: every completed
  // payment folds its full outcome, in completion order, into the digest.
  fold64(result_.payment_digest, tx.sender);
  fold64(result_.payment_digest, tx.receiver);
  fold64(result_.payment_digest, std::bit_cast<std::uint64_t>(tx.amount));
  fold64(result_.payment_digest, combined.success ? 1 : 0);
  fold64(result_.payment_digest,
         std::bit_cast<std::uint64_t>(combined.delivered));
  fold64(result_.payment_digest, std::bit_cast<std::uint64_t>(combined.fee));
  fold64(result_.payment_digest, combined.probe_messages);
  fold64(result_.payment_digest, combined.probes);
  fold64(result_.payment_digest, combined.paths_used);
  fold64(result_.payment_digest, attempt);
  fold64(result_.payment_digest, std::bit_cast<std::uint64_t>(now_));
  if (final_attempt.success) {
    if (attempt > 0) ++result_.sim.retry_successes;
    result_.sim.time_to_success_total += now_ - tx.timestamp;
  }
  if (!fault_windows_.empty()) {
    // Degradation metrics: classify by ARRIVAL time (a payment that
    // arrived mid-fault and finished later still suffered the fault).
    const double at = totals.arrival_time;
    bool inside = false;
    for (const auto& [ws, we] : fault_windows_) {
      if (at >= ws && at < we) {
        inside = true;
        break;
      }
    }
    if (inside) {
      ++result_.fault_window_payments;
      if (final_attempt.success) ++result_.fault_window_successes;
    } else if (at >= fault_window_end_) {
      ++result_.post_fault_payments;
      if (final_attempt.success) {
        ++result_.post_fault_successes;
        if (!recovery_noted_) {
          recovery_noted_ = true;
          result_.fault_recovery_time = now_ - fault_window_end_;
        }
      }
    }
  }
  note_latency(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - totals.started)
                   .count());
  --outstanding_;
  ++completed_;
  result_.duration = now_;
  check_invariants_if_due();
}

std::uint64_t ScenarioEngine::payment_rng_seed(std::size_t tx_index,
                                               std::size_t attempt) const {
  // Unique deterministic entropy per (payment, attempt): with
  // payment_indexed_rng on, a route's randomness depends only on WHICH
  // payment it serves — not on which payments the router instance served
  // before — which is what lets worker-local routers draw exactly like the
  // sequential oracle's shared router.
  std::uint64_t mix =
      seed_ ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(tx_index) + 1)) ^
      (0xd6e8feb86659fd93ULL * (static_cast<std::uint64_t>(attempt) + 1));
  return splitmix64(mix);
}

void ScenarioEngine::note_latency(double seconds) {
  latency_hist_.add(seconds);
  latency_sum_ += seconds;
  latency_max_ = std::max(latency_max_, seconds);
}

void ScenarioEngine::note_sim_latency(double t) {
  sim_latency_hist_.add(t);
  sim_latency_sum_ += t;
  sim_latency_max_ = std::max(sim_latency_max_, t);
}

void ScenarioEngine::finalize_latency() {
  result_.latency.count = latency_hist_.total();
  if (result_.latency.count != 0) {
    result_.latency.mean_seconds =
        latency_sum_ / static_cast<double>(result_.latency.count);
    result_.latency.p50_seconds = latency_hist_.percentile(0.50);
    result_.latency.p99_seconds = latency_hist_.percentile(0.99);
    result_.latency.max_seconds = latency_max_;
  }
  result_.sim_latency.count = sim_latency_hist_.total();
  if (result_.sim_latency.count != 0) {
    result_.sim_latency.mean_seconds =
        sim_latency_sum_ / static_cast<double>(result_.sim_latency.count);
    result_.sim_latency.p50_seconds = sim_latency_hist_.percentile(0.50);
    result_.sim_latency.p99_seconds = sim_latency_hist_.percentile(0.99);
    result_.sim_latency.max_seconds = sim_latency_max_;
  }
}

void ScenarioEngine::check_invariants_if_due() {
  if (!sim_.invariant_stride || completed_ % sim_.invariant_stride != 0) {
    return;
  }
  std::size_t bad = 0;
  if (!truth_.check_invariants(&bad)) {
    throw std::logic_error("ledger invariant violated at channel " +
                           std::to_string(bad) + " after payment " +
                           std::to_string(completed_) + " (scheme " +
                           scheme_name(scheme_) + ")");
  }
  // Every live hold must be an engine-tracked in-flight HTLC (zero when
  // the lifecycle is inactive — the original "no leaked holds" check).
  if (truth_.active_holds() != htlc_open_holds_) {
    throw std::logic_error("scheme " + scheme_name(scheme_) +
                           " leaked holds after payment " +
                           std::to_string(completed_));
  }
}

// --- HTLC lifecycle ------------------------------------------------------
//
// See docs/ARCHITECTURE.md "HTLC lifecycle". A successful route under an
// active HtlcConfig does not settle: the armed ledger queues the commits,
// begin_htlc refunds the router's instant whole-path locks and re-stages
// each part as a per-hop HTLC that locks forward (kHopForward), waits at
// the receiver for its AMP siblings, then unwinds backward committing
// (kSettleBackward) or refunding (kFailBackward) one hop per latency draw.
// A timelock (kHtlcExpiry) force-refunds the whole part on-chain-style.

void ScenarioEngine::setup_htlc() {
  htlc_active_ = cfg_.htlc.active();
  const HtlcConfig& h = cfg_.htlc;
  if (h.timelock_delta > 0 && h.timelock_budget > 0) {
    const auto budget_hops =
        static_cast<std::size_t>(h.timelock_budget / h.timelock_delta);
    if (budget_hops == 0) {
      throw std::invalid_argument(
          "scenario: htlc.timelock_budget is below one timelock_delta - "
          "no route can fit; raise the budget or lower timelock_delta");
    }
    // The sender cannot unwind a path longer than its timelock budget
    // covers; every scheme's router enforces the cap during search.
    if (opts_.max_route_hops == 0 || budget_hops < opts_.max_route_hops) {
      opts_.max_route_hops = budget_hops;
    }
  }
  if (!htlc_active_) return;
  truth_.arm_deferred_settlement();
  const Graph& g = workload_->graph();
  std::uint64_t mix = seed_ ^ (h.seed * 0x9e3779b97f4a7c15ULL);
  Rng hrng(splitmix64(mix));
  edge_latency_.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edge_latency_[e] =
        h.hop_latency > 0 ? hrng.uniform(0.5, 1.5) * h.hop_latency : 0.0;
  }
  node_offline_.assign(g.num_nodes(), 0);
  if (h.offline_fraction > 0) {
    for (std::size_t n = 0; n < g.num_nodes(); ++n) {
      node_offline_[n] = h.offline_fraction >= 1 ||
                                 hrng.chance(h.offline_fraction)
                             ? 1
                             : 0;
    }
  }
  node_holder_.assign(g.num_nodes(), 0);
  if (h.holder_fraction > 0) {
    if (h.holders_prefer_hubs) {
      // Hub griefing: the holders are the highest-degree nodes, whose
      // channels carry the most relays.
      std::vector<NodeId> by_degree(g.num_nodes());
      for (std::size_t n = 0; n < g.num_nodes(); ++n) {
        by_degree[n] = static_cast<NodeId>(n);
      }
      std::stable_sort(by_degree.begin(), by_degree.end(),
                       [&g](NodeId a, NodeId b) {
                         return g.out_degree(a) > g.out_degree(b);
                       });
      const auto count = static_cast<std::size_t>(
          h.holder_fraction * static_cast<double>(g.num_nodes()) + 0.5);
      for (std::size_t i = 0; i < count && i < by_degree.size(); ++i) {
        node_holder_[by_degree[i]] = 1;
      }
    } else {
      for (std::size_t n = 0; n < g.num_nodes(); ++n) {
        node_holder_[n] = hrng.chance(h.holder_fraction) ? 1 : 0;
      }
    }
  }
}

void ScenarioEngine::stage_htlc_parts(NetworkState& ledger,
                                      const std::vector<EdgeId>* to_phys) {
  // Snapshot each queued hold's parts (path order) and refund it. The
  // router locked whole paths atomically; the timed lifecycle re-locks
  // hop by hop with fee escrow, and a sibling part's whole-path lock must
  // not count against another part's first-hop re-lock. When the route
  // ran on a mirror, `to_phys` translates its local edges to the truth's.
  staged_edges_.clear();
  staged_amounts_.clear();
  ledger.take_deferred_commits(deferred_buf_);
  for (const HoldId id : deferred_buf_) {
    const auto parts = ledger.hold_parts(id);
    std::vector<EdgeId> es;
    std::vector<Amount> as;
    es.reserve(parts.size());
    as.reserve(parts.size());
    for (const auto& [edge, amount] : parts) {
      es.push_back(to_phys ? (*to_phys)[edge] : edge);
      as.push_back(amount);
    }
    staged_edges_.push_back(std::move(es));
    staged_amounts_.push_back(std::move(as));
    ledger.abort(id);
  }
  deferred_buf_.clear();
}

void ScenarioEngine::begin_htlc(std::size_t tx_index, std::size_t attempt,
                                const RouteResult& r) {
  const Transaction tx = pending_.at(tx_index).tx;
  if (staged_edges_.empty()) {
    // A success that queued nothing has nothing to time (defensive: every
    // scheme settles at least one hold on success).
    conclude_attempt(tx_index, attempt, tx, r, false);
    return;
  }
  ++result_.htlc_payments;
  InFlight& fl = inflight_[tx_index];
  fl.attempt = attempt;
  fl.parts = 0;
  fl.arrived = 0;
  fl.done = 0;
  fl.failed = false;
  fl.lock_start = now_;
  fl.route = r;
  fl.slots.clear();
  result_.htlc_max_inflight =
      std::max(result_.htlc_max_inflight, inflight_.size());

  // Re-lock each part's first hop (or the whole netted flow) as a live
  // timed HTLC (the parts were staged by stage_htlc_parts at route time).
  for (std::size_t i = 0; i < staged_edges_.size(); ++i) {
    begin_part(tx_index, tx, staged_edges_[i], staged_amounts_[i]);
  }
  staged_edges_.clear();
  staged_amounts_.clear();
  if (fl.done == fl.parts) conclude_htlc(tx_index);
}

void ScenarioEngine::begin_part(std::size_t tx_index, const Transaction& tx,
                                const std::vector<EdgeId>& edges,
                                const std::vector<Amount>& amounts) {
  const Graph& g = workload_->graph();
  InFlight& fl = inflight_.at(tx_index);
  ++fl.parts;

  // Path-shaped iff the edges chain sender -> receiver (the ledger keeps
  // hold parts in lock order); anything else is an elephant netted flow.
  bool chained = !edges.empty() && g.from(edges.front()) == tx.sender &&
                 g.to(edges.back()) == tx.receiver;
  for (std::size_t k = 0; chained && k + 1 < edges.size(); ++k) {
    chained = g.to(edges[k]) == g.from(edges[k + 1]);
  }

  const std::size_t slot = alloc_part();
  HtlcPart& p = parts_[slot];
  p.flow = !chained;
  p.tx_index = tx_index;
  p.path.assign(edges.begin(), edges.end());
  p.lock_amount.assign(amounts.begin(), amounts.end());

  const HtlcConfig& h = cfg_.htlc;
  double expiry_span = 0;
  bool locked = false;
  p.hold = truth_.open_hold();
  ++htlc_open_holds_;
  if (!p.flow) {
    const std::size_t n = p.path.size();
    p.hop_count = n;
    // Hop k fronts every downstream hop's fee on top of its amount, like
    // Lightning's onion amounts.
    const FeeSchedule& fees = workload_->fees();
    Amount downstream = 0;
    for (std::size_t k = n; k-- > 0;) {
      p.lock_amount[k] += downstream;
      downstream += fees.edge_fee(p.path[k], amounts[k]);
    }
    locked = truth_.extend_hold(p.hold, p.path[0], p.lock_amount[0]);
    if (locked) {
      p.hops_locked = 1;
      schedule_part(edge_latency_[p.path[0]], EventType::kHopForward, slot,
                    1);
    }
    if (h.timelock_delta > 0) {
      expiry_span = h.timelock_delta * static_cast<double>(n);
    }
  } else {
    // Netted elephant flow: one aggregate HTLC over the flow's edge set.
    // Equivalent path length = edges per used path; one-way latency =
    // that many mean edge delays.
    const std::size_t paths = std::max<std::size_t>(1, fl.route.paths_used);
    p.hop_count =
        std::max<std::size_t>(1, (edges.size() + paths - 1) / paths);
    double mean_lat = 0;
    for (const EdgeId e : edges) mean_lat += edge_latency_[e];
    if (!edges.empty()) mean_lat /= static_cast<double>(edges.size());
    p.unit_latency = mean_lat * static_cast<double>(p.hop_count);
    p.flow_blocked = node_offline_[tx.receiver] != 0;
    for (const EdgeId e : edges) {
      const NodeId mid = g.to(e);
      if (mid != tx.receiver && mid != tx.sender &&
          node_offline_[mid] != 0) {
        p.flow_blocked = true;
      }
    }
    locked = true;
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (!truth_.extend_hold(p.hold, edges[k], p.lock_amount[k])) {
        locked = false;
        break;
      }
    }
    if (locked) {
      p.hops_locked = edges.size();
      schedule_part(p.unit_latency, EventType::kHopForward, slot,
                    edges.size());
    }
    if (h.timelock_delta > 0) {
      expiry_span = h.timelock_delta * static_cast<double>(p.hop_count);
    }
  }

  if (!locked) {
    // First-lock contention: a concurrent in-flight HTLC (e.g. a sibling
    // part's fee escrow) holds the funds the router just saw as free.
    truth_.abort(p.hold);
    --htlc_open_holds_;
    ++result_.htlc_inflight_failures;
    fl.failed = true;
    ++p.gen;
    p.in_use = false;
    free_parts_.push_back(slot);
    ++fl.done;
    return;
  }
  fl.slots.push_back(slot);
  if (expiry_span > 0) {
    truth_.set_hold_expiry(p.hold, now_ + expiry_span);
    schedule_part(expiry_span, EventType::kHtlcExpiry, slot, 0);
  }
}

std::size_t ScenarioEngine::alloc_part() {
  std::size_t slot;
  if (!free_parts_.empty()) {
    slot = free_parts_.back();
    free_parts_.pop_back();
  } else {
    slot = parts_.size();
    parts_.emplace_back();
  }
  HtlcPart& p = parts_[slot];
  ++p.gen;
  p.in_use = true;
  p.flow = false;
  p.flow_blocked = false;
  p.state = PartState::kForwarding;
  p.hops_locked = 0;
  p.hop_count = 0;
  p.unit_latency = 0;
  return slot;
}

void ScenarioEngine::schedule_part(double delay, EventType type,
                                   std::size_t slot, std::size_t hop) {
  schedule(now_ + delay, type, slot, (parts_[slot].gen << kHopBits) | hop);
}

ScenarioEngine::HtlcPart* ScenarioEngine::live_part(std::size_t slot,
                                                    std::size_t enc) {
  HtlcPart& p = parts_[slot];
  if (!p.in_use || (enc >> kHopBits) != p.gen) return nullptr;
  return &p;
}

double ScenarioEngine::relay_delay(NodeId node, const HtlcPart& p) {
  if (!node_holder_[node]) return 0;
  ++result_.htlc_holder_delays;
  if (cfg_.htlc.holder_delay > 0) return cfg_.htlc.holder_delay;
  // Default griefing delay: most of the part's timelock span, long enough
  // to threaten expiry when stacked across relays.
  return 0.8 * cfg_.htlc.timelock_delta * static_cast<double>(p.hop_count);
}

void ScenarioEngine::handle_hop_forward(std::size_t slot, std::size_t enc) {
  HtlcPart* found = live_part(slot, enc);
  if (!found) return;
  HtlcPart& p = *found;
  if (p.state != PartState::kForwarding) return;
  InFlight& fl = inflight_.at(p.tx_index);
  if (fl.failed) {
    // A sibling part failed while this one was propagating: give up at
    // the current node and unwind what is locked.
    begin_fail_unwind(slot);
    return;
  }
  const Graph& g = workload_->graph();
  const std::size_t hop = enc & ((std::size_t{1} << kHopBits) - 1);
  if (p.flow || hop == p.path.size()) {
    // Arrival at the receiver.
    const bool off = p.flow ? p.flow_blocked
                            : node_offline_[g.to(p.path.back())] != 0;
    if (off) {
      ++result_.htlc_offline_failures;
      fail_htlc_payment(p.tx_index);
      begin_fail_unwind(slot);
      return;
    }
    p.state = PartState::kArrived;
    ++fl.arrived;
    // AMP barrier: the receiver releases the preimage only once every
    // part of the payment has arrived.
    if (fl.arrived + fl.done == fl.parts && fl.arrived > 0) {
      start_settlement(p.tx_index);
    }
    return;
  }
  const NodeId fwd = g.from(p.path[hop]);
  if (node_offline_[fwd] != 0) {
    ++result_.htlc_offline_failures;
    fail_htlc_payment(p.tx_index);
    begin_fail_unwind(slot);
    return;
  }
  if (!truth_.extend_hold(p.hold, p.path[hop], p.lock_amount[hop])) {
    // In-flight lock contention at an intermediate hop.
    ++result_.htlc_inflight_failures;
    fail_htlc_payment(p.tx_index);
    begin_fail_unwind(slot);
    return;
  }
  p.hops_locked = hop + 1;
  schedule_part(edge_latency_[p.path[hop]], EventType::kHopForward, slot,
                hop + 1);
}

void ScenarioEngine::start_settlement(std::size_t tx_index) {
  InFlight& fl = inflight_.at(tx_index);
  const NodeId receiver = pending_.at(tx_index).tx.receiver;
  for (const std::size_t s : fl.slots) {
    HtlcPart& p = parts_[s];
    if (!p.in_use || p.tx_index != tx_index ||
        p.state != PartState::kArrived) {
      continue;
    }
    p.state = PartState::kSettling;
    const double d = relay_delay(receiver, p);
    if (p.flow) {
      schedule_part(d + p.unit_latency, EventType::kSettleBackward, s, 0);
    } else {
      schedule_part(d + edge_latency_[p.path.back()],
                    EventType::kSettleBackward, s, p.path.size() - 1);
    }
  }
}

void ScenarioEngine::handle_settle_backward(std::size_t slot,
                                            std::size_t enc) {
  HtlcPart* found = live_part(slot, enc);
  if (!found) return;
  HtlcPart& p = *found;
  if (p.state != PartState::kSettling) return;
  if (p.flow) {
    // The whole netted flow settles as one unit (commit() itself is armed
    // for deferral, so settle hop-wise, which moves funds immediately).
    const std::size_t n = truth_.hold_parts(p.hold).size();
    for (std::size_t i = 0; i < n; ++i) truth_.commit_hop(p.hold, i);
    --htlc_open_holds_;
    part_done(slot);
    return;
  }
  const std::size_t hop = enc & ((std::size_t{1} << kHopBits) - 1);
  truth_.commit_hop(p.hold, hop);
  if (hop == 0) {
    // The hold auto-retired with its last hop settled.
    --htlc_open_holds_;
    part_done(slot);
    return;
  }
  const Graph& g = workload_->graph();
  const double d = relay_delay(g.from(p.path[hop]), p);
  schedule_part(d + edge_latency_[p.path[hop - 1]],
                EventType::kSettleBackward, slot, hop - 1);
}

void ScenarioEngine::fail_htlc_payment(std::size_t tx_index) {
  InFlight& fl = inflight_.at(tx_index);
  if (fl.failed) return;
  fl.failed = true;
  // Parts waiting at the receiver unwind now; parts still forwarding
  // convert at their next event (at most one hop latency away).
  for (const std::size_t s : fl.slots) {
    HtlcPart& q = parts_[s];
    if (q.in_use && q.tx_index == tx_index &&
        q.state == PartState::kArrived) {
      begin_fail_unwind(s);
    }
  }
}

void ScenarioEngine::begin_fail_unwind(std::size_t slot) {
  HtlcPart& p = parts_[slot];
  p.state = PartState::kFailing;
  if (p.hops_locked == 0) {  // defensive: live parts always lock hop 0
    truth_.abort(p.hold);
    --htlc_open_holds_;
    part_done(slot);
    return;
  }
  if (p.flow) {
    schedule_part(p.unit_latency, EventType::kFailBackward, slot, 0);
    return;
  }
  const std::size_t last = p.hops_locked - 1;
  schedule_part(edge_latency_[p.path[last]], EventType::kFailBackward, slot,
                last);
}

void ScenarioEngine::handle_fail_backward(std::size_t slot,
                                          std::size_t enc) {
  HtlcPart* found = live_part(slot, enc);
  if (!found) return;
  HtlcPart& p = *found;
  if (p.state != PartState::kFailing) return;
  if (p.flow) {
    truth_.abort(p.hold);
    --htlc_open_holds_;
    part_done(slot);
    return;
  }
  const std::size_t hop = enc & ((std::size_t{1} << kHopBits) - 1);
  truth_.abort_hop(p.hold, hop);
  if (hop == 0) {
    // abort_hop retired the hold with its last locked hop refunded.
    --htlc_open_holds_;
    part_done(slot);
    return;
  }
  const Graph& g = workload_->graph();
  const double d = relay_delay(g.from(p.path[hop]), p);
  schedule_part(d + edge_latency_[p.path[hop - 1]], EventType::kFailBackward,
                slot, hop - 1);
}

void ScenarioEngine::handle_htlc_expiry(std::size_t slot, std::size_t enc) {
  HtlcPart* found = live_part(slot, enc);
  if (!found) return;
  HtlcPart& p = *found;
  // Once a part is unwinding the preimage/error is already propagating;
  // the simplified model lets that unwind finish.
  if (p.state == PartState::kSettling || p.state == PartState::kFailing) {
    return;
  }
  ++result_.htlc_expiries;
  // On-chain timeout: every still-locked hop of this part refunds at
  // once. Mark the part failing first so fail_htlc_payment's sweep does
  // not schedule a second unwind for it.
  p.state = PartState::kFailing;
  fail_htlc_payment(p.tx_index);
  truth_.abort(p.hold);
  --htlc_open_holds_;
  part_done(slot);
}

void ScenarioEngine::part_done(std::size_t slot) {
  HtlcPart& p = parts_[slot];
  const std::size_t tx_index = p.tx_index;
  ++p.gen;  // orphan any still-queued events (e.g. the expiry)
  p.in_use = false;
  free_parts_.push_back(slot);
  InFlight& fl = inflight_.at(tx_index);
  ++fl.done;
  if (fl.done == fl.parts) conclude_htlc(tx_index);
}

void ScenarioEngine::conclude_htlc(std::size_t tx_index) {
  InFlight& fl = inflight_.at(tx_index);
  const bool ok = !fl.failed;
  const std::size_t attempt = fl.attempt;
  RouteResult r = fl.route;
  if (!ok) {
    // The route was fine but the payment died in flight: report a failed
    // attempt (the retry path re-routes with fresh balances).
    r.success = false;
    r.delivered = 0;
    r.fee = 0;
  }
  note_sim_latency(now_ - fl.lock_start);
  inflight_.erase(tx_index);
  const Transaction tx = pending_.at(tx_index).tx;
  conclude_attempt(tx_index, attempt, tx, r, false);
}

void ScenarioEngine::sync_context(SenderContext& ctx) {
  const std::size_t local_edges = ctx.graph->num_edges();
  const std::vector<EdgeId>& to_phys = *ctx.to_phys;
  Mirror& m = *ctx.mirror;
  if (m.journal_gen != journal_gen_) {
    // Full resync: new mirror, rebalance drift, or journal overflow.
    // O(local_edges), the pre-journal cost of EVERY sync.
    m.synced.resize(local_edges);
    for (EdgeId e = 0; e < local_edges; ++e) {
      m.synced[e] = truth_.balance(to_phys[e]);
    }
    m.ledger->assign_balances(m.synced);
    m.journal_gen = journal_gen_;
    m.journal_pos = truth_journal_.size();
    return;
  }
  // Replay the journal suffix this mirror has not seen. Edges outside the
  // sender's view are skipped; repeats overwrite idempotently. After the
  // loop every local edge equals the truth again: untouched edges were
  // already equal, and every touched edge is in the journal.
  const std::vector<std::uint32_t>& phys_map = *ctx.phys_map;
  for (; m.journal_pos < truth_journal_.size(); ++m.journal_pos) {
    const EdgeId phys = truth_journal_[m.journal_pos];
    const std::uint32_t le1 = phys_map[phys];
    if (le1 == 0) continue;
    const Amount b = truth_.balance(phys);
    m.synced[le1 - 1] = b;
    m.ledger->mirror_balance(le1 - 1, b);
  }
}

void ScenarioEngine::record_truth_change(EdgeId physical_edge) {
  truth_journal_.push_back(physical_edge);
  if (truth_journal_.size() > 4 * workload_->graph().num_edges()) {
    // Journal replay would cost more than full resyncs; start a fresh
    // generation (mirrors full-sync on their next payment).
    truth_journal_.clear();
    ++journal_gen_;
  }
}

void ScenarioEngine::handle_close() {
  // Churn ends speculation for good: the pristine fast path is over, and
  // the stale-view machinery that takes its place is inherently
  // sequential. In-flight speculations are abandoned un-applied (their
  // arrivals will route through sender contexts like any post-churn
  // payment), which is why the flip needs no rollback.
  if (concurrent_) replay_quiesce(/*permanent=*/true);
  if (!open_list_.empty()) {
    const std::size_t pick = dyn_rng_.next_below(open_list_.size());
    const std::size_t c = open_list_[pick];
    close_channel_now(c);
    if (cfg_.churn.mean_downtime > 0) {
      schedule(now_ + dyn_rng_.exponential(1.0 / cfg_.churn.mean_downtime),
               EventType::kReopen, c);
    }
  }
  schedule(now_ + dyn_rng_.exponential(cfg_.churn.close_rate),
           EventType::kClose);
}

bool ScenarioEngine::close_channel_now(std::size_t c) {
  if (!open_[c]) return false;
  for (std::size_t i = 0; i < open_list_.size(); ++i) {
    if (open_list_[i] == c) {
      open_list_[i] = open_list_.back();
      open_list_.pop_back();
      break;
    }
  }
  open_[c] = 0;
  ++truth_version_;
  if (pristine_) end_pristine_era();
  ++result_.channels_closed;
  if (!ever_churned_[c]) {
    ever_churned_[c] = 1;
    churned_list_.push_back(c);
  }

  // In-flight HTLCs crossing the channel resolve on-chain FIRST (the
  // close transaction sweeps the HTLC outputs), then the channel's
  // remaining funds leave the network.
  if (htlc_active_) resolve_htlcs_on_close(c);
  const Graph& g = workload_->graph();
  const EdgeId fe = g.channel_forward_edge(c);
  truth_.set_channel_balance(c, 0, 0);
  record_truth_change(fe);
  record_truth_change(g.reverse(fe));

  gossip_.announce_channel_close(c, ++channel_seq_[c]);
  flush_gossip_or_schedule_hop();
  return true;
}

void ScenarioEngine::resolve_htlcs_on_close(std::size_t channel) {
  if (htlc_open_holds_ == 0) return;
  const Graph& g = workload_->graph();
  // Pass 1: find every in-flight part with a still-locked hop on the
  // channel (its break point k), and pre-mark settling parts' holds so
  // the ledger SETTLES their swept hops (preimage already public) instead
  // of refunding them.
  close_hits_.clear();
  for (std::size_t slot = 0; slot < parts_.size(); ++slot) {
    HtlcPart& p = parts_[slot];
    if (!p.in_use) continue;
    const auto hp = truth_.hold_parts(p.hold);
    std::size_t k = hp.size();
    for (std::size_t i = 0; i < hp.size(); ++i) {
      if (hp[i].second > 0 && g.channel_of(hp[i].first) == channel) {
        k = i;
        break;
      }
    }
    if (k == hp.size()) continue;
    if (p.state == PartState::kSettling) truth_.mark_hold_settling(p.hold);
    close_hits_.emplace_back(slot, k);
  }
  if (close_hits_.empty()) return;

  const NetworkState::CloseResolution res =
      truth_.resolve_holds_on_close(channel);
  result_.htlc_onchain_settled_hops += res.settled_hops;
  result_.htlc_onchain_refunded_hops += res.refunded_hops;

  // Pass 2: finish each affected part. Settling parts complete on-chain
  // (the payment still succeeds, just early); failing parts finish their
  // abort now; forwarding/arrived parts fail backward from the break
  // point — hops beyond it resolve on-chain, hops before it refund
  // hop-wise on the still-open upstream channels.
  std::vector<std::size_t> commit_idx;
  for (const auto& [slot, k] : close_hits_) {
    HtlcPart& p = parts_[slot];
    if (p.state == PartState::kSettling) {
      if (truth_.hold_active(p.hold)) {
        const auto hp = truth_.hold_parts(p.hold);
        commit_idx.clear();
        for (std::size_t i = 0; i < hp.size(); ++i) {
          if (hp[i].second > 0) commit_idx.push_back(i);
        }
        for (const std::size_t i : commit_idx) {
          truth_.commit_hop(p.hold, i);
          ++result_.htlc_onchain_settled_hops;
        }
      }
      --htlc_open_holds_;
      part_done(slot);
      continue;
    }
    if (p.state == PartState::kFailing) {
      if (truth_.hold_active(p.hold)) {
        const auto hp = truth_.hold_parts(p.hold);
        for (std::size_t i = 0; i < hp.size(); ++i) {
          if (hp[i].second > 0) ++result_.htlc_onchain_refunded_hops;
        }
        truth_.abort(p.hold);
      }
      --htlc_open_holds_;
      part_done(slot);
      continue;
    }
    // kForwarding / kArrived: the payment breaks here.
    {
      InFlight& fl = inflight_.at(p.tx_index);
      if (!fl.failed) ++result_.htlc_break_failures;
    }
    p.state = PartState::kFailing;  // before the sweep: no double-unwind
    fail_htlc_payment(p.tx_index);
    if (p.flow) {
      // A netted flow has no hop order to unwind along; the whole
      // remainder resolves on-chain at once.
      if (truth_.hold_active(p.hold)) {
        const auto hp = truth_.hold_parts(p.hold);
        for (std::size_t i = 0; i < hp.size(); ++i) {
          if (hp[i].second > 0) ++result_.htlc_onchain_refunded_hops;
        }
        truth_.abort(p.hold);
      }
      --htlc_open_holds_;
      part_done(slot);
      continue;
    }
    if (truth_.hold_active(p.hold)) {
      // Hops beyond the break point cannot relay an error upstream across
      // the dead channel: they time out on-chain now (last to k+1).
      const std::size_t locked = truth_.hold_parts(p.hold).size();
      for (std::size_t i = locked; i-- > k + 1;) {
        if (truth_.hold_parts(p.hold)[i].second <= 0) continue;
        truth_.abort_hop(p.hold, i);
        ++result_.htlc_onchain_refunded_hops;
      }
    }
    if (!truth_.hold_active(p.hold)) {
      // Every locked hop was swept on-chain; nothing to unwind off-chain.
      --htlc_open_holds_;
      part_done(slot);
      continue;
    }
    // Hops before the break refund hop-wise on their (open) channels,
    // starting at k-1 after one hop latency — the normal timed unwind.
    p.hops_locked = k;
    schedule_part(edge_latency_[p.path[k - 1]], EventType::kFailBackward,
                  slot, k - 1);
  }
}

void ScenarioEngine::drain_truth_log() {
  // HTLC hop events mutate the truth BETWEEN payments; replaying the
  // ledger's change log here (once per event) is what keeps stale sender
  // mirrors syncable by journal suffix instead of full resyncs.
  for (const EdgeId e : truth_.change_log()) record_truth_change(e);
  truth_.clear_change_log();
}

void ScenarioEngine::handle_reopen(std::size_t channel) {
  if (open_[channel]) return;
  open_[channel] = 1;
  open_list_.push_back(channel);
  ++truth_version_;
  ++result_.channels_reopened;

  // A fresh funding transaction restores the initial (scaled) deposits —
  // channel-scoped, so deposits of channels with funds locked in flight
  // elsewhere are untouched (and a reopen can never resurrect a ghost
  // hold: nothing can lock on a closed channel's zero balances).
  const Graph& g = workload_->graph();
  const EdgeId fe = g.channel_forward_edge(channel);
  truth_.set_channel_balance(channel, initial_balance_[fe],
                             initial_balance_[g.reverse(fe)]);
  record_truth_change(fe);
  record_truth_change(g.reverse(fe));

  gossip_.announce_channel_open(channel, ++channel_seq_[channel]);
  flush_gossip_or_schedule_hop();
}

void ScenarioEngine::flush_gossip_or_schedule_hop() {
  if (cfg_.gossip.hop_delay <= 0) {
    const auto [rounds, messages] = gossip_.run_to_quiescence();
    (void)messages;  // folded into gossip_.total_messages()
    result_.gossip_rounds += rounds;
    return;
  }
  if (!hop_scheduled_ && !gossip_.quiescent()) {
    schedule(now_ + cfg_.gossip.hop_delay, EventType::kGossipHop);
    hop_scheduled_ = true;
  }
}

void ScenarioEngine::handle_gossip_hop() {
  hop_scheduled_ = false;
  gossip_.run_round();
  ++result_.gossip_rounds;
  if (!gossip_.quiescent()) {
    schedule(now_ + cfg_.gossip.hop_delay, EventType::kGossipHop);
    hop_scheduled_ = true;
  }
}

void ScenarioEngine::handle_rebalance() {
  // Rebalance rewrites every balance but keeps the network pristine, so
  // speculation may continue afterwards: park the pipeline, roll back
  // every in-flight speculation (their ledger views are about to be
  // wholesale wrong), apply the drift, and let replay_quiesce's caller
  // publish the new balances through the replay log.
  if (concurrent_) replay_quiesce(/*permanent=*/false);
  const Graph& g = workload_->graph();
  if (truth_.active_holds() == 0) {
    // Holds-free ledger: the original wholesale rewrite (bit-identical
    // for every pre-existing rebalance config).
    drift_buf_.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      drift_buf_[e] = truth_.balance(e);
    }
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      if (!open_[c]) continue;
      const EdgeId fe = g.channel_forward_edge(c);
      const EdgeId be = g.reverse(fe);
      const Amount total = drift_buf_[fe] + drift_buf_[be];
      const Amount fwd =
          drift_buf_[fe] +
          cfg_.rebalance.strength * (total / 2 - drift_buf_[fe]);
      drift_buf_[fe] = fwd;
      drift_buf_[be] = total - fwd;  // conserves the channel total exactly
    }
    truth_.assign_balances(drift_buf_);
  } else {
    // Funds are locked in flight: a rebalancing operator cannot touch
    // escrowed HTLC outputs, so the sweep skips any channel carrying held
    // amounts and drifts the rest channel by channel (totals conserved,
    // deposits untouched — exactly what the invariant needs).
    truth_.held_channels(held_buf_);
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      if (!open_[c]) continue;
      if (held_buf_[c]) {
        ++result_.rebalance_skipped_channels;
        continue;
      }
      const EdgeId fe = g.channel_forward_edge(c);
      const EdgeId be = g.reverse(fe);
      const Amount bf = truth_.balance(fe);
      const Amount total = bf + truth_.balance(be);
      const Amount fwd = bf + cfg_.rebalance.strength * (total / 2 - bf);
      truth_.mirror_balance(fe, fwd);
      truth_.mirror_balance(be, total - fwd);
    }
  }
  // A full-ledger rewrite: journal replay cannot express it compactly, so
  // advance the generation and let every mirror full-sync once.
  truth_journal_.clear();
  ++journal_gen_;
  if (concurrent_) replay_publish_all_edges();
  ++result_.rebalance_events;
  schedule(now_ + cfg_.rebalance.interval, EventType::kRebalance);
}

// --- Fault injection -----------------------------------------------------

void ScenarioEngine::note_fault_window(double start, double end) {
  fault_windows_.emplace_back(start, end);
  fault_window_end_ = std::max(fault_window_end_, end);
}

void ScenarioEngine::handle_hub_outage(bool start) {
  if (start) {
    // Coordinated outage: every target hub goes dark at once. Per-node
    // pre-outage state is saved so hubs that were ALREADY offline (the
    // htlc.offline_fraction draw) stay offline after the window.
    hub_offline_saved_.resize(fault_hubs_.size());
    for (std::size_t i = 0; i < fault_hubs_.size(); ++i) {
      hub_offline_saved_[i] = node_offline_[fault_hubs_[i]];
      if (!node_offline_[fault_hubs_[i]]) {
        node_offline_[fault_hubs_[i]] = 1;
        ++result_.fault_hub_outages;
      }
    }
    schedule(now_ + cfg_.fault.hub_outage_duration, EventType::kHubOutageEnd);
  } else {
    for (std::size_t i = 0; i < fault_hubs_.size(); ++i) {
      node_offline_[fault_hubs_[i]] = hub_offline_saved_[i];
    }
  }
}

void ScenarioEngine::handle_fault_burst() {
  // A close burst is churn as far as speculation is concerned.
  if (concurrent_) replay_quiesce(/*permanent=*/true);
  const Graph& g = workload_->graph();
  if (open_list_.empty() || g.num_nodes() == 0) return;
  // Regional: a BFS ball of channels around a seeded center — the closes
  // cluster like a datacenter or regulator event taking down a
  // neighborhood, not a uniform sprinkle.
  const NodeId center =
      static_cast<NodeId>(fault_rng_.next_below(g.num_nodes()));
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> queue{center};
  seen[center] = 1;
  std::size_t head = 0;
  std::size_t closed = 0;
  while (head < queue.size() && closed < cfg_.fault.burst_channels) {
    const NodeId u = queue[head++];
    for (const auto& arc : g.out_arcs(u)) {
      if (closed < cfg_.fault.burst_channels &&
          close_channel_now(g.channel_of(arc.edge))) {
        ++closed;
        ++result_.fault_channel_closes;
        if (cfg_.fault.burst_reopen_after > 0) {
          schedule(now_ + cfg_.fault.burst_reopen_after, EventType::kReopen,
                   g.channel_of(arc.edge));
        }
      }
      if (!seen[arc.head]) {
        seen[arc.head] = 1;
        queue.push_back(arc.head);
      }
    }
  }
}

void ScenarioEngine::handle_fault_close(std::size_t index) {
  if (concurrent_) replay_quiesce(/*permanent=*/true);
  const ChannelFault& cf = cfg_.fault.channel_faults[index];
  if (close_channel_now(cf.channel)) {
    ++result_.fault_channel_closes;
    if (cf.reopen_after > 0) {
      schedule(now_ + cf.reopen_after, EventType::kReopen, cf.channel);
    }
  }
}

ScenarioEngine::SenderContext& ScenarioEngine::context_for(NodeId sender) {
  auto* ctx = static_cast<SenderContext*>(contexts_.find(sender));
  if (!ctx) {
    std::unique_ptr<SenderCacheable> slot = contexts_.evict_for_insert();
    if (slot) {
      // Recycled evictee: it belonged to another sender, so force a
      // rebuild — which overwrites every field but keeps the buffer
      // capacities (graph vectors, edge maps, synced balances). In
      // incremental mode the router object itself is reusable (a strict
      // clear + reseed + mask rebuild is equivalent to constructing it
      // fresh) and the mirror is the shared one, so only flag it; never
      // patch from another sender's state.
      if (incremental_) {
        static_cast<SenderContext&>(*slot).recycled = true;
      } else {
        static_cast<SenderContext&>(*slot).router.reset();
      }
    } else {
      slot = std::make_unique<SenderContext>();
    }
    ctx = static_cast<SenderContext*>(slot.get());
    contexts_.insert(sender, std::move(slot));
  }
  if (incremental_) {
    if (!ctx->router || ctx->recycled) {
      build_incremental_context(*ctx, sender);
    } else if (ctx->view_version != gossip_.view_version(sender)) {
      patch_context(*ctx, sender);
    }
  } else if (!ctx->router ||
             ctx->view_version != gossip_.view_version(sender)) {
    rebuild_context(*ctx, sender);
  }
  return *ctx;
}

void ScenarioEngine::rebuild_context(SenderContext& ctx, NodeId sender) {
  ++result_.router_rebuilds;
  const Graph& pg = workload_->graph();
  // Old router/mirror reference the old local graph: drop them first.
  ctx.router.reset();
  ctx.own_mirror.ledger.reset();

  Graph local(pg.num_nodes());
  ctx.to_physical.clear();
  // for_each_open emits channels in ascending normalized-pair order — a
  // subsequence of sorted_pairs_ — so one monotone cursor resolves every
  // view channel to its truth channel with no per-channel hash lookup.
  std::size_t cursor = 0;
  gossip_.view(sender).for_each_open([&](NodeId u, NodeId v) {
    const std::pair<NodeId, NodeId> key{u, v};
    while (cursor < sorted_pairs_.size() && sorted_pairs_[cursor] < key) {
      ++cursor;
    }
    if (cursor == sorted_pairs_.size() || sorted_pairs_[cursor] != key) {
      return;  // unknown to the truth
    }
    const EdgeId pf = pg.channel_forward_edge(sorted_channels_[cursor]);
    local.add_channel(u, v);
    if (pg.from(pf) == u) {
      ctx.to_physical.push_back(pf);
      ctx.to_physical.push_back(pg.reverse(pf));
    } else {
      ctx.to_physical.push_back(pg.reverse(pf));
      ctx.to_physical.push_back(pf);
    }
  });
  local.finalize();
  ctx.local = std::move(local);

  FeeSchedule fees(ctx.local);
  for (EdgeId e = 0; e < ctx.local.num_edges(); ++e) {
    fees.set_policy(e, workload_->fees().policy(ctx.to_physical[e]));
  }
  ctx.fees = std::move(fees);

  Mirror& m = ctx.own_mirror;
  m.ledger = std::make_unique<NetworkState>(ctx.local);
  // Mirrors route for a timed lifecycle too: queue their settlements so
  // stage_htlc_parts can re-stage them on the truth instead.
  if (htlc_active_) m.ledger->arm_deferred_settlement();
  // Stale-view routers recompute exhausted table entries: under churn an
  // entry whose every path died must not pin failure until the next view
  // refresh.
  FlashOptions stale_opts = opts_;
  stale_opts.table_recompute_on_exhaustion = true;
  ctx.router = make_router(scheme_, ctx.local, ctx.fees, elephant_threshold_,
                           stale_opts, context_router_seed(sender));
  ctx.view_version = gossip_.view_version(sender);
  ctx.div_truth_version = SenderContext::kNever;
  ctx.div_view_version = SenderContext::kNever;
  // Inverse edge map for journal replay, and a fresh change log on the
  // new mirror; generation 0 forces the next sync_context to full-sync.
  ctx.phys_to_local.assign(pg.num_edges(), 0);
  for (std::size_t le = 0; le < ctx.to_physical.size(); ++le) {
    ctx.phys_to_local[ctx.to_physical[le]] =
        static_cast<std::uint32_t>(le) + 1;
  }
  m.ledger->enable_change_log();
  m.journal_gen = 0;
  m.journal_pos = 0;
  ctx.graph = &ctx.local;
  ctx.to_phys = &ctx.to_physical;
  ctx.phys_map = &ctx.phys_to_local;
  ctx.mirror = &ctx.own_mirror;
  ctx.recycled = false;
}

void ScenarioEngine::build_view_graph() {
  const Graph& g = workload_->graph();
  // The shared full-shape view graph: every sender's gossip view is a
  // subset of the truth channel set (bootstrap seeds everything open and
  // gossip only flips open state), so ONE immutable graph holding every
  // channel in sorted-pair order serves all senders; closed channels are
  // masked per sender. Edge ids here are an order-preserving renaming of
  // any compacted per-view graph's ids, which is what makes masked
  // search results identical to the oracle's (see ARCHITECTURE.md).
  view_graph_ = Graph(g.num_nodes());
  view_graph_.reserve_channels(sorted_channels_.size());
  view_to_physical_.reserve(2 * sorted_channels_.size());
  for (std::size_t i = 0; i < sorted_channels_.size(); ++i) {
    const EdgeId pf = g.channel_forward_edge(sorted_channels_[i]);
    const auto [u, v] = sorted_pairs_[i];
    view_graph_.add_channel(u, v);
    if (g.from(pf) == u) {
      view_to_physical_.push_back(pf);
      view_to_physical_.push_back(g.reverse(pf));
    } else {
      view_to_physical_.push_back(g.reverse(pf));
      view_to_physical_.push_back(pf);
    }
  }
  view_graph_.finalize();
  view_fees_ = FeeSchedule(view_graph_);
  view_phys_to_local_.assign(g.num_edges(), 0);
  for (std::size_t le = 0; le < view_to_physical_.size(); ++le) {
    view_fees_.set_policy(static_cast<EdgeId>(le),
                          workload_->fees().policy(view_to_physical_[le]));
    view_phys_to_local_[view_to_physical_[le]] =
        static_cast<std::uint32_t>(le) + 1;
  }
  view_mirror_.ledger = std::make_unique<NetworkState>(view_graph_);
  view_mirror_.ledger->enable_change_log();
  if (htlc_active_) view_mirror_.ledger->arm_deferred_settlement();
}

std::unique_ptr<Router> ScenarioEngine::make_view_router(
    std::uint64_t seed) const {
  // Stale-view routers recompute exhausted table entries (see
  // rebuild_context).
  FlashOptions stale_opts = opts_;
  stale_opts.table_recompute_on_exhaustion = true;
  return make_router(scheme_, view_graph_, view_fees_, elephant_threshold_,
                     stale_opts, seed);
}

void ScenarioEngine::fill_view_mask(NodeId sender,
                                    std::vector<unsigned char>& mask) const {
  // Only ever-churned channels can be absent from a view (bootstrap seeds
  // every channel open), so start all-open and walk the churned list.
  const Graph& pg = workload_->graph();
  mask.assign(view_graph_.num_edges(), 1);
  const gossip::NodeView& view = gossip_.view(sender);
  for (const std::size_t c : churned_list_) {
    const EdgeId fe = pg.channel_forward_edge(c);
    if (!view.knows_channel(pg.from(fe), pg.to(fe))) {
      const EdgeId vf =
          view_graph_.channel_forward_edge(truth_to_view_channel_[c]);
      mask[vf] = 0;
      mask[view_graph_.reverse(vf)] = 0;
    }
  }
}

std::uint64_t ScenarioEngine::context_router_seed(NodeId sender) const {
  // Fresh deterministic entropy per (sender, view version): a rebuilt or
  // reseeded router must not restart the same randomized-path-order
  // stream, or frequently-refreshed senders would replay one frozen
  // shuffle forever. Shared by the oracle rebuild and the incremental
  // patch path — identical seeds are what keep strict mode bit-identical.
  std::uint64_t mix =
      seed_ ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(sender) + 1)) ^
      (0xbf58476d1ce4e5b9ULL * (gossip_.view_version(sender) + 1));
  return splitmix64(mix);
}

void ScenarioEngine::build_incremental_context(SenderContext& ctx,
                                               NodeId sender) {
  // Counted as a rebuild: this is the incremental engine's from-scratch
  // path (first use of a sender, or a slot recycled from another sender),
  // the moral equivalent of the oracle's rebuild_context.
  ++result_.router_rebuilds;
  ctx.graph = &view_graph_;
  ctx.to_phys = &view_to_physical_;
  ctx.phys_map = &view_phys_to_local_;
  ctx.mirror = &view_mirror_;

  fill_view_mask(sender, ctx.open_mask);

  if (ctx.router) {
    // Recycled slot: a strict clear plus a reseed leaves the router in
    // exactly the state a fresh construction would produce, minus the
    // allocations.
    ctx.router->apply_topology_delta({}, {}, /*strict=*/true);
    ctx.router->reseed(context_router_seed(sender));
  } else {
    ctx.router = make_view_router(context_router_seed(sender));
    if (view_prefetcher_) ctx.router->borrow_prefetch(*view_prefetcher_);
    ctx.router->borrow_workspace(*base_router_);
  }
  ctx.router->set_open_mask(ctx.open_mask.data());
  ctx.view_version = gossip_.view_version(sender);
  ctx.div_truth_version = SenderContext::kNever;
  ctx.div_view_version = SenderContext::kNever;
  ctx.recycled = false;
}

void ScenarioEngine::patch_context(SenderContext& ctx, NodeId sender) {
  ++result_.router_patches;
  const Graph& pg = workload_->graph();
  const gossip::NodeView& view = gossip_.view(sender);
  // Diff the mask against the refreshed view. Only ever-churned channels
  // can have moved; everything else stays open on both sides forever.
  closed_buf_.clear();
  reopened_buf_.clear();
  for (const std::size_t c : churned_list_) {
    const EdgeId fe = pg.channel_forward_edge(c);
    const bool believed_open = view.knows_channel(pg.from(fe), pg.to(fe));
    const EdgeId vf =
        view_graph_.channel_forward_edge(truth_to_view_channel_[c]);
    if (static_cast<bool>(ctx.open_mask[vf]) == believed_open) continue;
    const unsigned char bit = believed_open ? 1 : 0;
    ctx.open_mask[vf] = bit;
    ctx.open_mask[view_graph_.reverse(vf)] = bit;
    (believed_open ? reopened_buf_ : closed_buf_).push_back(vf);
  }
  // Even an empty delta (a newer-sequence announcement that restated the
  // known state) reseeds and applies: the oracle rebuilds on every view
  // VERSION change, and strict mode must trigger exactly when it does.
  ctx.router->reseed(context_router_seed(sender));
  result_.entries_invalidated += ctx.router->apply_topology_delta(
      closed_buf_, reopened_buf_,
      cfg_.maintenance == RouterMaintenance::kIncrementalStrict);
  ctx.view_version = gossip_.view_version(sender);
  ctx.div_truth_version = SenderContext::kNever;
  ctx.div_view_version = SenderContext::kNever;
}

bool ScenarioEngine::view_diverged(SenderContext& ctx, NodeId sender) {
  const std::uint64_t vv = gossip_.view_version(sender);
  if (ctx.div_truth_version == truth_version_ && ctx.div_view_version == vv) {
    return ctx.divergent;
  }
  ctx.div_truth_version = truth_version_;
  ctx.div_view_version = vv;
  ctx.divergent = false;
  const Graph& pg = workload_->graph();
  const gossip::NodeView& view = gossip_.view(sender);
  // Only ever-churned channels can disagree: bootstrap seeds every view
  // with every channel open, the truth only flips open_ through churn,
  // and gossip only carries churn announcements — so un-churned channels
  // are open on both sides forever. O(churned), not O(channels).
  for (const std::size_t c : churned_list_) {
    const EdgeId fe = pg.channel_forward_edge(c);
    if (static_cast<bool>(open_[c]) !=
        view.knows_channel(pg.from(fe), pg.to(fe))) {
      ctx.divergent = true;
      break;
    }
  }
  return ctx.divergent;
}

ScenarioResult run_scenario(const Workload& workload, Scheme scheme,
                            const FlashOptions& opts, const SimConfig& sim,
                            const ScenarioConfig& scenario,
                            std::uint64_t seed) {
  ScenarioEngine engine(workload, scheme, opts, sim, scenario, seed);
  return engine.run();
}

}  // namespace flash
