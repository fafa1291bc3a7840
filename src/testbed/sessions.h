// Sender-side payment sessions: the routing algorithms of the prototype.
//
// Each session drives exactly one payment through the message protocol of
// §5.1 — it can only originate PROBE / COMMIT / CONFIRM / REVERSE messages
// and react to the ACK/NACK messages the network routes back; channel
// balances are never read directly (the sender knows the topology, not the
// balances — the paper's premise). Three algorithms are implemented, the
// same set the testbed evaluation compares (§5.2): Flash, Spider, and SP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "ledger/fee_policy.h"
#include "lp/fee_min.h"
#include "testbed/network.h"
#include "util/rng.h"

namespace flash::testbed {

/// Node-id path (source-routing form used in messages).
using NodePath = std::vector<NodeId>;

/// Base class: lifecycle + the two-phase commit machinery shared by all
/// algorithms (phase 1 COMMIT all sub-payments; phase 2 CONFIRM all or
/// REVERSE all, §5.1).
class PaymentSession {
 public:
  using DoneCallback = std::function<void(bool success)>;

  PaymentSession(Network& net, Amount amount, DoneCallback done);
  virtual ~PaymentSession() = default;

  PaymentSession(const PaymentSession&) = delete;
  PaymentSession& operator=(const PaymentSession&) = delete;

  /// Begins the protocol. May complete synchronously (e.g. no path).
  virtual void start() = 0;

  bool finished() const noexcept { return finished_; }
  bool succeeded() const noexcept { return succeeded_; }
  Amount amount() const noexcept { return amount_; }

 protected:
  struct Part {
    std::uint64_t trans_id = 0;
    NodePath path;
    Amount amount = 0;
    /// Reversal horizon: number of hops that held funds and must be rolled
    /// back. SIZE_MAX (default) means the full path (fully committed part).
    std::size_t reverse_horizon = static_cast<std::size_t>(-1);
  };

  Network& net() noexcept { return *net_; }

  /// Runs two-phase commit over `parts`; calls finish() with the outcome.
  void run_two_phase(std::vector<Part> parts);

  /// Holds that already exist (committed sub-payments from an incremental
  /// protocol like Flash mice) can be confirmed/reversed directly.
  void confirm_parts(std::vector<Part> parts);
  void reverse_parts(std::vector<Part> parts,
                     std::function<void()> on_reversed);

  void finish(bool success);

  /// Registers `cb` for the terminal messages of `trans_id`.
  void listen(std::uint64_t trans_id, Network::SenderCallback cb);
  void unlisten(std::uint64_t trans_id);

 private:
  Network* net_;
  Amount amount_;
  DoneCallback done_;
  bool finished_ = false;
  bool succeeded_ = false;
  std::vector<std::uint64_t> listening_;

  // two-phase state
  std::vector<Part> tp_parts_;
  std::size_t tp_resolved_ = 0;
  bool tp_any_failed_ = false;
  std::unordered_map<std::uint64_t, std::size_t> tp_fail_hops_;
  std::size_t tp_acks_expected_ = 0;
  std::size_t tp_acks_seen_ = 0;

  void tp_on_commit_result(std::uint64_t trans_id, bool ok,
                           std::size_t fail_hop);
  void tp_settle();
};

/// SP: single fewest-hops path, full amount, no probing (§4.1/§5.2).
class SpSession : public PaymentSession {
 public:
  SpSession(Network& net, NodePath path, Amount amount, DoneCallback done);
  void start() override;

 private:
  NodePath path_;
};

/// Spider: probe 4 edge-disjoint shortest paths in parallel, waterfill the
/// demand across the probed capacities, then two-phase commit.
class SpiderSession : public PaymentSession {
 public:
  SpiderSession(Network& net, std::vector<NodePath> paths, Amount amount,
                DoneCallback done);
  void start() override;

 private:
  std::vector<NodePath> paths_;
  std::vector<Amount> caps_;
  std::size_t probes_pending_ = 0;

  void on_probe_ack(std::size_t index, const Message& msg);
  void allocate_and_commit();
};

/// Flash mice: trial-and-error over the routing-table paths in random
/// order — send the full remainder without probing; on NACK, reverse,
/// probe, and commit the path's effective capacity (§3.3).
class FlashMiceSession : public PaymentSession {
 public:
  FlashMiceSession(Network& net, std::vector<NodePath> paths, Amount amount,
                   Rng& rng, DoneCallback done);
  void start() override;

 private:
  std::vector<NodePath> paths_;  // pre-shuffled
  std::size_t index_ = 0;
  Amount remaining_;
  std::vector<Part> held_;

  void try_next_path();
  void probe_then_partial(NodePath path);
};

/// Flash elephant: Algorithm 1 by messages — repeated BFS on the local
/// residual view + PROBE rounds, then the fee-minimizing LP split and
/// two-phase commit (§3.2).
class FlashElephantSession : public PaymentSession {
 public:
  FlashElephantSession(Network& net, const Graph& graph,
                       const FeeSchedule& fees, NodeId sender,
                       NodeId receiver, Amount amount, std::size_t max_paths,
                       DoneCallback done);
  void start() override;

 private:
  const Graph* graph_;
  const FeeSchedule* fees_;
  NodeId sender_;
  NodeId receiver_;
  std::size_t max_paths_;
  std::unordered_map<EdgeId, Amount> residual_;
  // Probed capacity matrix C in PROBE_ACK arrival order — the LP's
  // canonical constraint order, same convention as ElephantProbeResult.
  ProbedCapacities capacities_;
  std::vector<Path> edge_paths_;
  Amount flow_ = 0;
  GraphScratch scratch_;    // residual BFS workspace
  SplitWorkspace split_ws_;  // program (1) / sequential fill workspace

  void probe_round();
  void on_probe_ack(const Path& edge_path, const Message& msg);
  void split_and_commit();
};

}  // namespace flash::testbed
