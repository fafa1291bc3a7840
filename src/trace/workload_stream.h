// Streaming transaction sources: O(1)-memory alternatives to materialized
// std::vector<Transaction> workloads.
//
// A fig-scale run holds a few thousand Transactions, but the ROADMAP's
// Lightning-scale runs stream 10^5-10^6 payments — materializing those
// first is pure peak-RSS waste when the simulator consumes them strictly
// in arrival order anyway. A WorkloadStream yields transactions one at a
// time; generators hold only their rng + pair-generator state, so memory
// is independent of the payment count. VectorWorkloadStream adapts an
// existing vector (the fig benches), which keeps every materialized-path
// caller bit-identical with the streaming engine underneath.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"
#include "trace/pair_gen.h"
#include "trace/size_dist.h"
#include "trace/transaction.h"
#include "util/rng.h"

namespace flash {

/// Sequential transaction source. Deterministic per seed: two streams
/// constructed (or reset) with the same seed yield identical sequences.
class WorkloadStream {
 public:
  virtual ~WorkloadStream() = default;

  /// Yields the next transaction into `out`. Returns false when the stream
  /// is exhausted (out is then untouched).
  virtual bool next(Transaction& out) = 0;

  /// Rewinds to the first transaction, reproducing the same sequence.
  virtual void reset() = 0;

  /// Rewinds with a different seed (a fresh deterministic sequence).
  virtual void reset(std::uint64_t seed) = 0;

  /// Total number of transactions the stream yields per pass. Known up
  /// front so consumers can pre-commit counters (the scenario engine
  /// reserves event sequence numbers per arrival) without buffering.
  virtual std::size_t size() const = 0;
};

/// Adapter presenting an existing transaction vector as a stream. Holds a
/// pointer to the caller's storage (no copy); the vector must outlive the
/// stream. reset(seed) ignores the seed — a replay has no randomness left.
class VectorWorkloadStream final : public WorkloadStream {
 public:
  explicit VectorWorkloadStream(const std::vector<Transaction>& txs)
      : txs_(&txs) {}

  bool next(Transaction& out) override {
    if (pos_ >= txs_->size()) return false;
    out = (*txs_)[pos_++];
    return true;
  }
  void reset() override { pos_ = 0; }
  void reset(std::uint64_t /*seed*/) override { pos_ = 0; }
  std::size_t size() const override { return txs_->size(); }

 private:
  const std::vector<Transaction>* txs_;
  std::size_t pos_ = 0;
};

/// How a generated stream draws sender/receiver pairs.
enum class StreamPairMode {
  /// Recurrent pairs (Fig. 4), activity ranked by node degree — the
  /// simulation workloads.
  kRecurrentByDegree,
  /// Independent uniform pairs — the testbed workload (§5.2).
  kUniform,
};

struct GeneratedStreamConfig {
  std::size_t count = 0;
  StreamPairMode mode = StreamPairMode::kRecurrentByDegree;
  SizeDistribution sizes = SizeDistribution::ripple();
  /// Pair recurrence profile (recurrent mode only).
  PairGenConfig pair_config;
  /// When true and the topology is disconnected, resample pairs until a
  /// path exists (the paper guarantees one, §5.2). The connectivity check
  /// runs once at construction; connected graphs skip per-pair BFS.
  bool ensure_connectivity = true;
};

/// Generates the transaction sequence of the simulation workloads on the
/// fly: identical draws, in identical rng order, to the materializing
/// generator in workload.cc — which is in fact implemented on top of this
/// stream. State is O(nodes) (pair-generator working sets + degree rank),
/// independent of config.count.
class GeneratedWorkloadStream final : public WorkloadStream {
 public:
  /// Draws from a fresh Rng(seed).
  GeneratedWorkloadStream(const Graph& g, std::uint64_t seed,
                          GeneratedStreamConfig config);

  /// Continues an existing rng (taken by value; read it back with rng()
  /// after exhausting the stream to keep a caller's draw sequence going).
  GeneratedWorkloadStream(const Graph& g, Rng rng,
                          GeneratedStreamConfig config);

  bool next(Transaction& out) override;
  void reset() override;
  void reset(std::uint64_t seed) override;
  std::size_t size() const override { return config_.count; }

  /// The rng after the draws made so far (value semantics).
  const Rng& rng() const noexcept { return rng_; }

 private:
  void rebuild_pair_state();

  const Graph* graph_;
  GeneratedStreamConfig config_;
  Rng initial_rng_;  // reset() restores this
  Rng rng_;
  std::optional<RecurrentPairGenerator> pairs_;
  bool check_pairs_ = false;
  GraphScratch scratch_;  // BFS workspace of the pair check
  std::size_t emitted_ = 0;
};

}  // namespace flash
