// Tests for the workload substrate: calibrated size distributions (Fig. 3),
// recurrence structure (Fig. 4), trace I/O, and workload builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/bfs.h"
#include "graph/topology.h"
#include "trace/pair_gen.h"
#include "trace/size_dist.h"
#include "trace/trace_io.h"
#include "trace/workload.h"
#include "util/stats.h"

namespace flash {
namespace {

// --- Size distributions -----------------------------------------------------

TEST(SizeDist, RippleMedianNearPaperValue) {
  Rng rng(1);
  const SizeDistribution d = SizeDistribution::ripple();
  std::vector<double> xs(60001);
  for (auto& x : xs) x = d.sample(rng);
  const double med = percentile(xs, 50);
  // Paper: median payment ~= $4.8. Calibration tolerance: factor ~1.6.
  EXPECT_GT(med, 3.0);
  EXPECT_LT(med, 8.0);
}

TEST(SizeDist, RippleTopDecileCarriesMostVolume) {
  Rng rng(2);
  const SizeDistribution d = SizeDistribution::ripple();
  std::vector<double> xs(60000);
  for (auto& x : xs) x = d.sample(rng);
  // Paper: top 10% of payments carry ~94.5% of volume.
  const double share = top_fraction_share(xs, 0.10);
  EXPECT_GT(share, 0.85);
  EXPECT_LE(share, 1.0);
}

TEST(SizeDist, BitcoinMedianNearPaperValue) {
  Rng rng(3);
  const SizeDistribution d = SizeDistribution::bitcoin();
  std::vector<double> xs(60001);
  for (auto& x : xs) x = d.sample(rng);
  const double med = percentile(xs, 50);
  // Paper: median 1.293e6 satoshi.
  EXPECT_GT(med, 0.6e6);
  EXPECT_LT(med, 2.6e6);
}

TEST(SizeDist, BitcoinTopDecileCarriesMostVolume) {
  Rng rng(4);
  const SizeDistribution d = SizeDistribution::bitcoin();
  std::vector<double> xs(60000);
  for (auto& x : xs) x = d.sample(rng);
  const double share = top_fraction_share(xs, 0.10);
  EXPECT_GT(share, 0.88);  // paper: 94.7%
}

TEST(SizeDist, TailStartsAtThreshold) {
  Rng rng(5);
  const SizeDistribution d = SizeDistribution::ripple();
  // ~10% of samples should exceed the tail threshold ($1,740).
  int above = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) above += (d.sample(rng) >= d.tail_threshold());
  EXPECT_NEAR(static_cast<double>(above) / n, 0.10, 0.02);
}

TEST(SizeDist, AllSamplesPositive) {
  Rng rng(6);
  const SizeDistribution d = SizeDistribution::ripple();
  for (int i = 0; i < 10000; ++i) EXPECT_GT(d.sample(rng), 0);
}

TEST(SizeDist, RejectsBadParameters) {
  EXPECT_THROW(SizeDistribution(-1, 1, 0.1, 10, 2), std::invalid_argument);
  EXPECT_THROW(SizeDistribution(1, 0, 0.1, 10, 2), std::invalid_argument);
  EXPECT_THROW(SizeDistribution(1, 1, 1.5, 10, 2), std::invalid_argument);
  EXPECT_THROW(SizeDistribution(1, 1, 0.1, 10, 0.9), std::invalid_argument);
}

// --- Pair generation ----------------------------------------------------------

TEST(PairGen, SenderNeverEqualsReceiver) {
  Rng rng(7);
  RecurrentPairGenerator gen(50, {}, rng);
  for (int i = 0; i < 5000; ++i) {
    const auto [s, r] = gen.next(rng);
    EXPECT_NE(s, r);
    EXPECT_LT(s, 50u);
    EXPECT_LT(r, 50u);
  }
}

TEST(PairGen, RecurrenceFractionNearConfig) {
  // Measure the recurring fraction the way Fig. 4a does: a transaction is
  // recurring if its (sender, receiver) pair appeared before within the
  // window. With a long window the measured fraction approaches the
  // configured recurrence (86%).
  Rng rng(8);
  PairGenConfig config;
  RecurrentPairGenerator gen(200, config, rng);
  std::set<std::pair<NodeId, NodeId>> seen;
  int recurring = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto pair = gen.next(rng);
    if (!seen.insert(pair).second) ++recurring;
  }
  const double fraction = static_cast<double>(recurring) / n;
  EXPECT_GT(fraction, 0.80);
  EXPECT_LT(fraction, 0.99);
}

TEST(PairGen, TopFiveReceiversCarryMostRecurringVolume) {
  // Fig. 4b: the top-5 recurring counterparties carry >70% of recurring
  // transactions (transaction-weighted across senders), measured with the
  // daily-concentration profile the figure describes.
  Rng rng(9);
  RecurrentPairGenerator gen(300, PairGenConfig::daily(), rng);
  // Count only *recurring* transactions (pair seen before within the same
  // 24h window), as Fig. 4b does: "percentage of top-5 recurring
  // transactions among all recurring transactions in a 24-hour period".
  std::size_t top5_total = 0, total_all = 0;
  for (int day = 0; day < 30; ++day) {
    std::set<std::pair<NodeId, NodeId>> seen;
    std::map<NodeId, std::map<NodeId, int>> recurring;
    for (int i = 0; i < 2000; ++i) {
      const auto pair = gen.next(rng);
      if (!seen.insert(pair).second) ++recurring[pair.first][pair.second];
    }
    for (const auto& [sender, receivers] : recurring) {
      std::vector<int> per_receiver;
      for (const auto& [r, c] : receivers) per_receiver.push_back(c);
      std::sort(per_receiver.rbegin(), per_receiver.rend());
      for (std::size_t i = 0; i < per_receiver.size(); ++i) {
        total_all += static_cast<std::size_t>(per_receiver[i]);
        if (i < 5) top5_total += static_cast<std::size_t>(per_receiver[i]);
      }
    }
  }
  ASSERT_GT(total_all, 0u);
  const double share = static_cast<double>(top5_total) / total_all;
  EXPECT_GT(share, 0.55);
  EXPECT_LT(share, 0.95);
}

TEST(PairGen, HistoryGrowsWithNewReceivers) {
  Rng rng(10);
  RecurrentPairGenerator gen(40, {}, rng);
  for (int i = 0; i < 1000; ++i) gen.next(rng);
  // Some sender must have accumulated more than one counterparty.
  bool some_history = false;
  for (NodeId s = 0; s < 40; ++s) {
    if (gen.receivers_of(s).size() > 1) some_history = true;
  }
  EXPECT_TRUE(some_history);
}

TEST(PairGen, RejectsTinyNetworks) {
  Rng rng(11);
  EXPECT_THROW(RecurrentPairGenerator(1, {}, rng), std::invalid_argument);
}

// --- Trace I/O -------------------------------------------------------------------

TEST(TraceIo, RoundTrip) {
  std::vector<Transaction> txs;
  for (int i = 0; i < 5; ++i) {
    txs.push_back({static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                   1.5 * (i + 1), static_cast<double>(i)});
  }
  std::stringstream ss;
  write_trace(ss, txs);
  const auto back = read_trace(ss);
  ASSERT_EQ(back.size(), txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(back[i].sender, txs[i].sender);
    EXPECT_EQ(back[i].receiver, txs[i].receiver);
    EXPECT_DOUBLE_EQ(back[i].amount, txs[i].amount);
    EXPECT_DOUBLE_EQ(back[i].timestamp, txs[i].timestamp);
  }
}

TEST(TraceIo, TimestampDefaultsToIndex) {
  std::istringstream is("0,1,5.0\n1,2,6.0\n");
  const auto txs = read_trace(is);
  ASSERT_EQ(txs.size(), 2u);
  EXPECT_DOUBLE_EQ(txs[1].timestamp, 1.0);
}

TEST(TraceIo, ToleratesHeaderAndComments) {
  // A header may follow comments (it used to be skipped only on physical
  // line 1, so the second input failed with "trace line 2: parse error").
  for (const char* body : {"sender,receiver,amount\n# note\n0,1,2.5\n",
                           "# exported\nsender,receiver,amount\n0,1,2.5\n"}) {
    std::istringstream is(body);
    const auto txs = read_trace(is);
    ASSERT_EQ(txs.size(), 1u) << body;
    EXPECT_DOUBLE_EQ(txs[0].amount, 2.5);
  }
}

TEST(TraceIo, MalformedBodyThrows) {
  std::istringstream is("0,1,2.5\nbad,row,here\n");
  EXPECT_THROW(read_trace(is), std::runtime_error);
}

// Loading `body` must throw a runtime_error whose message names line 2 and
// contains `what`.
void expect_trace_rejects_line2(const std::string& body, const char* what) {
  std::istringstream is("0,1,2.5\n" + body);
  try {
    read_trace(is);
    ADD_FAILURE() << "accepted: " << body;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace line 2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(TraceIo, RejectsHostileValuesWithLineNumber) {
  // 2^32 used to wrap to sender 0.
  expect_trace_rejects_line2("4294967296,1,nan,inf\n", "node id out of range");
  expect_trace_rejects_line2("0,4294967295,5\n", "node id out of range");
  expect_trace_rejects_line2("0,1,nan\n", "amount is not finite");
  expect_trace_rejects_line2("0,1,inf,3\n", "amount is not finite");
  expect_trace_rejects_line2("0,1,-5\n", "amount is negative");
  expect_trace_rejects_line2("0,1,5,inf\n", "timestamp is not finite");
  expect_trace_rejects_line2("0,1,5,nan\n", "timestamp is not finite");
}

TEST(TraceIo, LargestNodeIdLoads) {
  std::istringstream is("4294967294,0,1\n");
  const auto txs = read_trace(is);
  ASSERT_EQ(txs.size(), 1u);
  EXPECT_EQ(txs[0].sender, kInvalidNode - 1);
}

// --- Workloads --------------------------------------------------------------------

TEST(Workload, ToyWorkloadConsistent) {
  const Workload w = make_toy_workload(30, 100, 5);
  EXPECT_EQ(w.transactions().size(), 100u);
  GraphScratch scratch;
  for (const auto& tx : w.transactions()) {
    EXPECT_NE(tx.sender, tx.receiver);
    EXPECT_GT(tx.amount, 0);
    Path p;
    EXPECT_TRUE(
        bfs_path_core(w.graph(), tx.sender, tx.receiver, scratch, AdmitAll{},
                      p));
  }
}

TEST(Workload, MakeStateAppliesScale) {
  const Workload w = make_toy_workload(20, 10, 6);
  const NetworkState s1 = w.make_state(1.0);
  const NetworkState s10 = w.make_state(10.0);
  EXPECT_NEAR(s10.total_balance(), 10 * s1.total_balance(), 1e-6);
  EXPECT_TRUE(s10.check_invariants());
}

TEST(Workload, StatesAreIndependent) {
  const Workload w = make_toy_workload(20, 10, 7);
  NetworkState a = w.make_state();
  const NetworkState b = w.make_state();
  const auto id = a.hold(Path{0}, a.balance(0) / 2);
  ASSERT_TRUE(id);
  EXPECT_NE(a.balance(0), b.balance(0));
  a.abort(*id);
}

TEST(Workload, SizeQuantileMonotone) {
  const Workload w = make_toy_workload(20, 500, 8);
  EXPECT_LE(w.size_quantile(0.5), w.size_quantile(0.9));
  EXPECT_LE(w.size_quantile(0.9), w.size_quantile(0.99));
}

TEST(Workload, TruncatedKeepsPrefix) {
  const Workload w = make_toy_workload(20, 100, 9);
  const Workload t = w.truncated(10);
  ASSERT_EQ(t.transactions().size(), 10u);
  EXPECT_EQ(t.transactions()[3].sender, w.transactions()[3].sender);
  EXPECT_EQ(t.graph().num_edges(), w.graph().num_edges());
}

TEST(Workload, TestbedWorkloadShape) {
  WorkloadConfig c;
  c.num_transactions = 50;
  c.seed = 3;
  const Workload w = make_testbed_workload(50, 1000, 1500, c);
  EXPECT_EQ(w.graph().num_nodes(), 50u);
  EXPECT_EQ(w.transactions().size(), 50u);
  const NetworkState s = w.make_state();
  for (std::size_t ch = 0; ch < w.graph().num_channels(); ++ch) {
    const EdgeId e = w.graph().channel_forward_edge(ch);
    const Amount cap = s.balance(e) + s.balance(w.graph().reverse(e));
    EXPECT_GE(cap, 1000 - 1e-6);
    EXPECT_LT(cap, 1500);
  }
}

TEST(Workload, DeterministicPerSeed) {
  WorkloadConfig c;
  c.num_transactions = 30;
  c.seed = 11;
  const Workload a = make_testbed_workload(30, 100, 200, c);
  const Workload b = make_testbed_workload(30, 100, 200, c);
  ASSERT_EQ(a.transactions().size(), b.transactions().size());
  for (std::size_t i = 0; i < a.transactions().size(); ++i) {
    EXPECT_EQ(a.transactions()[i].sender, b.transactions()[i].sender);
    EXPECT_DOUBLE_EQ(a.transactions()[i].amount, b.transactions()[i].amount);
  }
}

TEST(Workload, SizeQuantileMemoMatchesDirectComputation) {
  // The memoized quantile must be bit-identical to the direct
  // percentile-over-all-amounts computation, on first and repeat calls.
  const Workload w = make_toy_workload(25, 400, 13);
  for (const double q : {0.5, 0.9, 0.99}) {
    std::vector<double> sizes;
    for (const auto& tx : w.transactions()) sizes.push_back(tx.amount);
    const Amount direct = percentile(std::move(sizes), q * 100.0);
    EXPECT_EQ(w.size_quantile(q), direct);  // cold
    EXPECT_EQ(w.size_quantile(q), direct);  // memoized
  }
}

// Oracle: the pre-refactor make_testbed_workload generation loop, verbatim.
// The fold into generate_transactions (uniform-pairs mode) must consume the
// RNG stream identically, so the whole trace is pinned bit-for-bit.
TEST(Workload, TestbedTraceMatchesPreFoldOracle) {
  constexpr std::size_t kNodes = 40;
  constexpr Amount kCapLo = 500, kCapHi = 900;
  WorkloadConfig c;
  c.num_transactions = 120;
  c.seed = 17;

  Rng rng(c.seed);
  Graph g = watts_strogatz(kNodes, 8, 0.3, rng);
  NetworkState init(g);
  init.assign_uniform_skewed(kCapLo, kCapHi, 0.35, 0.65, rng);
  FeeSchedule fees = FeeSchedule::paper_default(g, rng);
  const bool check_pairs = c.ensure_connectivity && !is_connected(g);
  const SizeDistribution sizes = SizeDistribution::ripple();
  GraphScratch scratch;
  Path p;
  std::vector<Transaction> expected;
  while (expected.size() < c.num_transactions) {
    const auto s = static_cast<NodeId>(rng.next_below(kNodes));
    const auto r = static_cast<NodeId>(rng.next_below(kNodes));
    if (s == r) continue;
    if (check_pairs && !bfs_path_core(g, s, r, scratch, AdmitAll{}, p)) {
      continue;
    }
    Transaction tx;
    tx.sender = s;
    tx.receiver = r;
    tx.amount = sizes.sample(rng);
    tx.timestamp = static_cast<double>(expected.size());
    expected.push_back(tx);
  }

  const Workload w = make_testbed_workload(kNodes, kCapLo, kCapHi, c);
  ASSERT_EQ(w.transactions().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(w.transactions()[i].sender, expected[i].sender);
    EXPECT_EQ(w.transactions()[i].receiver, expected[i].receiver);
    EXPECT_EQ(w.transactions()[i].amount, expected[i].amount);  // exact bits
    EXPECT_EQ(w.transactions()[i].timestamp, expected[i].timestamp);
  }
}

// Oracle: the pre-refactor per-draw receiver-Zipf renormalization. The
// precomputed weight table must keep the generated pair stream identical.
TEST(PairGen, RecurrentDrawsMatchPerDrawPowOracle) {
  PairGenConfig config;  // defaults: recurrence 0.86, zipf 1.0, ws 18
  constexpr std::size_t kNodes = 60;
  constexpr std::size_t kDraws = 4000;

  // Oracle: a shadow generator driven by the same RNG stream, with the
  // working-set logic mirrored and the weights recomputed per draw.
  struct Entry {
    NodeId receiver;
    std::uint64_t last_used;
  };
  std::map<NodeId, std::vector<Entry>> working;
  std::uint64_t clock = 0;
  const auto remember = [&](NodeId owner, NodeId counterparty) {
    auto& ws = working[owner];
    const auto known = std::find_if(
        ws.begin(), ws.end(),
        [&](const Entry& e) { return e.receiver == counterparty; });
    if (known != ws.end()) {
      known->last_used = clock;
      return;
    }
    if (ws.size() >= config.working_set) {
      ws.erase(std::min_element(ws.begin(), ws.end(),
                                [](const Entry& a, const Entry& b) {
                                  return a.last_used < b.last_used;
                                }));
    }
    ws.push_back({counterparty, clock});
  };

  Rng oracle_rng(23);
  std::vector<NodeId> identity(kNodes);
  std::iota(identity.begin(), identity.end(), NodeId{0});
  oracle_rng.shuffle(identity);
  const ZipfSampler sender_sampler(kNodes, config.sender_zipf_s);

  Rng rng(23);
  RecurrentPairGenerator gen(kNodes, config, rng);

  for (std::size_t d = 0; d < kDraws; ++d) {
    ++clock;
    const NodeId sender = identity[sender_sampler(oracle_rng)];
    NodeId receiver = kInvalidNode;
    auto& ws = working[sender];
    bool drew_recurrent = false;
    if (!ws.empty() && oracle_rng.chance(config.recurrence)) {
      double total = 0;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1),
                                config.receiver_zipf_s);
      }
      double r = oracle_rng.uniform() * total;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        r -= 1.0 / std::pow(static_cast<double>(i + 1),
                            config.receiver_zipf_s);
        if (r < 0) {
          ws[i].last_used = clock;
          receiver = ws[i].receiver;
          drew_recurrent = true;
          break;
        }
      }
      if (!drew_recurrent) {
        ws.back().last_used = clock;
        receiver = ws.back().receiver;
        drew_recurrent = true;
      }
    }
    if (!drew_recurrent) {
      while (true) {
        const auto r = static_cast<NodeId>(oracle_rng.next_below(kNodes));
        if (r != sender) {
          receiver = r;
          break;
        }
      }
      remember(sender, receiver);
    }
    if (config.bidirectional_relationships) remember(receiver, sender);

    const auto [s, r] = gen.next(rng);
    ASSERT_EQ(s, sender) << "draw " << d;
    ASSERT_EQ(r, receiver) << "draw " << d;
  }
}

}  // namespace
}  // namespace flash
