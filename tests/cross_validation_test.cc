// Cross-validation: the ledger simulator and the message-level testbed are
// two independent implementations of the same routing algorithms and
// settlement semantics. For deterministic schemes (SP, Spider) they must
// produce *identical* outcomes — per-payment success and final channel
// balances — on the same transaction stream. A divergence in either
// implementation shows up here.
#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/edge_disjoint.h"
#include "routing/shortest_path.h"
#include "routing/spider.h"
#include "testbed/network.h"
#include "testbed/sessions.h"
#include "trace/workload.h"
#include "testutil.h"

namespace flash {
namespace {

struct Fixture {
  Workload workload;
  NetworkState ledger;
  testbed::Network net;

  explicit Fixture(std::uint64_t seed, std::size_t nodes = 25,
                   std::size_t txs = 300)
      : workload(make_testbed_workload(nodes, 500, 1000,
                                       WorkloadConfig{txs, seed, true})),
        ledger(workload.make_state()),
        net(workload.graph()) {
    for (EdgeId e = 0; e < workload.graph().num_edges(); ++e) {
      net.set_balance(e, ledger.balance(e));
    }
  }

  void expect_balances_match(const char* label) {
    for (EdgeId e = 0; e < workload.graph().num_edges(); ++e) {
      ASSERT_NEAR(ledger.balance(e), net.balance(e), 1e-6)
          << label << ": divergence at edge " << e;
    }
  }
};

TEST(CrossValidation, ShortestPathIdenticalOutcomes) {
  Fixture f(11);
  const Graph& g = f.workload.graph();
  FeeSchedule fees(g);
  ShortestPathRouter router(g, fees);
  GraphScratch scratch;

  for (const Transaction& tx : f.workload.transactions()) {
    // Ledger side.
    const RouteResult sim = router.route(tx, f.ledger);
    // Testbed side, same shortest path.
    Path p;
    bfs_path_core(g, tx.sender, tx.receiver, scratch, AdmitAll{}, p);
    bool tb_success = false;
    if (!p.empty()) {
      testbed::SpSession session(f.net, g.path_nodes(p, tx.sender),
                                 tx.amount,
                                 [&](bool ok) { tb_success = ok; });
      session.start();
      f.net.queue().run_until_idle(1u << 22);
    }
    ASSERT_EQ(sim.success, tb_success)
        << "payment " << tx.sender << "->" << tx.receiver << " amount "
        << tx.amount;
  }
  f.expect_balances_match("SP");
  EXPECT_DOUBLE_EQ(f.net.total_pending(), 0);
}

TEST(CrossValidation, SpiderIdenticalOutcomes) {
  Fixture f(13);
  const Graph& g = f.workload.graph();
  FeeSchedule fees(g);
  SpiderRouter router(g, fees);
  GraphScratch scratch;
  std::vector<Path> edge_paths;

  for (const Transaction& tx : f.workload.transactions()) {
    const RouteResult sim = router.route(tx, f.ledger);

    edge_disjoint_core(g, tx.sender, tx.receiver, 4, scratch, edge_paths);
    std::vector<testbed::NodePath> node_paths;
    for (const Path& p : edge_paths) {
      node_paths.push_back(g.path_nodes(p, tx.sender));
    }
    bool tb_success = false;
    if (!node_paths.empty()) {
      testbed::SpiderSession session(f.net, node_paths, tx.amount,
                                     [&](bool ok) { tb_success = ok; });
      session.start();
      f.net.queue().run_until_idle(1u << 22);
    }
    ASSERT_EQ(sim.success, tb_success)
        << "payment " << tx.sender << "->" << tx.receiver << " amount "
        << tx.amount;
  }
  f.expect_balances_match("Spider");
  EXPECT_DOUBLE_EQ(f.net.total_pending(), 0);
}

TEST(CrossValidation, LedgerAndTestbedConserveSameTotal) {
  Fixture f(17);
  const Amount ledger_total = f.ledger.total_balance();
  const Amount net_total = f.net.total_balance();
  EXPECT_NEAR(ledger_total, net_total, 1e-6);
}

}  // namespace
}  // namespace flash
