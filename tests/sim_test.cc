// Tests for the simulation engine and the experiment harness.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "routing/router.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/workload.h"

namespace flash {
namespace {

// Routes through `inner`, then on its `payments`-th call locks one unit on
// the first funded edge and never releases it.
class LeakOnLastPayment final : public Router {
 public:
  LeakOnLastPayment(std::unique_ptr<Router> inner, std::size_t payments)
      : inner_(std::move(inner)), left_(payments) {}

  RouteResult route(const Transaction& tx, NetworkState& state) override {
    const RouteResult r = inner_->route(tx, state);
    if (--left_ == 0) {
      EdgeId e = 0;
      while (state.balance(e) < 1) ++e;
      EXPECT_TRUE(state.extend_hold(state.open_hold(), e, 1));
    }
    return r;
  }
  std::string name() const override { return "leak-on-last"; }

 private:
  std::unique_ptr<Router> inner_;
  std::size_t left_;
};

TEST(Simulator, CountsEveryTransaction) {
  const Workload w = make_toy_workload(30, 200, 1);
  const auto router = make_router(Scheme::kShortestPath, w, {}, 1);
  const SimResult r = run_simulation(w, *router);
  EXPECT_EQ(r.transactions, 200u);
  EXPECT_EQ(r.mice_transactions + r.elephant_transactions, 200u);
  EXPECT_LE(r.successes, r.transactions);
  EXPECT_LE(r.volume_succeeded, r.volume_attempted + 1e-9);
}

TEST(Simulator, HoldLeakedAfterLastStrideThrows) {
  // 300 payments at the default stride of 256: the leak lands after the
  // last strided check, so only the end-of-run check can see it.
  const Workload w = make_toy_workload(30, 300, 1);
  LeakOnLastPayment router(make_router(Scheme::kShortestPath, w, {}, 1), 300);
  try {
    run_simulation(w, router);
    ADD_FAILURE() << "leaked hold went unnoticed";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("leaked holds at end"),
              std::string::npos)
        << e.what();
  }
}

TEST(Simulator, ObserverSeesEachPayment) {
  const Workload w = make_toy_workload(30, 50, 2);
  const auto router = make_router(Scheme::kShortestPath, w, {}, 1);
  std::size_t seen = 0;
  run_simulation(w, *router, {}, [&](std::size_t i, const Transaction&,
                                     const RouteResult&) {
    EXPECT_EQ(i, seen);
    ++seen;
  });
  EXPECT_EQ(seen, 50u);
}

TEST(Simulator, ClassThresholdSplitsNinetyTen) {
  const Workload w = make_toy_workload(30, 1000, 3);
  const auto router = make_router(Scheme::kShortestPath, w, {}, 1);
  const SimResult r = run_simulation(w, *router);
  // Default threshold is the 90th percentile.
  EXPECT_NEAR(static_cast<double>(r.mice_transactions) / r.transactions, 0.9,
              0.02);
}

TEST(Simulator, CapacityScaleImprovesSuccess) {
  const Workload w = make_toy_workload(40, 400, 4);
  const auto r1 = make_router(Scheme::kFlash, w, {}, 1);
  const SimResult low = run_simulation(w, *r1, {1.0});
  const auto r2 = make_router(Scheme::kFlash, w, {}, 1);
  const SimResult high = run_simulation(w, *r2, {50.0});
  EXPECT_GT(high.success_ratio(), low.success_ratio());
  EXPECT_GT(high.volume_succeeded, low.volume_succeeded);
}

TEST(Simulator, FeeRatioIsFractional) {
  const Workload w = make_toy_workload(30, 300, 5);
  const auto router = make_router(Scheme::kFlash, w, {}, 1);
  const SimResult r = run_simulation(w, *router, {10.0});
  if (r.volume_succeeded > 0) {
    EXPECT_GT(r.fee_ratio(), 0.0);
    EXPECT_LT(r.fee_ratio(), 0.5);  // fees are a few percent of volume
  }
}

TEST(Experiment, SchemeNamesAndFactories) {
  EXPECT_EQ(scheme_name(Scheme::kFlash), "Flash");
  EXPECT_EQ(scheme_name(Scheme::kSpider), "Spider");
  EXPECT_EQ(scheme_name(Scheme::kSpeedyMurmurs), "SpeedyMurmurs");
  EXPECT_EQ(scheme_name(Scheme::kShortestPath), "SP");
  EXPECT_EQ(all_schemes().size(), 4u);
  const Workload w = make_toy_workload(20, 10, 6);
  for (Scheme s : all_schemes()) {
    const auto router = make_router(s, w, {}, 1);
    EXPECT_EQ(router->name(), scheme_name(s));
  }
}

TEST(Experiment, RunSeriesAggregates) {
  const WorkloadFactory factory = [](std::uint64_t seed) {
    return make_toy_workload(25, 100, seed);
  };
  const RunSeries series =
      run_series(factory, Scheme::kShortestPath, {}, {5.0}, 3);
  ASSERT_EQ(series.runs.size(), 3u);
  const Aggregate ratio = series.success_ratio();
  EXPECT_LE(ratio.min, ratio.mean);
  EXPECT_LE(ratio.mean, ratio.max);
  EXPECT_GE(ratio.min, 0.0);
  EXPECT_LE(ratio.max, 1.0);
}

TEST(Experiment, SeriesIsDeterministic) {
  const WorkloadFactory factory = [](std::uint64_t seed) {
    return make_toy_workload(25, 100, seed);
  };
  const RunSeries a = run_series(factory, Scheme::kFlash, {}, {5.0}, 2, 7);
  const RunSeries b = run_series(factory, Scheme::kFlash, {}, {5.0}, 2, 7);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].successes, b.runs[i].successes);
    EXPECT_DOUBLE_EQ(a.runs[i].volume_succeeded, b.runs[i].volume_succeeded);
    EXPECT_EQ(a.runs[i].probe_messages, b.runs[i].probe_messages);
  }
}

TEST(Experiment, FlashBeatsShortestPathOnVolume) {
  // The headline claim, in miniature: with realistic (scarce) capacity,
  // Flash should deliver clearly more volume than single-path routing.
  const WorkloadFactory factory = [](std::uint64_t seed) {
    return make_toy_workload(50, 600, seed);
  };
  const RunSeries flash = run_series(factory, Scheme::kFlash, {}, {5.0}, 2);
  const RunSeries sp =
      run_series(factory, Scheme::kShortestPath, {}, {5.0}, 2);
  EXPECT_GT(flash.success_volume().mean, 1.2 * sp.success_volume().mean);
}

TEST(Experiment, FlashProbesLessThanSpider) {
  const WorkloadFactory factory = [](std::uint64_t seed) {
    return make_toy_workload(50, 600, seed);
  };
  const RunSeries flash = run_series(factory, Scheme::kFlash, {}, {10.0}, 2);
  const RunSeries spider =
      run_series(factory, Scheme::kSpider, {}, {10.0}, 2);
  EXPECT_LT(flash.probe_messages().mean, spider.probe_messages().mean);
}

}  // namespace
}  // namespace flash
