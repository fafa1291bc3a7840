// Concurrent payment-engine benchmark: sustained routing throughput and
// per-payment latency of both ScenarioExecution modes on the same
// workload, plus the replay-determinism evidence the CI smoke gate checks.
//
// Rows are mode x threads: `sequential` (the threads=1 oracle, with
// payment-indexed rng on so it is the replay equality baseline) and
// `replay` (speculative routing, logical-order settlement — bit-identical
// digest at every thread count). The cell is churn-free and retry-free:
// static inputs are where replay speculates.
//
// Knobs (on top of bench_common.h's): FLASH_BENCH_WORKERS is a comma list
// of thread counts for the concurrent rows (default "1,2,8").
// FLASH_BENCH_JSON writes the structured report run_benches.sh folds into
// BENCH_micro.json under "concurrent"; CI asserts every replay row's
// digest equals the sequential row's digest there.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/topology.h"
#include "sim/scenario.h"
#include "trace/workload_stream.h"
#include "util/table.h"

namespace flash::bench {
namespace {

struct ConcRow {
  const char* mode;
  std::size_t threads = 1;
  double wall_seconds = 0;
  double payments_per_sec = 0;
  ScenarioResult result;
};

std::vector<std::size_t> worker_counts() {
  const char* env = std::getenv("FLASH_BENCH_WORKERS");
  const std::string spec = (env && *env) ? env : "1,2,8";
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const long v = std::atol(tok.c_str());
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) out = {1, 2, 8};
  return out;
}

ConcRow run_row(const Workload& w, const char* mode, ScenarioExecution exec,
                std::size_t threads, std::size_t payments) {
  GeneratedStreamConfig stream_cfg;
  stream_cfg.count = payments;
  stream_cfg.sizes = SizeDistribution::bitcoin();
  stream_cfg.pair_config = PairGenConfig::daily();
  GeneratedWorkloadStream stream(w.graph(), /*seed=*/2, stream_cfg);

  FlashOptions opts;
  SimConfig sim;
  sim.invariant_stride = 4096;
  ScenarioConfig scenario;
  scenario.concurrency.execution = exec;
  scenario.concurrency.workers = threads;
  // The oracle must share replay's per-payment rng pinning,
  // or the digests would differ by design rather than by bug.
  scenario.payment_indexed_rng = true;

  ScenarioEngine engine(w, stream, Scheme::kShortestPath, opts, sim,
                        scenario, /*seed=*/7);
  const auto start = std::chrono::steady_clock::now();
  ScenarioResult result = engine.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  ConcRow row;
  row.mode = mode;
  row.threads = threads;
  row.wall_seconds = elapsed.count();
  row.payments_per_sec =
      static_cast<double>(payments) / std::max(elapsed.count(), 1e-9);
  row.result = std::move(result);
  return row;
}

void write_json(const std::string& path, const std::vector<ConcRow>& rows,
                std::size_t nodes, std::size_t payments,
                double wall_seconds) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write FLASH_BENCH_JSON=%s\n",
                 path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"bench_concurrent\",\n";
  out << "  \"wall_seconds\": " << wall_seconds << ",\n";
  out << "  \"nodes\": " << nodes << ",\n";
  out << "  \"payments\": " << payments << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConcRow& r = rows[i];
    out << "    {\"mode\": \"" << r.mode << "\""
        << ", \"threads\": " << r.threads
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"payments_per_sec\": " << r.payments_per_sec
        << ", \"success_ratio\": " << r.result.sim.success_ratio()
        << ", \"latency_p50_seconds\": " << r.result.latency.p50_seconds
        << ", \"latency_p99_seconds\": " << r.result.latency.p99_seconds
        << ", \"digest\": " << r.result.payment_digest
        << ", \"spec_accepted\": " << r.result.spec_accepted
        << ", \"spec_rerouted\": " << r.result.spec_rerouted << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("json report: %s\n", path.c_str());
}

int run() {
  std::size_t nodes = 10000;
  std::size_t payments = 50000;
  if (smoke_mode()) {
    nodes = 1000;
    payments = 2000;
  } else if (fast_mode()) {
    nodes = 5000;
    payments = 10000;
  }

  print_header("bench_concurrent",
               "route->settle pipeline: sequential vs replay");
  Rng rng(1);
  const Graph g = scale_free_lightning(nodes, rng);
  LightningSnapshot snap;
  snap.num_nodes = g.num_nodes();
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    const EdgeId e = g.channel_forward_edge(c);
    const Amount capacity = rng.lognormal(std::log(500000.0), 1.6);
    snap.channels.push_back({g.from(e), g.to(e), capacity / 2, capacity / 2,
                             0.0, 0.001, 0.0, 0.001});
  }
  const Workload w = make_snapshot_workload(snap, "concurrent");

  const auto start = std::chrono::steady_clock::now();
  std::vector<ConcRow> rows;
  std::printf("-- sequential oracle: %zu nodes, %zu payments\n", nodes,
              payments);
  rows.push_back(
      run_row(w, "sequential", ScenarioExecution::kSequential, 1, payments));
  for (const std::size_t t : worker_counts()) {
    std::printf("-- replay x%zu\n", t);
    rows.push_back(
        run_row(w, "replay", ScenarioExecution::kReplay, t, payments));
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  TextTable tab;
  tab.header({"mode", "threads", "pay/s", "success", "p50 ms", "p99 ms",
              "accepted", "rerouted", "digest"});
  for (const ConcRow& r : rows) {
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.result.payment_digest));
    tab.row({r.mode, std::to_string(r.threads), fmt(r.payments_per_sec, 0),
             fmt_pct(r.result.sim.success_ratio()),
             fmt(r.result.latency.p50_seconds * 1e3, 3),
             fmt(r.result.latency.p99_seconds * 1e3, 3),
             std::to_string(r.result.spec_accepted),
             std::to_string(r.result.spec_rerouted), digest});
  }
  print_table(tab);

  // The determinism headline, checked loud here and again by CI on the
  // JSON: every replay row reproduces the sequential digest bit-for-bit.
  bool identical = true;
  for (const ConcRow& r : rows) {
    if (std::string(r.mode) == "replay" &&
        r.result.payment_digest != rows.front().result.payment_digest) {
      identical = false;
    }
  }
  claim("replay digest == sequential digest (all thread counts)", "exact",
        identical ? "exact" : "MISMATCH");

  const char* path = std::getenv("FLASH_BENCH_JSON");
  if (path && *path) write_json(path, rows, nodes, payments, elapsed.count());
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace flash::bench

int main() { return flash::bench::run(); }
