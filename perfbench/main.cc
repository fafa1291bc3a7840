// flash_perfbench: one repetition of one benchmark workload, reported as a
// single JSON line on stdout. run.py drives it (repetitions, gates,
// medians); this program only builds inputs, runs the engine and measures.
//
//   flash_perfbench --workload <name> --seed <n> --mode <mode>
//                   [--payments <n>]
//
// Modes:
//   run        set up through the public ScenarioEngine constructor, run(),
//              report the end-to-end measurements (untraced).
//   reference  the same, on the workload's sequential oracle (replay's
//              digest gate and speed-up baseline).
//   traced     time set-up phases separately; on static-recurrent, route
//              through run_simulation with TimedFlashRouter for per-layer
//              attribution; elsewhere, spans around the constructor and
//              run() only.
//
// Exits 1 with a message on stderr when the engine throws (conservation or
// invariant violation) or the arguments are bad.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "routing/flash/flash_router.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "timed_router.h"
#include "workloads.h"

namespace {

using namespace flash;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Set-ups per untraced repetition; setup_s is their median. Only the
/// first one runs, the others follow the run so they cannot raise its peak
/// RSS. The other modes set up once: run.py takes setup_s only from
/// untraced repetitions.
constexpr std::size_t kSetups = 9;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 != 0) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<long>(mid)) +
          hi) / 2;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

/// One flat JSON object, written field by field.
class JsonLine {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key) << buf;
  }
  void count(const std::string& key, std::uint64_t v) { field(key) << v; }
  void str(const std::string& key, const std::string& v) {
    field(key) << '"' << v << '"';
  }
  std::string finish() { return out_.str() + "}"; }

 private:
  std::ostringstream& field(const std::string& key) {
    out_ << (first_ ? "{" : ", ") << '"' << key << "\": ";
    first_ = false;
    return out_;
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void report_sim_totals(JsonLine& j, const SimResult& s) {
  j.count("transactions", s.transactions);
  j.count("successes", s.successes);
  j.count("retries", s.retries);
  j.num("volume_attempted", s.volume_attempted);
  j.num("volume_succeeded", s.volume_succeeded);
  j.num("fees_paid", s.fees_paid);
  j.count("probe_messages", s.probe_messages);
  j.count("mice_probe_messages", s.mice_probe_messages);
  j.count("elephant_probe_messages", s.elephant_probe_messages);
  j.count("stale_view_failures", s.stale_view_failures);
}

void report_scenario(JsonLine& j, const ScenarioResult& r) {
  report_sim_totals(j, r.sim);
  j.str("digest", hex64(r.payment_digest));
  j.count("latency_count", r.latency.count);
  j.num("latency_p50_us", r.latency.p50_seconds * 1e6);
  j.num("latency_p99_us", r.latency.p99_seconds * 1e6);
  j.count("router_rebuilds", r.router_rebuilds);
  j.count("router_patches", r.router_patches);
  j.count("entries_invalidated", r.entries_invalidated);
  j.count("sender_cache_misses", r.router_cache_misses);
  j.count("gossip_messages", r.gossip_messages);
  j.count("gossip_rounds", r.gossip_rounds);
  j.count("htlc_payments", r.htlc_payments);
  j.count("htlc_max_inflight", r.htlc_max_inflight);
  j.count("htlc_inflight_failures", r.htlc_inflight_failures);
  j.count("htlc_offline_failures", r.htlc_offline_failures);
  j.num("htlc_sim_latency_p50", r.sim_latency.p50_seconds);
  j.count("fault_window_payments", r.fault_window_payments);
  j.count("fault_window_successes", r.fault_window_successes);
  j.count("post_fault_payments", r.post_fault_payments);
  j.count("post_fault_successes", r.post_fault_successes);
  j.count("spec_accepted", r.spec_accepted);
  j.count("spec_rerouted", r.spec_rerouted);
}

void report_layers(JsonLine& j, const LayerTrace& t) {
  j.num("route_s", (sum(t.mice_hit_us) + sum(t.mice_miss_us) +
                    sum(t.elephant_us)) * 1e-6);
  j.count("mice_hit_count", t.mice_hit_us.size());
  j.num("mice_hit_us", median(t.mice_hit_us));
  j.num("mice_hit_s", sum(t.mice_hit_us) * 1e-6);
  j.count("mice_miss_count", t.mice_miss_us.size());
  j.num("mice_miss_us", median(t.mice_miss_us));
  j.num("mice_miss_s", sum(t.mice_miss_us) * 1e-6);
  j.count("elephant_count", t.elephant_us.size());
  j.num("elephant_us", median(t.elephant_us));
  j.num("elephant_s", sum(t.elephant_us) * 1e-6);
  j.count("yen_calls", t.yen_us.size());
  j.num("yen_us", median(t.yen_us));
  j.num("probe_us", median(t.probe_us));
  j.num("probe_s", sum(t.probe_us) * 1e-6);
  j.count("probes_traced", t.probe_us.size());
  j.count("paths_found", t.paths_found);
  j.num("split_us", median(t.split_us));
  j.num("split_s", sum(t.split_us) * 1e-6);
  j.count("lp_fallbacks", t.lp_fallbacks);
  j.count("mismatches", t.mismatches);
  j.num("side_s", t.side_us * 1e-6);
}

struct Args {
  std::string workload;
  std::string mode = "run";
  std::uint64_t seed = 1;
  std::size_t payments = 0;  // 0 = the workload's default
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--mode") {
      a.mode = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--payments") {
      a.payments = std::stoull(val);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.mode != "run" && a.mode != "reference" && a.mode != "traced") {
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  }
  return a;
}

/// Inputs + engine of one repetition, with the set-up phases timed.
struct Setup {
  Inputs inputs;
  std::unique_ptr<ScenarioEngine> engine;
  double gen_s = 0;
  double ctor_s = 0;
};

Setup set_up(const WorkloadSpec& spec, std::uint64_t seed) {
  Setup s;
  const auto gen_start = Clock::now();
  s.inputs = make_inputs(spec, seed);
  s.gen_s = seconds_since(gen_start);
  const auto ctor_start = Clock::now();
  s.engine = make_engine(spec, s.inputs, seed);
  s.ctor_s = seconds_since(ctor_start);
  return s;
}

/// The traced payment phase of static-recurrent: its payments routed
/// through run_simulation with TimedFlashRouter around a Flash router built
/// as make_router builds it (bit-identical to the zero-dynamics engine,
/// pinned by tests/scenario_test.cc). The engines of the other workloads
/// build their routers internally, out of the decorator's reach.
void traced_static_pass(JsonLine& j, const WorkloadSpec& spec,
                        const Workload& workload, std::uint64_t seed) {
  std::unique_ptr<Router> router =
      make_router(spec.scheme, workload, spec.opts, seed);
  LayerTrace trace;
  TimedFlashRouter timed(dynamic_cast<FlashRouter&>(*router),
                         workload.graph(), workload.fees(), trace);
  const auto start = Clock::now();
  const SimResult sim = run_simulation(workload, timed, spec.sim);
  j.num("run_s", seconds_since(start));
  report_sim_totals(j, sim);
  report_layers(j, trace);
}

void run(const Args& args) {
  WorkloadSpec spec = find_workload(args.workload, args.payments);
  if (args.mode == "reference") spec = sequential_oracle(spec);

  JsonLine j;
  j.str("workload", spec.name);
  j.str("mode", args.mode);
  j.count("seed", args.seed);
  j.count("payments", spec.payments);
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.str("compiler", PERFBENCH_COMPILER);
  const bool replay =
      spec.scenario.concurrency.execution == ScenarioExecution::kReplay;
  j.count("workers", replay ? spec.scenario.concurrency.workers : 0);
  j.count("threads", replay ? spec.scenario.concurrency.workers + 1 : 1);

  std::vector<double> setup_s;
  {
    Setup s = set_up(spec, args.seed);
    setup_s.push_back(s.gen_s + s.ctor_s);
    const Graph& g = s.inputs.workload->graph();
    j.count("nodes", g.num_nodes());
    j.count("channels", g.num_channels());
    j.num("gen_ms", s.gen_s * 1e3);
    j.num("ctor_ms", s.ctor_s * 1e3);
    if (args.mode == "traced") {
      const auto state_start = Clock::now();
      s.inputs.workload->make_state(spec.sim.capacity_scale);
      j.num("make_state_ms", seconds_since(state_start) * 1e3);
    }
    if (args.mode == "traced" && spec.name == "static-recurrent") {
      s.engine.reset();
      traced_static_pass(j, spec, *s.inputs.workload, args.seed);
    } else {
      const auto start = Clock::now();
      const ScenarioResult r = s.engine->run();
      j.num("run_s", seconds_since(start));
      report_scenario(j, r);
      // Spans around the constructor and run() only: no decorated calls.
      if (args.mode == "traced") report_layers(j, LayerTrace{});
    }
  }
  j.count("peak_rss_kib", static_cast<std::uint64_t>(peak_rss_kib()));
  const std::size_t setups = args.mode == "run" ? kSetups : 1;
  for (std::size_t k = 1; k < setups; ++k) {
    const Setup s = set_up(spec, args.seed);
    setup_s.push_back(s.gen_s + s.ctor_s);
  }
  j.num("setup_s", median(setup_s));
  std::printf("%s\n", j.finish().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flash_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
