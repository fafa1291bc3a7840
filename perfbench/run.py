#!/usr/bin/env python3
"""Flash end-to-end benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (Release) into build-perfbench/ at the repository root on
first use, then runs the workload's repetitions, each in its own
flash_perfbench process, for about --seconds seconds. Every repetition of a
seed must reproduce the same payment digest and totals, and a replay run must
reproduce the digest of its sequential oracle; any engine exception or
disagreement exits non-zero without printing a result.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 pairs an untraced repetition with a traced one and prints the
per-layer metrics. The last stdout line is the result object; the line
before it records the run's provenance. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-perfbench"
BINARY = BUILD / "flash_perfbench"

# Untraced repetitions per run, at least (the digest gate compares them).
MIN_REPS = 2
# A repetition process that outlives this is killed and the run fails.
CHILD_TIMEOUT_S = 150

# Fields two repetitions of one seed must agree on exactly.
OUTCOME_FIELDS = ("transactions", "successes", "retries", "volume_attempted",
                  "volume_succeeded", "fees_paid", "probe_messages",
                  "mice_probe_messages", "elephant_probe_messages")


class GateError(Exception):
    """A correctness gate failed: the run must not report metrics."""


def build():
    """Configures (once) and builds the driver; exits 2 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources not found under %s" % ROOT)
    BUILD.mkdir(exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    with open(BUILD / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                sys.stderr.write((BUILD / "build.log").read_text()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(step))


def run_driver(workload, seed, mode, payments):
    """One repetition in its own process; returns its JSON record."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if payments:
        cmd += ["--payments", str(payments)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError("%s %s timed out after %d s"
                        % (workload, mode, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise GateError("%s %s failed: %s"
                        % (workload, mode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(run_one, seconds, min_reps, start):
    """Runs repetitions until the next one would end past `seconds`."""
    reps = []
    while True:
        began = time.monotonic()
        reps.append(run_one())
        took = time.monotonic() - began
        if len(reps) >= min_reps and \
                time.monotonic() - start + took > seconds:
            return reps


def require_same(a, b, what, fields=OUTCOME_FIELDS + ("digest",)):
    for f in fields:
        if f in a and f in b and a[f] != b[f]:
            raise GateError("%s: %s differs (%r vs %r)" % (what, f, a[f], b[f]))


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(reps):
    first = reps[0]

    def med(f):
        return statistics.median(f(r) for r in reps)

    if first["latency_count"] < 1000:
        print("perfbench: only %d latency samples; p99 has fewer than 10 "
              "beyond it" % first["latency_count"], file=sys.stderr)
    return {
        "setup_s": (med(lambda r: r["setup_s"]), "s"),
        "throughput_pps": (med(lambda r: r["transactions"] / r["run_s"]),
                           "1/s"),
        "latency_p50_us": (med(lambda r: r["latency_p50_us"]), "us"),
        "latency_p99_us": (med(lambda r: r["latency_p99_us"]), "us"),
        "peak_rss_mib": (med(lambda r: r["peak_rss_kib"] / 1024), "MiB"),
        "success_ratio": (ratio(first["successes"], first["transactions"]),
                          "ratio"),
        "fee_per_volume": (ratio(first["fees_paid"],
                                 first["volume_succeeded"]), "ratio"),
        "attempts_per_payment": (ratio(first["transactions"] +
                                       first["retries"],
                                       first["transactions"]), "attempts"),
    }


def per_layer(untraced, traced, oracle):
    """Layer metrics of one (untraced, traced) pair of repetitions.

    Decorator metrics come from the traced record (zero where the traced
    repetition has no decorated calls); engine counters come from the
    untraced run.
    """
    u, t = untraced, traced
    pay_s = u["run_s"]
    # The traced payment phase net of its side calls: the route() shares
    # and the unattributed rest of it sum to 1.
    net_s = t["run_s"] - t["side_s"]
    m = {
        "trace.gen_ms": (t["gen_ms"], "ms"),
        "ledger.make_state_ms": (t["make_state_ms"], "ms"),
        "sim.engine_ctor_ms": (t["ctor_ms"], "ms"),
        "tracing_overhead": (t["run_s"] / pay_s, "ratio"),
    }
    hits = t["mice_hit_count"]
    misses = t["mice_miss_count"]
    elephants = t["elephant_count"]
    g = t.__getitem__
    m.update({
        "routing.mice_hit_us": (g("mice_hit_us"), "us"),
        "routing.mice_hit_count": (hits, "count"),
        "routing.mice_miss_us": (g("mice_miss_us"), "us"),
        "routing.mice_miss_count": (misses, "count"),
        "routing.elephant_us": (g("elephant_us"), "us"),
        "routing.elephant_count": (elephants, "count"),
        "routing.table_miss_ratio": (ratio(misses, hits + misses), "ratio"),
        "routing.share_mice_hit": (g("mice_hit_s") / net_s, "ratio"),
        "routing.share_mice_miss": (g("mice_miss_s") / net_s, "ratio"),
        "routing.share_elephant": (g("elephant_s") / net_s, "ratio"),
        "routing.unattributed_share": ((net_s - g("route_s")) / net_s,
                                       "ratio"),
        "graph.yen_calls": (g("yen_calls"), "count"),
        "graph.yen_us": (g("yen_us"), "us"),
        "graph.maxflow_probe_us": (g("probe_us"), "us"),
        "graph.paths_per_elephant": (
            ratio(g("paths_found"), g("probes_traced")), "paths"),
        "lp.fee_split_us": (g("split_us"), "us"),
        "lp.fallbacks": (g("lp_fallbacks"), "count"),
        # Derived: elephant route() time not spent in the probe or split.
        "ledger.settle_us": (ratio(g("elephant_s") - g("probe_s") -
                                   g("split_s"), elephants) * 1e6, "us"),
    })
    n = u["transactions"]
    m.update({
        "ledger.probe_msgs_mice": (u["mice_probe_messages"], "msgs"),
        "ledger.probe_msgs_elephant": (u["elephant_probe_messages"], "msgs"),
        "ledger.probe_msgs_per_payment": (ratio(u["probe_messages"], n),
                                          "msgs"),
        "sim.success_volume_ratio": (ratio(u["volume_succeeded"],
                                           u["volume_attempted"]), "ratio"),
        "sim.router_rebuilds": (u["router_rebuilds"], "count"),
        "sim.router_patches": (u["router_patches"], "count"),
        "sim.entries_invalidated": (u["entries_invalidated"], "count"),
        "sim.sender_cache_misses": (u["sender_cache_misses"], "count"),
        "gossip.messages": (u["gossip_messages"], "count"),
        "gossip.rounds": (u["gossip_rounds"], "count"),
        "sim.retries": (u["retries"], "count"),
        "sim.stale_view_failures": (u["stale_view_failures"], "count"),
        "sim.htlc_payments": (u["htlc_payments"], "count"),
        "sim.htlc_max_inflight": (u["htlc_max_inflight"], "count"),
        "sim.htlc_inflight_failures": (u["htlc_inflight_failures"], "count"),
        "sim.htlc_offline_failures": (u["htlc_offline_failures"], "count"),
        "sim.htlc_sim_latency_p50": (u["htlc_sim_latency_p50"], "simtime"),
        "sim.fault_window_success_ratio": (
            ratio(u["fault_window_successes"], u["fault_window_payments"]),
            "ratio"),
        "sim.post_fault_success_ratio": (
            ratio(u["post_fault_successes"], u["post_fault_payments"]),
            "ratio"),
        "sim.spec_accept_ratio": (
            ratio(u["spec_accepted"], u["spec_accepted"] + u["spec_rerouted"]),
            "ratio"),
        "sim.spec_rerouted": (u["spec_rerouted"], "count"),
        "sim.replay_speedup": (
            ratio(n / pay_s, oracle["transactions"] / oracle["run_s"])
            if oracle else 0.0, "ratio"),
    })
    return m


def median_metrics(samples):
    return {k: (statistics.median(s[k][0] for s in samples), unit)
            for k, (_, unit) in samples[0].items()}


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args):
    """Runs the repetitions and gates; returns (provenance, metrics)."""
    start = time.monotonic()
    run = lambda mode: run_driver(args.workload, args.seed, mode,  # noqa
                                  args.payments)
    oracle = run("reference") if args.workload == "replay" else None

    if args.trace:
        pairs = repeat(lambda: (run("run"), run("traced")), args.seconds, 1,
                       start)
        for u, t in pairs:
            require_same(u, t, "traced vs untraced totals")
            if t["mismatches"]:
                raise GateError("traced side calls disagreed with the real "
                                "route %d times" % t["mismatches"])
        reps = [u for u, _ in pairs]
        metrics = median_metrics([per_layer(u, t, oracle) for u, t in pairs])
    else:
        reps = repeat(lambda: run("run"), args.seconds, MIN_REPS, start)
        metrics = end_to_end(reps)

    for r in reps:
        if r["transactions"] != r["payments"]:
            raise GateError("%d of %d payments reached a final outcome"
                            % (r["transactions"], r["payments"]))
    for r in reps[1:]:
        require_same(reps[0], r, "repetitions of seed %d" % args.seed)
    if oracle is not None:
        require_same(oracle, reps[0], "replay vs sequential oracle")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise GateError("metric %s is not finite" % name)

    first = reps[0]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "repetitions": len(reps),
        "payments": first["payments"], "nodes": first["nodes"],
        "channels": first["channels"], "workers": first["workers"],
        "threads": first["threads"], "build_type": first["build_type"],
        "compiler": first["compiler"], "nproc": os.cpu_count(),
        "git_commit": git_commit(), "digest": first.get("digest"),
        "latency_samples": first.get("latency_count"),
    }
    return provenance, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--payments", type=int, default=0,
                   help="payments per repetition (default: the workload's)")
    args = p.parse_args()

    build()
    try:
        provenance, metrics = measure(args)
    except GateError as e:
        sys.exit("perfbench: gate failed: %s" % e)

    print(json.dumps({"provenance": provenance}))
    # Every repetition's payments all reached a final outcome (gated), so
    # none failed as an operation; failed payments count in success_ratio.
    attempted = provenance["payments"] * provenance["repetitions"]
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
