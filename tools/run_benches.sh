#!/usr/bin/env bash
# Runs the benchmark suite and records results.
#
#   tools/run_benches.sh [build-dir] [out-dir]
#
# - Google Benchmark micro benches emit machine-readable JSON
#   (BENCH_micro.json), seeding the perf trajectory tracked across PRs.
# - fig*/ablation_* paper-figure benches run in FLASH_BENCH_FAST mode and
#   their paper-vs-measured tables are captured to one log per figure.
#   Sweep-engine benches additionally write a structured JSON report
#   (per-cell aggregates + wall clock + thread count) via FLASH_BENCH_JSON,
#   and every figure bench's wall-clock seconds and the thread count are
#   folded into BENCH_micro.json under "sweep_benches" so the parallel
#   speedup is visible in the perf trajectory.
# - FLASH_BENCH_THREADS caps the sweep-engine workers (default: all
#   hardware threads).
# - bench_concurrent (sequential vs replay payment engine)
#   and bench_scale run in their own sections; their per-cell JSON reports
#   land in BENCH_micro.json under "concurrent" and "scale".
# - fig15_htlc_sweep (time-extended HTLC lifecycle) rides the fig* loop;
#   its JSON report additionally carries the zero-latency digest checks
#   (HtlcConfig{} vs instant settlement) CI gates on, and the bench itself
#   exits non-zero if any scheme's digests diverge.
#
# Builds the bench_all target first if the build directory exists but the
# binaries do not.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"

if [[ ! -d "${BUILD_DIR}" ]]; then
  echo "error: build dir '${BUILD_DIR}' not found." >&2
  echo "run: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

cmake --build "${BUILD_DIR}" --target bench_all -j "$(nproc)"

mkdir -p "${OUT_DIR}"

# Peak-RSS log: every bench below runs under tools/with_rss.py, which
# appends "name kib" lines here; the merge step attaches them to
# BENCH_micro.json so memory rides the perf trajectory alongside time.
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
RSS_LOG="${OUT_DIR}/peak_rss.txt"
: >"${RSS_LOG}"
with_rss() { # with_rss NAME CMD...
  local name="$1"
  shift
  python3 "${REPO_ROOT}/tools/with_rss.py" "${RSS_LOG}" "${name}" -- "$@"
}

echo "== micro benches (Google Benchmark) =="
with_rss micro_algorithms "${BUILD_DIR}/bench/micro_algorithms" \
  --benchmark_out="${OUT_DIR}/BENCH_micro_algorithms.json" \
  --benchmark_out_format=json
with_rss micro_routing "${BUILD_DIR}/bench/micro_routing" \
  --benchmark_out="${OUT_DIR}/BENCH_micro_routing.json" \
  --benchmark_out_format=json

echo
echo "== graph core benches (allocation-free hot paths) =="
with_rss bench_graph_core "${BUILD_DIR}/bench/bench_graph_core" \
  --benchmark_out="${OUT_DIR}/BENCH_graph_core.json" \
  --benchmark_out_format=json

echo
echo "== LP core benches (fee-split pipeline) =="
with_rss bench_lp "${BUILD_DIR}/bench/bench_lp" \
  --benchmark_out="${OUT_DIR}/BENCH_lp.json" \
  --benchmark_out_format=json

echo
echo "== figure benches (FLASH_BENCH_FAST smoke sweeps) =="
export FLASH_BENCH_FAST=1
THREADS="${FLASH_BENCH_THREADS:-$(nproc)}"
export FLASH_BENCH_THREADS="${THREADS}"
TIMINGS="${OUT_DIR}/sweep_timings.txt"
: >"${TIMINGS}"
FIG_FAILURES=0
for bin in "${BUILD_DIR}"/bench/fig* "${BUILD_DIR}"/bench/ablation_*; do
  name="$(basename "${bin}")"
  [[ -x "${bin}" ]] || continue
  echo "-- ${name} (${THREADS} threads)"
  # Drop any stale sweep report so a bench that fails to write a fresh one
  # cannot leak a previous run's numbers into BENCH_micro.json.
  rm -f "${OUT_DIR}/${name}.json"
  start="$(date +%s.%N)"
  # A failing figure bench must not abort the script before the canonical
  # BENCH_micro.json merge below; record the failure and keep going.
  if ! FLASH_BENCH_JSON="${OUT_DIR}/${name}.json" with_rss "${name}" "${bin}" \
      >"${OUT_DIR}/${name}.log" 2>&1; then
    echo "warning: ${name} failed (see ${OUT_DIR}/${name}.log)" >&2
    FIG_FAILURES=$((FIG_FAILURES + 1))
    continue
  fi
  end="$(date +%s.%N)"
  echo "${name} $(awk -v a="${start}" -v b="${end}" \
    'BEGIN { printf "%.3f", b - a }')" >>"${TIMINGS}"
done

echo
echo "== concurrent engine bench (sequential vs replay) =="
# FLASH_BENCH_WORKERS (comma list, default "1,2,8") picks the thread counts
# for the replay rows; their digests must match the sequential oracle's,
# and the bench exits non-zero if they don't.
rm -f "${OUT_DIR}/bench_concurrent.json"
if ! FLASH_BENCH_JSON="${OUT_DIR}/bench_concurrent.json" \
    with_rss bench_concurrent "${BUILD_DIR}/bench/bench_concurrent" \
    >"${OUT_DIR}/bench_concurrent.log" 2>&1; then
  echo "warning: bench_concurrent failed (see ${OUT_DIR}/bench_concurrent.log)" >&2
  FIG_FAILURES=$((FIG_FAILURES + 1))
fi
tail -n +4 "${OUT_DIR}/bench_concurrent.log" | sed -n '1,14p'

echo
echo "== scale bench (Lightning-scale streaming) =="
# Defaults to the FLASH_BENCH_FAST cell exported above; set
# FLASH_BENCH_SCALE_FULL=1 to run the full 10k/50k-node grid (minutes).
rm -f "${OUT_DIR}/bench_scale.json"
if [[ -n "${FLASH_BENCH_SCALE_FULL:-}" ]]; then
  unset FLASH_BENCH_FAST FLASH_BENCH_SMOKE  # fig loop above is done with them
fi
if ! FLASH_BENCH_JSON="${OUT_DIR}/bench_scale.json" \
    with_rss bench_scale "${BUILD_DIR}/bench/bench_scale" \
    >"${OUT_DIR}/bench_scale.log" 2>&1; then
  echo "warning: bench_scale failed (see ${OUT_DIR}/bench_scale.log)" >&2
  FIG_FAILURES=$((FIG_FAILURES + 1))
fi
tail -n +4 "${OUT_DIR}/bench_scale.log" | sed -n '1,8p'

# Merge the two micro-bench JSON reports into the canonical BENCH_micro.json
# at the repo root (the committed perf-trajectory snapshot). family_index
# values are per-binary, so the second report's are rebased to stay unique.
# The figure benches' wall-clock timings and the sweep thread count ride
# along under "sweep_benches"; bench_scale's cells under "scale"; per-bench
# peak RSS under "peak_rss_kib".
python3 - "${OUT_DIR}" "${REPO_ROOT}/BENCH_micro.json" "${THREADS}" <<'EOF'
import json, sys, pathlib
out = pathlib.Path(sys.argv[1])
dest = pathlib.Path(sys.argv[2])
threads = int(sys.argv[3])
merged = None
for name in ("BENCH_micro_algorithms.json", "BENCH_micro_routing.json"):
    with open(out / name) as f:
        report = json.load(f)
    if merged is None:
        merged = report
    else:
        base = 1 + max(
            (b.get("family_index", -1) for b in merged["benchmarks"]),
            default=-1)
        for b in report["benchmarks"]:
            if "family_index" in b:
                b["family_index"] += base
        merged["benchmarks"].extend(report["benchmarks"])

# The scratch-based graph-core benches ride along as their own section so
# the graph layer's perf trajectory is tracked separately from the
# micro benches; the LP fee-split pipeline gets the same treatment.
with open(out / "BENCH_graph_core.json") as f:
    merged["graph_core"] = json.load(f)["benchmarks"]
with open(out / "BENCH_lp.json") as f:
    merged["lp_core"] = json.load(f)["benchmarks"]

# Peak RSS per bench binary (tools/with_rss.py lines: "name kib"; keep
# the max if a bench ran more than once).
rss = {}
rss_log = out / "peak_rss.txt"
if rss_log.exists():
    for line in rss_log.read_text().splitlines():
        name, _, kib = line.partition(" ")
        if kib:
            rss[name] = max(rss.get(name, 0), int(kib))
merged["peak_rss_kib"] = rss

sweeps = []
timings = out / "sweep_timings.txt"
if timings.exists():
    for line in timings.read_text().splitlines():
        name, _, secs = line.partition(" ")
        if not secs:
            continue
        entry = {"name": name, "wall_seconds": float(secs),
                 "threads": threads}
        if name in rss:
            entry["peak_rss_kib"] = rss[name]
        # Engine-reported stats (cells, engine wall clock) when the bench
        # emitted a structured sweep report.
        report_path = out / f"{name}.json"
        if report_path.exists():
            with open(report_path) as f:
                sweep = json.load(f)
            entry["sweep_wall_seconds"] = sweep.get("wall_seconds")
            entry["sweep_threads"] = sweep.get("threads")
            entry["cells"] = len(sweep.get("cells", []))
        sweeps.append(entry)
merged["sweep_benches"] = sweeps

# Lightning-scale streaming bench: per-cell payments/sec, router-cache
# stats and peak RSS (see bench/bench_scale.cc).
scale_path = out / "bench_scale.json"
if scale_path.exists():
    with open(scale_path) as f:
        merged["scale"] = json.load(f)["cells"]

# Concurrent payment engine: mode x threads throughput/latency rows plus
# the replay-vs-sequential digest evidence (see bench/bench_concurrent.cc).
conc_path = out / "bench_concurrent.json"
if conc_path.exists():
    with open(conc_path) as f:
        merged["concurrent"] = json.load(f)["cells"]

with open(dest, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {dest} ({len(merged['benchmarks'])} benchmarks, "
      f"{len(sweeps)} figure benches)")
EOF

echo
echo "results in ${OUT_DIR}/"
if [[ "${FIG_FAILURES}" -gt 0 ]]; then
  echo "error: ${FIG_FAILURES} figure bench(es) failed" >&2
  exit 1
fi
