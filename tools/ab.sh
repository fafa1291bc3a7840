#!/usr/bin/env bash
# Interleaved before/after benchmark of one workload.
#
#   tools/ab.sh <base-ref> <workload> [pairs=10] [seed=1]
#
# Compares the working tree this script lives in (the change) against
# <base-ref> (the parent): checks the base out into a temporary detached
# worktree, then runs each tree's own `perfbench/run.py --seconds 30
# --trace 0` alternately, <pairs> times, parent first on odd pairs and
# change first on even ones, so drift on a noisy host lands on both sides
# alike. run.py builds each tree's driver on first use, before it times
# anything.
#
# For every end-to-end metric BENCHMARK.json names it prints both sides'
# median and quartiles, how many pairs the change won (ties count for
# neither side), whether the change's median is within the metric's
# regression bound of the parent's, whether each side's interquartile range
# is within that bound too (else the runs cannot tell the sides apart), and
# whether the claim rule holds: the change wins at least 9/10 of the pairs
# and the medians differ, in the better direction, by more than the
# parent's interquartile range. It also
# prints each side's payment digests, which must agree for an
# output-preserving change. Raw result lines are kept in a temporary
# directory whose path is printed.
#
# The worktree is removed on exit; nothing under perfbench/ is edited.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: $0 <base-ref> <workload> [pairs=10] [seed=1]" >&2
  exit 2
fi
BASE_REF="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
SEED="${4:-1}"
SECONDS_PER_RUN=30

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BASE_TREE="$(mktemp -d "${TMPDIR:-/tmp}/ab-base.XXXXXX")"
OUT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/ab-runs.XXXXXX")"

cleanup() {
  git -C "${REPO_ROOT}" worktree remove --force "${BASE_TREE}" 2>/dev/null ||
    rm -rf "${BASE_TREE}"
  git -C "${REPO_ROOT}" worktree prune
}
trap cleanup EXIT

git -C "${REPO_ROOT}" worktree add --quiet --detach "${BASE_TREE}" "${BASE_REF}"

run_side() { # run_side NAME TREE PAIR
  echo "pair $3: $1"
  (cd "$2" && python3 -B perfbench/run.py --workload "${WORKLOAD}" \
    --seed "${SEED}" --seconds "${SECONDS_PER_RUN}" --trace 0) \
    >"${OUT_DIR}/$1_$3.out"
}

for ((i = 1; i <= PAIRS; ++i)); do
  if ((i % 2 == 1)); then
    run_side parent "${BASE_TREE}" "${i}"
    run_side change "${REPO_ROOT}" "${i}"
  else
    run_side change "${REPO_ROOT}" "${i}"
    run_side parent "${BASE_TREE}" "${i}"
  fi
done

python3 - "${REPO_ROOT}/BENCHMARK.json" "${OUT_DIR}" "${PAIRS}" \
  "${WORKLOAD}" "${SEED}" "${BASE_REF}" <<'EOF'
import json, statistics, sys
from pathlib import Path

spec_path, out, pairs, workload, seed, base_ref = sys.argv[1:]
out, pairs = Path(out), int(pairs)
spec = json.loads(Path(spec_path).read_text())


def load(side):
    runs = []
    for i in range(1, pairs + 1):
        lines = (out / ("%s_%d.out" % (side, i))).read_text().splitlines()
        runs.append((json.loads(lines[-2])["provenance"],
                     json.loads(lines[-1])["metrics"]))
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


parent, change = load("parent"), load("change")
print()
print("workload %s, seed %s, %d pairs: parent %s vs the working tree"
      % (workload, seed, pairs, base_ref))
print("%-20s %-34s %-34s %13s %5s %6s %6s %5s"
      % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
         "change/parent", "wins", "bound", "spread", "claim"))
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    p = [r[1][name]["value"] for r in parent]
    c = [r[1][name]["value"] for r in change]
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(better(cv, pv) for pv, cv in zip(p, c))
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    # Worse by more than the bound, relative to the parent's median.
    worse = (pmed - cmed) if higher else (cmed - pmed)
    within = worse <= m["bound"] * abs(pmed)
    # Each side's interquartile range must also stay within the bound,
    # else the runs spread too widely to tell the sides apart. The bound
    # is a fraction of the parent's median, so a k-times faster change
    # must hold its relative spread k times tighter on throughput.
    steady = max(pq3 - pq1, cq3 - cq1) <= m["bound"] * abs(pmed)
    gain = (cmed - pmed) if higher else (pmed - cmed)
    claim = wins * 10 >= 9 * pairs and gain > pq3 - pq1
    spread = lambda med, q1, q3: "%.5g [%.5g, %.5g]" % (med, q1, q3)
    print("%-20s %-34s %-34s %13s %5s %6s %6s %5s"
          % (name, spread(pmed, pq1, pq3), spread(cmed, cq1, cq3),
             "%.3f" % (cmed / pmed) if pmed else "-",
             "%d/%d" % (wins, pairs), "ok" if within else "WORSE",
             "ok" if steady else "WIDE", "yes" if claim else "no"))
for side, runs in (("parent", parent), ("change", change)):
    digests = sorted({r[0]["digest"] for r in runs})
    print("%s digest%s: %s" % (side, "" if len(digests) == 1 else "s",
                               ", ".join(digests)))
EOF
echo "raw runs: ${OUT_DIR}"
