#!/usr/bin/env bash
# Bench sweep with machine-readable output and baseline regression diff.
#
# Runs bench_fig6_threads (thread scaling, both check modes),
# bench_table6 (cross-algorithm table), bench_kernels (SIMD check
# kernels per backend/width + the full-LATTICE headline run), and
# bench_incremental (session batches vs from-scratch rediscovery), recording
# every measurement as JSON — one BENCH_<name>.json per bench binary,
# written by the shared reporter in bench/bench_util.h. See
# docs/performance.md for the format and how to compare two sweeps.
#
# After the sweep, every fresh BENCH_*.json is diffed against the
# committed baseline of the same name in the repo root (when one exists).
# Matching entries (same dataset/rows/label/threads/mode, or for the
# incremental bench the same batch kind/size) that stopped for the same
# deterministic reason — `none` (completed), `level_cap` or `check_budget`
# — must agree on `checks`, `ocds` and `ods`: any drift is printed as FAIL
# and the script exits 1 after the sweep. Deadline, memory and cancelled
# stops depend on the host and are not compared. Entries that got both
# more than 10% and more than 5 ms slower (MIN_SLOWDOWN_SECONDS below, so
# sub-millisecond entries do not warn on noise), or whose stop reason
# changed, are flagged with a WARN line; timings on a shared box are
# advisory, so warnings never fail the run.
#
#   tools/run_bench.sh [out_dir]          # default out_dir: bench-out
#
# Overridable via environment:
#   OCDD_BENCH_THREADS=1,2,4,8            thread counts to sweep
#   OCDD_BENCH_DATASETS=LETTER,LATTICE    registry datasets to run
#   OCDD_BENCH_BUDGET=<seconds>           per-run time limit
#   OCDD_BENCH_SKIP=table6,kernels        comma list of benches to skip
#                                         (fig6_threads, table6, kernels,
#                                         incremental)
#   OCDD_SCALE=full                       paper-scale rows
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-bench-out}"
THREADS="${OCDD_BENCH_THREADS:-1,2,4,8}"
DATASETS="${OCDD_BENCH_DATASETS:-LETTER,LINEITEM,DBTESMA,LATTICE}"
SKIP=",${OCDD_BENCH_SKIP:-},"

skipped() { [[ "${SKIP}" == *",$1,"* ]]; }

echo "==> building bench binaries"
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" \
  --target bench_fig6_threads bench_table6 bench_kernels bench_incremental

mkdir -p "${OUT}"

if ! skipped fig6_threads; then
  echo "==> thread sweep: threads=${THREADS} datasets=${DATASETS}"
  OCDD_BENCH_JSON_DIR="${OUT}" \
  OCDD_BENCH_THREADS="${THREADS}" \
  OCDD_BENCH_DATASETS="${DATASETS}" \
    ./build/bench/bench_fig6_threads | tee "${OUT}/fig6_threads.log"
fi

if ! skipped table6; then
  echo "==> cross-algorithm table (table6)"
  OCDD_BENCH_JSON_DIR="${OUT}" \
    ./build/bench/bench_table6 | tee "${OUT}/table6.log"
fi

if ! skipped kernels; then
  echo "==> SIMD check-kernel micro-bench (kernels)"
  OCDD_BENCH_JSON_DIR="${OUT}" \
    ./build/bench/bench_kernels | tee "${OUT}/kernels.log"
fi

if ! skipped incremental; then
  echo "==> incremental vs from-scratch (incremental)"
  OCDD_BENCH_JSON_DIR="${OUT}" \
    ./build/bench/bench_incremental | tee "${OUT}/incremental.log"
fi

echo "==> reports:"
ls -l "${OUT}"/BENCH_*.json

# Diff each fresh report against the committed baseline of the same name.
echo "==> regression check vs committed baselines" \
     "(count drift => FAIL, >10% and >5 ms slower => WARN)"
drift=0
for fresh in "${OUT}"/BENCH_*.json; do
  base="$(basename "${fresh}")"
  [[ -f "${base}" ]] || { echo "  ${base}: no committed baseline"; continue; }
  python3 - "$base" "$fresh" <<'EOF' || drift=1
import json, sys

base_path, fresh_path = sys.argv[1], sys.argv[2]
def key(e):
    return (e.get("dataset"), e.get("rows"), e.get("label", ""),
            e.get("threads"), e.get("use_sorted_partitions"),
            e.get("kind"), e.get("batch_size"))
def seconds(e):
    return e.get("seconds", e.get("incremental_seconds", 0.0))
def stop(e):
    # Entries without a stop_reason stopped for none when they completed.
    return e.get("stop_reason", "none" if e.get("completed") else "unknown")
DETERMINISTIC = ("none", "level_cap", "check_budget")
# A slowdown warns only when it is also this many seconds long.
MIN_SLOWDOWN_SECONDS = 0.005
base = {key(e): e for e in json.load(open(base_path))["entries"]}
warned = matched = failed = 0
for e in json.load(open(fresh_path))["entries"]:
    b = base.get(key(e))
    if b is None:
        continue
    if stop(e) != stop(b):
        warned += 1
        print(f"  WARN {base_path} {key(e)}: stopped for {stop(b)} -> "
              f"{stop(e)}")
        continue
    if stop(e) not in DETERMINISTIC:
        continue
    matched += 1
    for count in ("checks", "ocds", "ods"):
        if e.get(count) != b.get(count):
            failed += 1
            print(f"  FAIL {base_path} {key(e)}: {count} "
                  f"{b.get(count)} -> {e.get(count)}")
    old, new = seconds(b), seconds(e)
    if old > 0 and new > old * 1.10 and new - old > MIN_SLOWDOWN_SECONDS:
        warned += 1
        print(f"  WARN {base_path} {key(e)}: {old:.3f}s -> {new:.3f}s "
              f"(+{100.0 * (new - old) / old:.0f}%)")
print(f"  {base_path}: {matched} comparable entries, {failed} count "
      f"drift(s), {warned} regression warning(s)")
sys.exit(1 if failed else 0)
EOF
done
if [[ "${drift}" -ne 0 ]]; then
  echo "==> result counts drifted from the committed baselines" >&2
  exit 1
fi
