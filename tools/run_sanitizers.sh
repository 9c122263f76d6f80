#!/usr/bin/env bash
# Builds the project under AddressSanitizer+UBSan and ThreadSanitizer and
# runs the full test suite under each (see docs/robustness.md).
#
#   tools/run_sanitizers.sh [asan|tsan]     # default: both
#
# Each sanitizer gets its own build tree (build-asan/, build-tsan/) so the
# regular build/ stays untouched. Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

run_one() {
  local preset="$1"
  local dir="build-${preset}"
  echo "==> ${preset}: configuring ${dir}"
  cmake -B "${dir}" -S . -DOCDD_SANITIZE="${preset}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==> ${preset}: building"
  cmake --build "${dir}" -j "$(nproc)"
  echo "==> ${preset}: running tests"
  ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)"
  # The serve fault matrix (worker kills, torn frames, drain, shedding) and
  # the incremental CLI matrix (SIGKILL mid-apply-batch, torn warm state —
  # docs/incremental.md) are the most process/concurrency-heavy surfaces in
  # the tree; repeat them so the sanitizer sees several interleavings, not
  # one lucky schedule.
  echo "==> ${preset}: serve + incremental fault matrices (repeated)"
  ctest --test-dir "${dir}" --output-on-failure -R "serve|incremental_cli" \
        --repeat until-fail:3
  # The network chaos matrix is the single most interleaving-sensitive test
  # in the tree: proxy threads, per-connection daemon reader threads,
  # executor threads, and a retrying client all racing injected resets and
  # timeouts. TSan coverage here matters more than anywhere else — repeat
  # it harder than the rest.
  echo "==> ${preset}: network chaos matrix (repeated)"
  ctest --test-dir "${dir}" --output-on-failure -R "serve_chaos" \
        --repeat until-fail:5
  # Serve-degraded pass: the disk-health state machine races the maintenance
  # thread (periodic persist + probe) against executors and the accept-loop
  # backoff, with io_env faults firing under every thread. The storage fault
  # layer (io_env arming, op-log replay, fsck repair) runs here too — its
  # fault bookkeeping is mutex-guarded global state that TSan must see
  # hammered from several schedules.
  echo "==> ${preset}: serve-degraded + storage fault layer (repeated)"
  ctest --test-dir "${dir}" --output-on-failure \
        -R "serve_disk|io_env|io_fault_sweep|crash_consistency|fsck" \
        --repeat until-fail:3
  # Check counting: pool workers count on per-thread tallies of one
  # RunContext and race the budget latch; repeat the suites that share it.
  echo "==> ${preset}: check counting across pool workers (repeated)"
  ctest --test-dir "${dir}" --output-on-failure \
        -R "run_context|partition_checker|ocd_discover|perf_smoke" \
        --repeat until-fail:5
  # SIMD backend passes: the check-kernel suites once with the scalar
  # fallback pinned (OCDD_SIMD=off) and once with AVX2 explicitly
  # requested. The AVX2 request degrades silently to scalar on CPUs
  # without it (common/simd_dispatch.h), so the forced-AVX2 pass is safe —
  # it just duplicates the scalar pass there; when AVX2 is present, this
  # is the only place the sanitizers see the gather/permute kernels under
  # a forced backend rather than auto-dispatch.
  local simd_tests="simd_kernels|list_partition|checker|perf_smoke|sorted_index"
  echo "==> ${preset}: check kernels with forced scalar backend (OCDD_SIMD=off)"
  OCDD_SIMD=off ctest --test-dir "${dir}" --output-on-failure \
        -R "${simd_tests}"
  if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    echo "==> ${preset}: check kernels with forced AVX2 backend (OCDD_SIMD=avx2)"
  else
    echo "==> ${preset}: no AVX2 on this CPU; OCDD_SIMD=avx2 pass degrades to scalar"
  fi
  OCDD_SIMD=avx2 ctest --test-dir "${dir}" --output-on-failure \
        -R "${simd_tests}"
}

presets=("${@:-asan tsan}")
# Re-split in case the default "asan tsan" arrived as one word.
for preset in ${presets[@]}; do
  case "${preset}" in
    asan|tsan) run_one "${preset}" ;;
    *) echo "unknown sanitizer preset: ${preset} (use asan or tsan)" >&2
       exit 2 ;;
  esac
done
echo "==> all sanitizer runs passed"
