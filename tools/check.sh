#!/usr/bin/env bash
# Sanitizer gate: configure a dedicated build tree with AddressSanitizer +
# UndefinedBehaviorSanitizer, build everything, and run the tier-1 test
# suite under it.  Intended as a pre-merge check; the regular build tree
# (build/) is left untouched.
#
# With GEO_NATIVE=1 a final phase builds the shipping configuration
# (-O3 -march=native, Matrix bounds checks off) and runs the tests
# again: the fast build must pass the same suite it ships with.
#
# Usage: tools/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== configuring sanitizer build in ${build_dir} =="
cmake -S "${repo_root}" -B "${build_dir}" \
    -DGEO_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== building (${jobs} jobs) =="
cmake --build "${build_dir}" -j "${jobs}"

echo "== running tier-1 tests under ASan/UBSan =="
# The suite holds the crash_recovery_* and cli_ledger_explain gates, so
# the crash/restart and ledger drills run under the sanitizers here.
# The hot paths run at their real shapes here too: the packed GEMM
# kernels (PackedKernels.*, MatrixParallel.*), the scratch arena and
# SGD step (AllocRegression.*, at 512 rows among others), batched
# scoring at a 24 x 6 decision cycle (BatchedScoring.*), retrains
# (DrlEngine*), the ledger (DecisionLedger.*) and the pool
# (ThreadPool.*).
# halt_on_error makes UBSan findings fail the test instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

echo "== check.sh: all tests passed under address;undefined =="

# ThreadSanitizer phase: a dedicated build tree with TSan, running the
# concurrency-sensitive subset of the suite (thread pool, watchdog,
# metric registry, logging, tracing, parallel GEMM/scoring and the
# guardrail integration tests). TSan cannot be
# combined with ASan, hence the separate tree and targeted -R filter.
tsan_dir="${repo_root}/build-tsan"
echo "== configuring ThreadSanitizer build in ${tsan_dir} =="
cmake -S "${repo_root}" -B "${tsan_dir}" \
    -DGEO_SANITIZE="thread" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== building TSan (${jobs} jobs) =="
cmake --build "${tsan_dir}" -j "${jobs}"

echo "== running the concurrency subset under TSan =="
export TSAN_OPTIONS="halt_on_error=1"
ctest --test-dir "${tsan_dir}" --output-on-failure -j "${jobs}" \
    -R 'ThreadPool|Watchdog|Metric|Trace|Logging|Parallel|Concurrent|Batched|Guardrails|Flight|ShardCoordinator'

echo "== check.sh: concurrency subset clean under thread sanitizer =="

if [[ "${GEO_NATIVE:-0}" == "1" ]]; then
    native_dir="${repo_root}/build-native"
    echo "== configuring native build in ${native_dir} =="
    cmake -S "${repo_root}" -B "${native_dir}" \
        -DGEO_NATIVE=ON \
        -DGEO_CHECK_BOUNDS=OFF \
        -DCMAKE_BUILD_TYPE=Release

    echo "== building native (${jobs} jobs) =="
    cmake --build "${native_dir}" -j "${jobs}"

    echo "== running tier-1 tests on the native build =="
    ctest --test-dir "${native_dir}" --output-on-failure -j "${jobs}"

    echo "== check.sh: native build passed =="
fi
