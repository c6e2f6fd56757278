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
# halt_on_error makes UBSan findings fail the test instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

echo "== check.sh: all tests passed under address;undefined =="

# Perf-suite smoke under the sanitizers: the packed GEMM kernels,
# scratch arena and SGD step run their real (quick-size) shapes
# with bounds/UB checking on.  Timings are meaningless here; this is a
# memory-safety gate for the hot paths the plain suite exercises at
# full size.
echo "== perf suite (quick mode) under ASan/UBSan =="
perf_out="$(mktemp /tmp/geo_perf_asan.XXXXXX.json)"
GEO_PERF_QUICK=1 GEO_SKIP_MICRO=1 GEO_PERF_OUT="${perf_out}" \
    "${build_dir}/bench/micro_benchmarks"
rm -f "${perf_out}"

echo "== check.sh: perf suite clean under address;undefined =="

# Crash-recovery drill: kill the pipeline at a mid-migration kill point
# under the sanitizer build, let the supervisor restart it from the
# checkpoint, and require the resumed run to be byte-identical to an
# uninterrupted reference (series and summary CSV).
echo "== crash/restart recovery drill (sanitizer build) =="
sim="${build_dir}/tools/geomancy_sim"
drill="$(mktemp -d /tmp/geo_crash_drill.XXXXXX)"
sim_flags=(--policy geomancy --runs 12 --warmup 2 --cadence 3
    --epochs 4 --quiet)
"${sim}" "${sim_flags[@]}" --checkpoint-dir "${drill}/ref" \
    --series "${drill}/ref.csv" --csv "${drill}/ref_sum.csv"
"${sim}" "${sim_flags[@]}" --checkpoint-dir "${drill}/crash" \
    --crash-at mid-migration --crash-cycle 2 --max-restarts 2 \
    --series "${drill}/crash.csv" --csv "${drill}/crash_sum.csv"
cmp "${drill}/ref.csv" "${drill}/crash.csv"
cmp "${drill}/ref_sum.csv" "${drill}/crash_sum.csv"
rm -rf "${drill}"

echo "== check.sh: crash drill resumed byte-identical =="

# Audit-trail drill: run the sim under chaos with the decision ledger
# and flight recorder enabled (still the sanitizer build), validate
# the geo-ledger-1 stream structurally, and smoke the explain CLI
# against it.
echo "== decision ledger + chaos drill (sanitizer build) =="
audit="$(mktemp -d /tmp/geo_audit_drill.XXXXXX)"
"${sim}" "${sim_flags[@]}" --chaos \
    --ledger-out "${audit}/ledger.ndjson" \
    --flight-dump-dir "${audit}"
python3 - "${audit}/ledger.ndjson" <<'EOF'
import json
import sys

def fail(message):
    print(f"check.sh: {message}", file=sys.stderr)
    sys.exit(1)

known = {"cycle_start", "phase", "candidate", "prediction", "realized",
         "outcome", "transition", "cycle"}
rows = []
with open(sys.argv[1]) as fh:
    header = json.loads(fh.readline())
    if header.get("schema") != "geo-ledger-1":
        fail(f"bad ledger header: {header}")
    for line in fh:
        rows.append(json.loads(line))

if not rows:
    fail("ledger recorded no rows")
for i, row in enumerate(rows):
    if row.get("t") not in known:
        fail(f"unknown row type {row.get('t')!r}")
    if row.get("seq") != i + 1:
        fail(f"seq broke at row {i}: {row}")
    if row["t"] == "candidate" and row.get("verdict") != "exploration" \
            and len(row.get("features", [])) != 6:
        fail(f"candidate without 6 features: {row}")
if not any(r["t"] == "cycle" for r in rows):
    fail("no cycle summary rows")
print(f"check.sh: ledger OK ({len(rows)} rows, "
      f"{sum(1 for r in rows if r['t'] == 'cycle')} cycles)")
EOF
explain="${build_dir}/tools/geomancy_explain"
"${explain}" --ledger "${audit}/ledger.ndjson" --prediction-error \
    --per-mount
"${explain}" --ledger "${audit}/ledger.ndjson" --vetoes --json \
    > /dev/null
rm -rf "${audit}"

echo "== check.sh: ledger drill clean under address;undefined =="

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
