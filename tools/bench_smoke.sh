#!/usr/bin/env bash
# Perf-baseline smoke test: run the micro_benchmarks perf suite in
# reduced (quick) mode and validate the BENCH_perf.json it emits
# against the geo-perf-2 schema.  Catches a broken perf harness (or a
# benchmark that stopped emitting a section) without paying for the
# full measurement run.  Also runs geomancy_sim with --metrics-json
# and validates the geo-metrics-1 snapshot schema end to end.
#
# Usage: tools/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
bench="${build_dir}/bench/micro_benchmarks"

if [[ ! -x "${bench}" ]]; then
    echo "bench_smoke.sh: ${bench} not built (cmake --build ${build_dir})" >&2
    exit 1
fi

out="$(mktemp /tmp/BENCH_perf.XXXXXX.json)"
trap 'rm -f "${out}"' EXIT

echo "== running perf suite (quick mode) =="
GEO_PERF_QUICK=1 GEO_SKIP_MICRO=1 GEO_PERF_OUT="${out}" "${bench}"

echo "== validating ${out} =="
python3 - "${out}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

def fail(message):
    print(f"bench_smoke: {message}", file=sys.stderr)
    sys.exit(1)

if doc.get("schema") != "geo-perf-2":
    fail(f"unexpected schema {doc.get('schema')!r}")
if not isinstance(doc.get("threads"), int) or doc["threads"] < 1:
    fail("threads must be a positive integer")
if not isinstance(doc.get("hw_concurrency"), int) or \
        doc["hw_concurrency"] < 1:
    fail("hw_concurrency must be a positive integer (perf_diff uses it "
         "to skip scaling deltas on single-core machines)")

gemm = doc.get("gemm")
if not isinstance(gemm, list) or not gemm:
    fail("gemm section missing or empty")
for entry in gemm:
    for key in ("m", "k", "n", "naive_ms", "fast_ms", "speedup"):
        if key not in entry:
            fail(f"gemm entry missing {key}: {entry}")
    if entry["naive_ms"] <= 0 or entry["fast_ms"] <= 0:
        fail(f"gemm timings must be positive: {entry}")

train = doc.get("train")
if not isinstance(train, dict):
    fail("train section missing")
for key in ("epoch_ms", "retrain_ms", "retrain_epochs",
            "steady_state_allocs"):
    if key not in train:
        fail(f"train missing {key}")
if train["epoch_ms"] <= 0 or train["retrain_ms"] <= 0:
    fail(f"train timings must be positive: {train}")
if train["steady_state_allocs"] != 0:
    fail("steady-state training epochs allocated "
         f"{train['steady_state_allocs']} Matrix buffers (want 0: the "
         "scratch arena must absorb epochs after the first)")

scoring = doc.get("candidate_scoring")
if not isinstance(scoring, dict):
    fail("candidate_scoring section missing")
for key in ("files", "devices", "trained", "scalar_ms", "batched_ms",
            "speedup", "bitwise_equal"):
    if key not in scoring:
        fail(f"candidate_scoring missing {key}")
if not scoring["trained"]:
    fail("candidate_scoring model failed to train")
if not scoring["bitwise_equal"]:
    fail("batched scoring diverged from one-row scoreLocations calls")

cycle = doc.get("full_cycle")
if not isinstance(cycle, dict):
    fail("full_cycle section missing")
for key in ("cycle_ms", "predict_ms"):
    if key not in cycle:
        fail(f"full_cycle missing {key}")

scaling = doc.get("model_search_scaling")
if not isinstance(scaling, list) or not scaling:
    fail("model_search_scaling section missing or empty")
for entry in scaling:
    for key in ("workers", "seconds", "speedup"):
        if key not in entry:
            fail(f"model_search_scaling entry missing {key}: {entry}")

overhead = doc.get("metrics_overhead")
if not isinstance(overhead, dict):
    fail("metrics_overhead section missing")
for key in ("counter_ns", "histogram_ns", "plain_loop_ns"):
    if key not in overhead:
        fail(f"metrics_overhead missing {key}")
    if overhead[key] < 0:
        fail(f"metrics_overhead {key} must be non-negative")

ledger = doc.get("ledger_overhead")
if not isinstance(ledger, dict):
    fail("ledger_overhead section missing")
for key in ("with_ms", "without_ms", "overhead_frac", "rows"):
    if key not in ledger:
        fail(f"ledger_overhead missing {key}")
if ledger["rows"] <= 0:
    fail("ledger_overhead recorded no ledger rows")
if ledger["with_ms"] <= 0 or ledger["without_ms"] <= 0:
    fail(f"ledger_overhead timings must be positive: {ledger}")
# Budget: the audit ledger must stay under 2% of the decision cycle.
# The true cost is well under a millisecond per cycle, which is below
# the run-to-run noise of a single quick measurement on a shared
# machine, so only an overhead that is both relatively AND absolutely
# large is treated as a real regression.
delta_ms = ledger["with_ms"] - ledger["without_ms"]
if ledger["overhead_frac"] >= 0.02 and delta_ms >= 2.0:
    fail(f"ledger overhead {ledger['overhead_frac']:.1%} "
         f"({delta_ms:.2f} ms/cycle) blows the 2% budget")

print("bench_smoke: BENCH_perf.json schema OK "
      f"({len(gemm)} gemm sizes, epoch {train['epoch_ms']:.1f} ms / "
      f"0 steady-state allocs, scoring speedup "
      f"{scoring['speedup']:.2f}x, bitwise_equal="
      f"{scoring['bitwise_equal']}, counter overhead "
      f"{overhead['counter_ns']:.1f} ns, ledger overhead "
      f"{ledger['overhead_frac']:.1%})")
EOF

echo "== diffing against the committed quick baseline =="
# Quick-mode timings are only comparable with a quick-mode baseline;
# BENCH_perf.json (the tracked full-mode baseline) is diffed by the
# full perf runs, not the smoke test.  A single quick run on a shared
# machine can be contaminated by co-tenant load, so one failed diff
# earns one remeasurement before the smoke test fails.
baseline="${repo_root}/BENCH_perf_quick.json"
if [[ -f "${baseline}" ]]; then
    if ! python3 "${repo_root}/tools/perf_diff.py" "${baseline}" "${out}"
    then
        echo "== perf_diff failed; remeasuring once to rule out noise =="
        GEO_PERF_QUICK=1 GEO_SKIP_MICRO=1 GEO_PERF_OUT="${out}" "${bench}"
        python3 "${repo_root}/tools/perf_diff.py" "${baseline}" "${out}"
    fi
else
    echo "bench_smoke.sh: ${baseline} missing, skipping perf diff" >&2
fi

sim="${build_dir}/tools/geomancy_sim"
if [[ -x "${sim}" ]]; then
    metrics="$(mktemp /tmp/geo_metrics.XXXXXX.json)"
    trap 'rm -f "${out}" "${metrics}"' EXIT

    echo "== running geomancy_sim --metrics-json =="
    "${sim}" --policy geomancy --runs 3 --warmup 1 --epochs 4 --quiet \
        --metrics-json "${metrics}"

    echo "== validating ${metrics} =="
    python3 - "${metrics}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

def fail(message):
    print(f"bench_smoke: {message}", file=sys.stderr)
    sys.exit(1)

if doc.get("schema") != "geo-metrics-1":
    fail(f"unexpected metrics schema {doc.get('schema')!r}")
for section in ("counters", "gauges", "histograms"):
    if not isinstance(doc.get(section), dict):
        fail(f"metrics snapshot missing {section} object")

counters = doc["counters"]
for name in ("geomancy.cycles", "monitor.records_observed"):
    if counters.get(name, 0) <= 0:
        fail(f"counter {name} should be positive after a run")
for name, hist in doc["histograms"].items():
    for key in ("count", "sum", "min", "max", "p50", "p95", "p99"):
        if key not in hist:
            fail(f"histogram {name} missing {key}")

print(f"bench_smoke: metrics snapshot OK ({len(counters)} counters, "
      f"{len(doc['histograms'])} histograms)")
EOF
else
    echo "bench_smoke.sh: ${sim} not built, skipping metrics check" >&2
fi

if [[ -x "${sim}" ]]; then
    ckpt_dir="$(mktemp -d /tmp/geo_ckpt_smoke.XXXXXX)"
    trap 'rm -f "${out}"; rm -rf "${ckpt_dir}"' EXIT

    echo "== running geomancy_sim --checkpoint-dir =="
    "${sim}" --policy geomancy --runs 6 --warmup 1 --cadence 3 \
        --epochs 4 --quiet --checkpoint-dir "${ckpt_dir}"

    echo "== validating checkpoint files in ${ckpt_dir} =="
    # The on-disk format is deliberately tool-friendly: a one-line
    # header (magic, cycle, payload length, zlib CRC32) followed by the
    # payload. Validate every snapshot with nothing but python's zlib.
    python3 - "${ckpt_dir}" <<'EOF'
import glob
import sys
import zlib

def fail(message):
    print(f"bench_smoke: {message}", file=sys.stderr)
    sys.exit(1)

snapshots = sorted(glob.glob(sys.argv[1] + "/ckpt-*.geo"))
if not snapshots:
    fail("no checkpoint files were written")

for path in snapshots:
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0:
        fail(f"{path}: no header line")
    fields = blob[:newline].decode("ascii", "replace").split()
    if len(fields) != 4 or fields[0] != "geo-ckpt-1":
        fail(f"{path}: bad header {fields!r}")
    header = {}
    for field in fields[1:]:
        key, _, value = field.partition("=")
        header[key] = value
    for key in ("cycle", "bytes", "crc32"):
        if key not in header:
            fail(f"{path}: header missing {key}")
    payload = blob[newline + 1:]
    if len(payload) != int(header["bytes"]):
        fail(f"{path}: payload is {len(payload)} bytes, header says "
             f"{header['bytes']}")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    if crc != int(header["crc32"], 16):
        fail(f"{path}: CRC mismatch (file {header['crc32']}, "
             f"computed {crc:08x})")
    if b"geo.cycles" not in payload:
        fail(f"{path}: payload lacks the pipeline cycle counter")

print(f"bench_smoke: {len(snapshots)} checkpoint file(s) OK "
      "(header, length and zlib CRC32 all match)")
EOF
fi

soak="${build_dir}/bench/fig9_chaos_soak"
if [[ -x "${soak}" ]]; then
    soak_dir="$(mktemp -d /tmp/geo_fig9_smoke.XXXXXX)"
    trap 'rm -f "${out}"; rm -rf "${soak_dir}"' EXIT

    echo "== running fig9 chaos soak (quick, 50 cycles) =="
    # The harness exits nonzero on any invariant violation, digest
    # divergence, or if the storm fails to trip safe mode; the metrics
    # snapshot is additionally schema-validated below.
    (cd "${soak_dir}" && \
        GEO_FIG9_CYCLES=50 GEO_METRICS_OUT="${soak_dir}/fig9.json" \
        "${soak}")

    echo "== validating ${soak_dir}/fig9.json =="
    python3 - "${soak_dir}/fig9.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

def fail(message):
    print(f"bench_smoke: {message}", file=sys.stderr)
    sys.exit(1)

if doc.get("schema") != "geo-metrics-1":
    fail(f"unexpected metrics schema {doc.get('schema')!r}")
gauges = doc.get("gauges")
if not isinstance(gauges, dict):
    fail("metrics snapshot missing gauges object")

if gauges.get("fig9.cycles", 0) < 50:
    fail(f"soak ran {gauges.get('fig9.cycles')} cycles, wanted >= 50")
for scenario in ("reference", "same-seed-twin", "crash-after-train",
                 "crash-in-safe-mode"):
    if gauges.get(f"fig9.{scenario}.identical", 0) != 1:
        fail(f"scenario {scenario} diverged from the reference digests")
if gauges.get("fig9.reference.safe_entries", 0) < 1:
    fail("the telemetry storm never tripped safe mode")
if gauges.get("fig9.reference.quarantined", 0) <= 0:
    fail("the chaos schedule quarantined no telemetry")

print("bench_smoke: fig9 chaos soak OK "
      f"({gauges['fig9.cycles']:.0f} cycles, "
      f"{gauges['fig9.reference.safe_entries']:.0f} safe-mode entries, "
      f"{gauges['fig9.reference.quarantined']:.0f} records quarantined, "
      "all digests identical)")
EOF
else
    echo "bench_smoke.sh: ${soak} not built, skipping chaos gate" >&2
fi

scale="${build_dir}/bench/fig10_scale_out"
if [[ -x "${scale}" ]]; then
    scale_dir="$(mktemp -d /tmp/geo_fig10_smoke.XXXXXX)"
    trap 'rm -f "${out}"; rm -rf "${scale_dir}"' EXIT

    echo "== running fig10 scale-out (quick, 3 rounds) =="
    # The harness exits nonzero unless the 4-shard round takes at most
    # its gate's share of the monolith's round wall time (enforced on a
    # pool of >= 4 workers), the per-device budgets hold and the
    # same-seed twin is byte-identical; the gauges it emits are
    # additionally schema-validated below.
    (cd "${scale_dir}" && \
        GEO_FIG10_ROUNDS=3 GEO_FIG10_TENANTS=4 \
        GEO_METRICS_OUT="${scale_dir}/fig10.json" \
        "${scale}")

    echo "== validating ${scale_dir}/fig10.json =="
    python3 - "${scale_dir}/fig10.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

def fail(message):
    print(f"bench_smoke: {message}", file=sys.stderr)
    sys.exit(1)

if doc.get("schema") != "geo-metrics-1":
    fail(f"unexpected metrics schema {doc.get('schema')!r}")
gauges = doc.get("gauges")
if not isinstance(gauges, dict):
    fail("metrics snapshot missing gauges object")

if gauges.get("fig10.scenarios", 0) < 3:
    fail(f"expected >= 3 shard-count scenarios, "
         f"got {gauges.get('fig10.scenarios')}")
for shards in (1, 2, 4):
    prefix = f"fig10.shards{shards}."
    for key in ("round_ms", "files_per_sec", "applied", "denied",
                "peak_device_moves"):
        if prefix + key not in gauges:
            fail(f"gauge {prefix}{key} missing")
    if gauges[prefix + "round_ms"] <= 0:
        fail(f"{prefix}round_ms must be positive")
for key in ("fig10.round_wall_4v1", "fig10.round_wall_gate",
            "fig10.pool_workers"):
    if key not in gauges:
        fail(f"gauge {key} missing")
wall = gauges["fig10.round_wall_4v1"]
gate = gauges["fig10.round_wall_gate"]
if gauges["fig10.pool_workers"] >= 4 and not 0 < wall <= gate:
    fail(f"4-shard round wall time {wall:.2f}x the monolith's, above "
         f"the {gate:.2f}x gate")
if gauges.get("fig10.twin_identical", 0) != 1:
    fail("same-seed 4-shard twin diverged")
if gauges.get("fig10.budget_ok", 0) != 1:
    fail("a per-device admission budget was exceeded")

print("bench_smoke: fig10 scale-out OK "
      f"(4-shard round {wall:.2f}x the monolith's, "
      "budgets held, twin identical)")
EOF
else
    echo "bench_smoke.sh: ${scale} not built, skipping scale-out gate" >&2
fi

echo "== bench_smoke.sh: OK =="
