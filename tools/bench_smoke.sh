#!/usr/bin/env bash
# Bench smoke test: drive the CLI and the two soak benches end to end
# and validate what they export.
#   - geomancy_sim --metrics-json: the geo-metrics-1 snapshot schema;
#   - geomancy_sim --checkpoint-dir: every snapshot's header, length
#     and CRC32, and that both halves of a commit were timed;
#   - fig9_chaos_soak (50 cycles): digests, safe-mode entry and
#     quarantine gauges;
#   - fig10_scale_out (3 rounds): round wall-time gate, budgets and the
#     same-seed twin.
# fig10's ratio is the only timing gated here; decision-cycle timings
# are perfbench's (BENCHMARK.json).
#
# Usage: tools/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
sim="${build_dir}/tools/geomancy_sim"
soak="${build_dir}/bench/fig9_chaos_soak"
scale="${build_dir}/bench/fig10_scale_out"

for binary in "${sim}" "${soak}" "${scale}"; do
    if [[ ! -x "${binary}" ]]; then
        echo "bench_smoke.sh: ${binary} not built" \
             "(cmake --build ${build_dir})" >&2
        exit 1
    fi
done

scratch="$(mktemp -d /tmp/geo_bench_smoke.XXXXXX)"
trap 'rm -rf "${scratch}"' EXIT

metrics="${scratch}/metrics.json"
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

ckpt_dir="${scratch}/ckpt"
echo "== running geomancy_sim --checkpoint-dir =="
"${sim}" --policy geomancy --runs 6 --warmup 1 --cadence 3 \
    --epochs 4 --quiet --checkpoint-dir "${ckpt_dir}" \
    --metrics-json "${ckpt_dir}/metrics.json"

echo "== validating checkpoint files in ${ckpt_dir} =="
# The on-disk format is deliberately tool-friendly: a one-line header
# (magic, cycle, payload length, zlib CRC32) followed by the payload.
# Validate every snapshot with nothing but python's zlib, and check
# that both halves of a commit were timed.
python3 - "${ckpt_dir}" <<'EOF'
import glob
import json
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

with open(sys.argv[1] + "/metrics.json") as fh:
    histograms = json.load(fh)["histograms"]
for name in ("checkpoint.serialize_ms", "checkpoint.write_ms"):
    if histograms.get(name, {}).get("count", 0) <= 0:
        fail(f"histogram {name} recorded no commit")

print(f"bench_smoke: {len(snapshots)} checkpoint file(s) OK "
      "(header, length and zlib CRC32 all match; serialize and write "
      "timed)")
EOF

soak_dir="${scratch}/fig9"
mkdir "${soak_dir}"
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

scale_dir="${scratch}/fig10"
mkdir "${scale_dir}"
echo "== running fig10 scale-out (quick, 3 rounds) =="
# The harness exits nonzero unless the 4-shard round takes at most its
# gate's share of the monolith's round wall time (enforced on a pool of
# >= 4 workers), the per-device budgets hold and the same-seed twin is
# byte-identical; the gauges it emits are additionally schema-validated
# below.
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

echo "== bench_smoke.sh: OK =="
