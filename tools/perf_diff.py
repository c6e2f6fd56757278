#!/usr/bin/env python3
"""Compare two geo-perf-2 snapshots and fail on perf regressions.

Usage: perf_diff.py BASELINE CURRENT [--threshold FRAC]

A metric regresses when it worsens by more than the threshold
(default 0.15 = 15%; override with --threshold or the
GEO_PERF_DIFF_THRESHOLD environment variable).  Time-like metrics
(ms, ns, seconds) regress upward, speedups regress downward.

Only metrics that are comparable between the two snapshots are
diffed.  GEMM timings are keyed by (m, k, n) — a quick-mode run and a
full-mode run still share sizes — and the metric-primitive overheads
are per-op costs independent of the suite mode.  Timings whose work
depends on the mode (training epochs, decision cycles, model-search
scaling, ledger overhead) are compared only when both snapshots were
produced with the same `quick` flag; otherwise they are skipped with
a note rather than producing false alarms.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"perf_diff: cannot load {path}: {err}")
    if doc.get("schema") != "geo-perf-2":
        sys.exit(f"perf_diff: {path} is not a geo-perf-2 snapshot "
                 f"(schema {doc.get('schema')!r})")
    return doc


class Diff:
    def __init__(self, threshold, floor_ms):
        self.threshold = threshold
        self.floor_ms = floor_ms
        self.rows = []        # (name, base, cur, delta_frac, verdict)
        self.regressions = []
        self.skipped = []

    def compare(self, name, base, cur, lower_wins=True,
                scale_to_ms=1.0):
        """Diff one metric.  `scale_to_ms` converts the metric's unit
        to milliseconds (ns -> 1e-6, s -> 1e3); a time-like metric
        whose baseline is below the floor is too small to measure
        reliably on a shared machine, so it is reported but cannot
        fail the diff.  Dimensionless metrics (speedups) pass
        scale_to_ms=None and are always gated."""
        if base is None or cur is None:
            self.skipped.append(name)
            return
        if not isinstance(base, (int, float)) or \
           not isinstance(cur, (int, float)) or base <= 0:
            self.skipped.append(name)
            return
        delta = (cur - base) / base
        worse = delta > self.threshold if lower_wins \
            else delta < -self.threshold
        gated = scale_to_ms is None or base * scale_to_ms >= self.floor_ms
        if worse and gated:
            verdict = "REGRESSION"
        elif worse:
            verdict = "noisy (below floor)"
        else:
            verdict = "ok"
        self.rows.append((name, base, cur, delta, verdict))
        if worse and gated:
            self.regressions.append(name)

    def report(self):
        width = max((len(r[0]) for r in self.rows), default=10)
        print(f"{'metric':<{width}}  {'baseline':>12}  {'current':>12}"
              f"  {'delta':>8}")
        for name, base, cur, delta, verdict in self.rows:
            mark = "  <-- " + verdict if verdict != "ok" else ""
            print(f"{name:<{width}}  {base:>12.4f}  {cur:>12.4f}"
                  f"  {delta:>+7.1%}{mark}")
        for name in self.skipped:
            print(f"{name:<{width}}  (not comparable, skipped)")


def section(doc, name):
    value = doc.get(name)
    return value if isinstance(value, dict) else {}


def main():
    parser = argparse.ArgumentParser(
        description="diff two geo-perf-2 snapshots")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get("GEO_PERF_DIFF_THRESHOLD", "0.15")),
        help="regression threshold as a fraction (default 0.15)")
    parser.add_argument(
        "--floor", type=float,
        default=float(os.environ.get("GEO_PERF_DIFF_FLOOR_MS", "1.0")),
        help="time-like metrics with a baseline below this many "
             "milliseconds are advisory only (default 1.0)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    diff = Diff(args.threshold, args.floor)
    same_mode = base.get("quick") == cur.get("quick")

    # GEMM: keyed by shape, comparable across modes.
    base_gemm = {(g.get("m"), g.get("k"), g.get("n")): g
                 for g in base.get("gemm", [])}
    cur_gemm = {(g.get("m"), g.get("k"), g.get("n")): g
                for g in cur.get("gemm", [])}
    for key in sorted(set(base_gemm) & set(cur_gemm)):
        label = "gemm[%dx%dx%d]" % key
        diff.compare(label + ".fast_ms", base_gemm[key].get("fast_ms"),
                     cur_gemm[key].get("fast_ms"))
        diff.compare(label + ".speedup", base_gemm[key].get("speedup"),
                     cur_gemm[key].get("speedup"),
                     lower_wins=False, scale_to_ms=None)

    # Metric primitives: per-op ns, comparable across modes.
    base_ovh = section(base, "metrics_overhead")
    cur_ovh = section(cur, "metrics_overhead")
    for key in ("counter_ns", "histogram_ns"):
        diff.compare("metrics_overhead." + key, base_ovh.get(key),
                     cur_ovh.get(key), scale_to_ms=1e-6)

    # Dimensionless speedups: comparable across modes.
    diff.compare("candidate_scoring.speedup",
                 section(base, "candidate_scoring").get("speedup"),
                 section(cur, "candidate_scoring").get("speedup"),
                 lower_wins=False, scale_to_ms=None)

    # Mode-dependent wall times: only when the modes match.
    if same_mode:
        diff.compare("train.epoch_ms",
                     section(base, "train").get("epoch_ms"),
                     section(cur, "train").get("epoch_ms"))
        diff.compare("train.retrain_ms",
                     section(base, "train").get("retrain_ms"),
                     section(cur, "train").get("retrain_ms"))
        diff.compare("candidate_scoring.batched_ms",
                     section(base, "candidate_scoring").get("batched_ms"),
                     section(cur, "candidate_scoring").get("batched_ms"))
        diff.compare("full_cycle.cycle_ms",
                     section(base, "full_cycle").get("cycle_ms"),
                     section(cur, "full_cycle").get("cycle_ms"))
        diff.compare("ledger_overhead.with_ms",
                     section(base, "ledger_overhead").get("with_ms"),
                     section(cur, "ledger_overhead").get("with_ms"))
        # Worker-scaling deltas are pure scheduler noise on a single
        # hardware thread: every worker count serializes onto one core,
        # so "speedup" is a coin flip.  Skip them when either snapshot
        # reports hw_concurrency <= 1 (snapshots predating the field
        # are compared as before).
        cores = [doc.get("hw_concurrency") for doc in (base, cur)
                 if isinstance(doc.get("hw_concurrency"), (int, float))]
        if cores and min(cores) <= 1:
            diff.skipped.append(
                "model_search_scaling timings (single hardware thread: "
                f"hw_concurrency={min(cores):.0f})")
        else:
            base_scaling = {s.get("workers"): s
                            for s in base.get("model_search_scaling", [])}
            cur_scaling = {s.get("workers"): s
                           for s in cur.get("model_search_scaling", [])}
            for workers in sorted(set(base_scaling) & set(cur_scaling)):
                diff.compare(f"model_search_scaling[{workers}].seconds",
                             base_scaling[workers].get("seconds"),
                             cur_scaling[workers].get("seconds"),
                             scale_to_ms=1e3)
    else:
        diff.skipped.append(
            "train/full_cycle/scaling/ledger timings (quick flags "
            f"differ: baseline quick={base.get('quick')}, current "
            f"quick={cur.get('quick')})")

    diff.report()
    if diff.regressions:
        print(f"perf_diff: {len(diff.regressions)} regression(s) beyond "
              f"{args.threshold:.0%}: {', '.join(diff.regressions)}",
              file=sys.stderr)
        return 1
    print(f"perf_diff: no regression beyond {args.threshold:.0%} "
          f"({len(diff.rows)} metrics compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
