#!/usr/bin/env python3
"""Compare two benchmark JSON files produced by the bench binaries.

Usage:
    python3 tools/perf_diff.py BASELINE CURRENT [--threshold PCT] [--strict]

Supported schemas (both files must carry the same one):
    capr-kernel-bench-v1   bench_gemm / bench_conv, metric: gflops, except
                           data-movement rows carrying ns_per_elem
                           (bench_conv's im2col_packed rows), where lower
                           is better
    capr-serve-bench-v1    bench_serve (closed loop only), metric: qps
    capr-serve-bench-v2    bench_serve incl. open-loop latency-under-load
                           rows ("open/...") and per-variant saturation
                           rows ("sat/...", qps = peak sustained
                           throughput), metric: qps
    capr-tournament-v1     capr-tournament pruning-strategy frontier
                           rows ("tournament/<arch>/<strategy>", qps =
                           measured saturation throughput), metric: qps

Matches results by benchmark name and reports the metric delta for each.
A drop larger than --threshold percent (default 20) is flagged as a
regression (a rise, for lower-is-better metrics). By default regressions only WARN (exit 0) because CI runners
have noisy clocks; --strict makes them fail the step (exit 1).

Benchmarks present in only one file are listed but never fatal — the
sweep grows over time and smoke runs are a subset of the full sweep.
"""

import argparse
import json
import sys

# schema -> (higher-is-better metric key, unit suffix for the table)
SCHEMAS = {
    "capr-kernel-bench-v1": ("gflops", "G"),
    "capr-serve-bench-v1": ("qps", "/s"),
    "capr-serve-bench-v2": ("qps", "/s"),
    "capr-tournament-v1": ("qps", "/s"),
}

# Row-level lower-is-better metrics that replace the schema metric on the
# rows that carry them: key -> unit suffix.
LOWER_IS_BETTER = {"ns_per_elem": "ns"}


def row_metric(row, metric, unit):
    """The (key, unit, higher_is_better) a row is compared on."""
    for key, key_unit in LOWER_IS_BETTER.items():
        if key in row:
            return key, key_unit, False
    return metric, unit, True


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        sys.exit(f"{path}: unexpected schema {schema!r}")
    return schema, {r["name"]: r for r in doc.get("results", [])}


def check_tuned_rows(label, rows, metric, unit, threshold):
    """Intra-file check for kernel bench files: every tiled-tuned row is
    compared against its untuned tiled sibling. The autotuner only commits
    configs that beat the default, so tuned dropping below untuned by more
    than the noise threshold means the committed table has gone stale for
    this machine (or the search regressed). Returns the offending rows."""
    regressions = []
    tuned = [n for n in sorted(rows) if "/tiled-tuned/" in n]
    if not tuned:
        return regressions
    width = max(len(n) for n in tuned)
    print(f"\ntuned-vs-untuned ({label}):")
    print(f"{'benchmark':<{width}}  {'tiled':>9}  {'tuned':>9}  {'delta':>8}")
    for name in tuned:
        sibling = name.replace("/tiled-tuned/", "/tiled/")
        if sibling not in rows:
            print(f"{name:<{width}}  (no untuned sibling)")
            continue
        b, c = rows[sibling][metric], rows[name][metric]
        delta = (c - b) / b * 100.0 if b > 0 else 0.0
        mark = ""
        if delta < -threshold:
            mark = "  << TUNED REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {b:>8.2f}{unit}  {c:>8.2f}{unit}  {delta:>+7.1f}%{mark}")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=20.0,
                    help="regression threshold in percent (default 20)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on regression instead of warning")
    args = ap.parse_args()

    base_schema, base = load_doc(args.baseline)
    curr_schema, curr = load_doc(args.current)
    if base_schema != curr_schema:
        sys.exit(f"schema mismatch: {args.baseline} is {base_schema}, "
                 f"{args.current} is {curr_schema}")
    metric, unit = SCHEMAS[base_schema]

    common = sorted(set(base) & set(curr))
    if not common:
        print("perf_diff: no common benchmarks between the two files")
        return 0

    width = max(len(n) for n in common)
    regressions = []
    print(f"{'benchmark':<{width}}  {'base':>9}  {'curr':>9}  {'delta':>8}")
    for name in common:
        key, key_unit, higher = row_metric(base[name], metric, unit)
        if key not in curr[name]:
            print(f"{name:<{width}}  (no {key} in current)")
            continue
        b, c = base[name][key], curr[name][key]
        delta = (c - b) / b * 100.0 if b > 0 else 0.0
        mark = ""
        if (delta < -args.threshold) if higher else (delta > args.threshold):
            mark = "  << REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {b:>8.2f}{key_unit}  {c:>8.2f}{key_unit}  {delta:>+7.1f}%{mark}")

    for name in sorted(set(base) - set(curr)):
        print(f"{name:<{width}}  (baseline only)")
    for name in sorted(set(curr) - set(base)):
        print(f"{name:<{width}}  (current only)")

    tuned_regressions = []
    if base_schema == "capr-kernel-bench-v1":
        tuned_regressions = check_tuned_rows("current", curr, metric, unit,
                                             args.threshold)

    if regressions:
        print(f"\nperf_diff: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}% vs baseline")
    if tuned_regressions:
        print(f"perf_diff: {len(tuned_regressions)} tiled-tuned row(s) fell more "
              f"than {args.threshold:.0f}% below their untuned sibling")
    if regressions or tuned_regressions:
        if args.strict:
            return 1
        print("perf_diff: warning only (pass --strict to fail)")
    else:
        print(f"\nperf_diff: no regression beyond {args.threshold:.0f}% "
              f"on {len(common)} common benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
