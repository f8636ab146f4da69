#!/usr/bin/env python3
"""Compares two sets of benchmark results recorded by run.py.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run.py records (.bench_results/results.jsonl). Untraced
records are grouped by workload; for every end-to-end metric the medians
are compared against the metric's bound from BENCHMARK.json. A change is
labelled "noise" when it lies within the base set's own spread (distance
between its quartiles), "regression" when it is worse than the median by
more than the bound, and "better" or "worse" otherwise. Results measured on
another host are labelled "foreign" and not compared. Exits 1 when any
metric regressed.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def groups(records):
    """{workload: (set of hosts, {metric: [values]})} over untraced runs."""
    out = {}
    for r in records:
        if r["trace"]:
            continue
        hosts, values = out.setdefault(r["workload"], (set(), {}))
        hosts.add(r["provenance"].get("host"))
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def compare(base, new, spec):
    """Yields (workload, metric, label, base_median, new_median) rows."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    b, n = groups(base), groups(new)
    for wl in sorted(set(b) & set(n)):
        (bhosts, bvals), (nhosts, nvals) = b[wl], n[wl]
        foreign = len(bhosts | nhosts) > 1
        for name, m in metrics.items():
            if name not in bvals or name not in nvals:
                continue
            bm, nm = statistics.median(bvals[name]), statistics.median(nvals[name])
            if foreign:
                label = "foreign"
            else:
                worse = nm - bm if m["better"] == "lower" else bm - nm
                if abs(nm - bm) <= spread(bvals[name]):
                    label = "noise"
                elif worse > m["bound"] * abs(bm):
                    label = "regression"
                else:
                    label = "worse" if worse > 0 else "better"
            yield wl, name, label, bm, nm


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    regressed = False
    for wl, name, label, bm, nm in compare(load(argv[0]), load(argv[1]), spec):
        print(f"{wl:8s} {name:18s} {label:10s} {bm:.6g} -> {nm:.6g}")
        regressed |= label == "regression"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
