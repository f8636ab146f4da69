#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <small|wide> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
capr libraries and the capr-bench program into .bench_build/ (Release);
later runs rebuild incrementally. capr-bench's report lines are passed
through, followed by a provenance line and, as the last line, the result
JSON: {"correct", "attempted", "failed", "metrics"}. Each result is also
appended, with its provenance, to .bench_results/results.jsonl, which
compare.py reads.

Exits non-zero without printing a result when the checkout has no capr
sources, the build fails, capr-bench refuses the build or environment,
or the result does not match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 165


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no capr sources under {ROOT}/src; run from a full checkout", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                         BUILD_TIMEOUT_S)
        if rc != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    rc = run_checked(["cmake", "--build", BUILD_DIR, "--target", "capr-bench", "-j", jobs],
                     BUILD_TIMEOUT_S)
    if rc != 0:
        die("build failed")
    return os.path.join(BUILD_DIR, "capr-bench")


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(result, spec, trace):
    """Checks a result against the contract; returns a list of problems."""
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                        "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            problems.append(f"{k} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        missing = sorted(set(want) - set(got or {}))
        extra = sorted(set(got or {}) - set(want))
        return problems + [f"metric names differ: missing {missing}, unexpected {extra}"]
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            problems.append(f"{name}: expected unit {want[name]!r}, got {m}")
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"{name}: value {m['value']!r} is not a number")
    return problems


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    binary = build()
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}", 2)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(RESULTS_DIR, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"capr-bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die(f"capr-bench exited with code {proc.returncode}", proc.returncode)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        die("capr-bench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("capr-bench's last line is not JSON")
    problems = validate(result, spec, args.trace)
    if problems:
        die("result does not match BENCHMARK.json: " + "; ".join(problems))

    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            print(line)
    provenance["commit"] = source_revision()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance, "result": result}
    with open(os.path.join(RESULTS_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
