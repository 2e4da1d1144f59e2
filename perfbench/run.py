#!/usr/bin/env python3
"""Repository benchmark: build the runner, run one workload, print metrics.

    python3 perfbench/run.py --workload paper_sweep|serve_open|observed_run
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds perfbench/ (and the
simulator library from src/) with CMake, then launches the runner binary
once per repetition until --seconds have passed. Every repetition is a
fresh process, so nothing cached in memory carries over between them.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and prints every per-layer
metric. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

    python3 perfbench/run.py --record-expected

rewrites perfbench/expected/ from the current code.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")
OUT_DIR = ".bench_out"
WORKLOADS = ("paper_sweep", "serve_open", "observed_run")
# serve_open seeds whose per-request results are committed.
RECORDED_SEEDS = range(0, 41)

# Host times are reported at a reference host speed. Each repetition
# times a fixed memory-system reference (map, touch and unmap 64 MiB;
# see hostReference() in src/main.cc) and its host times are scaled by
# REF_S / that time. On a shared host whose speed drifts by up to half
# for minutes at a time, this cut the spread of 10-repetition medians of
# a simulation from 0.23 to 0.15 (one thread) and from 0.09 to 0.07
# (four threads). REF_S is a round figure within the reference's range
# (25-75 ms) on the 4-core host the benchmark was built on.
REF_S = 0.05


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- statistics --------------------------------------------------------------


def tail_percentile(values, p, min_beyond=10):
    """Nearest-rank p-th percentile of values, or None unless at least
    min_beyond samples rank above it (so p90 needs 100 samples)."""
    if not values:
        return None
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


# --- build -----------------------------------------------------------------


def build():
    """Configure and build the runner binary; return its path (exit 1 on failure)."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) \
        else [cmd]
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build failed:", " ".join(step))
            sys.exit(1)
    return binary


# --- one repetition --------------------------------------------------------


def run_child(binary, workload, seed, trace=False, extra=(),
              expected=EXPECTED):
    """Run the runner binary once; return its report plus peak RSS (MiB)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--expected", expected] + list(extra)
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log("perfbench: runner exited with", proc.returncode)
        sys.exit(1)
    report = json.loads(out.strip().splitlines()[-1])
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return report


def repeat(seconds, fn):
    """Call fn() until seconds have passed (at least once)."""
    start = time.monotonic()
    results = [fn()]
    while time.monotonic() - start < seconds:
        results.append(fn())
    return results


# --- metrics ---------------------------------------------------------------

def exact_results(reports):
    """Workload-level simulated results; None if the runs disagree."""
    first = reports[0]
    values = {"sim_cycles": first["sim_cycles"], **first["exact"]}
    lat = first["samples"].get("latency_cycles")
    for r in reports[1:]:
        if r["sim_cycles"] != first["sim_cycles"] or \
                r["exact"] != first["exact"] or \
                r["samples"].get("latency_cycles") != lat:
            return None
    if lat:
        values["latency_p50_cycles"] = tail_percentile(lat, 50)
        values["latency_p90_cycles"] = tail_percentile(lat, 90)
    return values


def scaled(report, key):
    """A host time of one repetition at the reference host speed."""
    return report[key] * REF_S / report["ref_s"]


def end_to_end(reports):
    walls = [scaled(r, "wall_s") for r in reports]
    return {
        "wall_s": median(walls),
        "setup_s": median([scaled(r, "setup_s") for r in reports]),
        "sim_instrs_per_s": median(
            [r["sim_instrs"] / w for r, w in zip(reports, walls)]),
        "sim_cycles_per_s": median(
            [r["sim_cycles"] / w for r, w in zip(reports, walls)]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
        "sim_cycles": reports[0]["sim_cycles"],
    }


def per_layer(plain, traced, exact):
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = median([r["layers"][name] for r in traced])
    pooled = [s for r in traced for s in r["samples"].get("harness.point_s", [])]
    if pooled:
        layers["harness.point_s_p50"] = tail_percentile(pooled, 50)
        layers["harness.point_s_p90"] = tail_percentile(pooled, 90)
    for name, value in exact.items():
        if name != "sim_cycles":
            layers[name] = value
    layers["bench.trace_overhead"] = (
        median([scaled(r, "wall_s") for r in traced]) /
        median([scaled(r, "wall_s") for r in plain]))
    return layers


def print_self_times(traced):
    names = sorted({n for r in traced for n in r["self_s"]})
    rows = sorted(((median([r["self_s"].get(n, 0.0) for r in traced]), n)
                   for n in names), reverse=True)
    print("self time per span (median over %d traced runs; spans in %s/):"
          % (len(traced), OUT_DIR))
    for secs, name in rows:
        print("  %-24s %10.6f s" % (name, secs))


def measure(args, spec):
    binary = build()
    if args.trace:
        pairs = repeat(args.seconds, lambda: (
            run_child(binary, args.workload, args.seed),
            run_child(binary, args.workload, args.seed, trace=True)))
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        reports = plain + traced
        declared = spec["per_layer"]
    else:
        reports = repeat(args.seconds, lambda: run_child(
            binary, args.workload, args.seed))
        declared = spec["end_to_end"]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    exact = exact_results(reports)
    correct = failed == 0 and exact is not None
    exact = exact or {}
    exact["error_rate"] = failed / attempted if attempted else 1.0

    values = per_layer(plain, traced, exact) if args.trace \
        else end_to_end(reports)
    metrics = {}
    print("%s: %d runs, seed %d, %d checked outputs, %d failed"
          % (args.workload, len(reports), args.seed, attempted, failed))
    for m in declared:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value if value is not None else 0.0,
                              "unit": m["unit"]}
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-32s %14s %-8s (%s is better)"
              % (m["name"], shown, m["unit"], m["better"]))
    if not args.trace:
        print("raw host times (not scaled): wall_s %.6g s, setup_s %.6g s, "
              "host reference %.6g s (medians)"
              % (median([r["wall_s"] for r in reports]),
                 median([r["setup_s"] for r in reports]),
                 median([r["ref_s"] for r in reports])))
        print("simulated results (exact):")
        for name, value in sorted(exact.items()):
            print("  %-32s %14s" % (name, "n/a" if value is None
                                    else "%.10g" % value))
    else:
        print_self_times(traced)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# --- expectations ------------------------------------------------------------


def record_expected():
    """Regenerate perfbench/expected/ from the current code."""
    binary = build()
    os.makedirs(EXPECTED, exist_ok=True)
    scratch = os.path.join(ROOT, OUT_DIR, "record")
    os.makedirs(scratch, exist_ok=True)

    def record(workload, seed):
        path = os.path.join(scratch, "%s.%d.txt" % (workload, seed))
        run_child(binary, workload, seed, expected="",
                  extra=["--record", path])
        with open(path) as f:
            return f.read()

    jobs = [("paper_sweep", 0), ("observed_run", 0)] + \
        [("serve_open", s) for s in RECORDED_SEEDS]
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        texts = list(pool.map(lambda job: record(*job), jobs))
    header = "# Expected simulated results, recorded by run.py " \
             "--record-expected.\n"
    for workload in WORKLOADS:
        body = "".join(t for (w, _), t in zip(jobs, texts) if w == workload)
        with open(os.path.join(EXPECTED, workload + ".txt"), "w") as f:
            f.write(header + body)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.record_expected:
        record_expected()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        measure(args, load_spec())


if __name__ == "__main__":
    main()
