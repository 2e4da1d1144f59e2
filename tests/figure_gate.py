#!/usr/bin/env python3
"""Byte gate and schema checks for one figure binary's outputs.

Runs FIGURE once per flag set, all runs at once. Every run writes its
``--emit-json`` report to ``OUT_DIR/<run>.json``; a ``--run`` also
writes ``--artifacts OUT_DIR/<run>/``, a ``--report-only`` run does
not. <run> is the flag set joined by underscores (``jobs_4_progress``).
The gate then requires that:

* every report equals the first one byte for byte, and every artifact
  directory holds the same files with the same bytes as the first one;
* each ``--baseline NAME=PATH`` file equals its committed baseline byte
  for byte. NAME is a file of the artifact directory, or ``report``;
* the report names FIGURE as its bench, and every JSON file of the
  first run passes the checks that ``CHECKS`` lists for its ``schema``
  string. A file whose schema ``CHECKS`` does not list fails.

On a byte mismatch with a baseline the gate also prints the
``tools/bench_compare.py`` command that reports per-metric deltas.

Usage: figure_gate.py FIGURE OUT_DIR --run=FLAGS... [--report-only=FLAGS...]
                      [--baseline NAME=PATH...]

Each FLAGS is one argument, e.g. ``"--run=--jobs 4 --no-fast-forward"``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import traceback

BENCH_COMPARE = (pathlib.Path(__file__).resolve().parent.parent
                 / "tools" / "bench_compare.py")

def check_bench(report: dict) -> str:
    assert report["rows"], "report has no rows"
    for row in report["rows"]:
        for key in ("label", "cycles", "instrs", "ipc",
                    "l1_miss_rate", "l2_miss_rate",
                    "dram_row_hit_rate"):
            assert key in row, f"row missing {key}"
    return f"report rows: {len(report['rows'])}"


def check_trace(trace: dict) -> str:
    assert trace["otherData"]["cycle_unit"] == "us"
    names = {e.get("name") for e in trace["traceEvents"]}
    assert "cta.dispatch" in names, sorted(names)
    phases = {e["ph"] for e in trace["traceEvents"]}
    assert {"X", "M"} <= phases, phases
    return f"trace events: {len(trace['traceEvents'])}"


def check_profile(profile: dict) -> str:
    cats = ["issued", "barrier", "scoreboard", "mem_structural",
            "pipeline", "empty"]
    assert profile["categories"] == cats, profile["categories"]
    assert profile["slots_per_core"] > 0
    assert profile["cores"], "profile has no cores"
    for core in profile["cores"]:
        counts = core["counts"]
        assert sorted(counts) == sorted(cats), counts
        # Per-core conservation: the exported slot_cycles total is
        # exactly the category sum (activeCycles x slots).
        assert sum(counts.values()) == core["slot_cycles"], core
        assert core["no_issue_cycles"] <= core["slot_cycles"]
    total = profile["total"]
    assert sum(total.values()) == sum(
        c["slot_cycles"] for c in profile["cores"])
    assert total["issued"] > 0, "profiled run never issued"
    return f"profile cores: {len(profile['cores'])}"


def check_memprofile(mem: dict) -> str:
    stages = ["core_q", "noc_req", "l2_q", "dram_q", "dram_svc",
              "l2_mshr", "l2_ret", "noc_resp"]
    assert mem["stages"] == stages, mem["stages"]
    assert mem["bucket_bounds"] == [1 << i for i in range(17)]
    assert mem["points"], "memprofile has no points"
    for point in mem["points"]:
        assert point["outstanding"] == 0, point["label"]
        assert point["begun"] == point["completed"], point["label"]
        prof = point["total"]
        e2e = prof["end_to_end"]
        # Conservation: per-stage cycles sum to the end-to-end
        # cycles, and the histogram saw every completed request.
        stage_sum = sum(prof["stages"][s]["sum"] for s in stages)
        assert stage_sum == e2e["sum"], point["label"]
        assert e2e["total"] == point["completed"], point["label"]
        assert sum(e2e["buckets"]) == e2e["total"], point["label"]
        for level in ("l1", "l2"):
            interference = point["interference"][level]
            assert (interference["cross_cta_evictions"] <=
                    interference["evictions"]), point["label"]
    return (f"memprofile requests: "
            f"{sum(p['completed'] for p in mem['points'])}")


def check_phase(phase: dict) -> str:
    windows = phase["windows"]
    assert windows == len(phase["window_end_cycles"]) > 0
    ends = phase["window_end_cycles"]
    assert ends == sorted(ends), "window ends not monotone"
    for name in ("ipc", "stall_mem_share", "l1_miss_rate",
                 "row_hit_rate", "l1_cross_cta_rate",
                 "l2_cross_cta_rate", "dram_q_occupancy",
                 "l2_mshr_occupancy"):
        assert len(phase["series"][name]) == windows, name
    machine = phase["machine"]
    assert machine["phase_count"] == len(machine["phases"])
    starts = [p["start_window"] for p in machine["phases"]]
    assert starts == sorted(set(starts)), starts
    assert starts[0] == 0, starts
    assert len(phase["cores"]) > 0 and len(phase["kernels"]) > 0
    # E20 acceptance: the phased composite splits into >= 2 machine
    # phases.
    if phase["label"].startswith("fig_phase/"):
        assert machine["phase_count"] >= 2, machine["phase_count"]
    return (f"phase windows: {windows}, "
            f"machine phases: {machine['phase_count']}")


def check_serving(report: dict) -> str:
    runs = report["runs"]
    assert runs, "serving report has no runs"
    policies = {"sequential", "spatial", "fcfs", "reorder",
                "reorder+preempt"}
    traces = {"poisson_mix", "bursty_mix", "closed_pair"}
    seen = {(r["trace"], r["policy"]) for r in runs}
    assert seen == {(t, p) for t in traces for p in policies}, seen
    for run in runs:
        for key in ("requests", "deadlines", "misses",
                    "preemptions", "reorders", "total_cycles",
                    "throughput_per_mcycle", "p50_latency",
                    "p99_latency", "mean_latency",
                    "deadline_miss_rate", "fairness",
                    "tenant_antt"):
            assert key in run, f"run missing {key}"
        assert run["requests"] > 0
        assert run["misses"] <= run["deadlines"]
        assert 0.0 <= run["deadline_miss_rate"] <= 1.0
        assert 0.0 < run["fairness"] <= 1.0
        assert run["p50_latency"] <= run["p99_latency"]
        assert len(run["tenant_antt"]) == 2
    by_key = {(r["trace"], r["policy"]): r for r in runs}
    # The serving acceptance: on the bursty deadline trace,
    # reordering + CTA-drain preemption beats FCFS at the tail.
    fcfs = by_key[("bursty_mix", "fcfs")]
    preempt = by_key[("bursty_mix", "reorder+preempt")]
    assert preempt["p99_latency"] < fcfs["p99_latency"], (
        preempt["p99_latency"], fcfs["p99_latency"])
    assert preempt["preemptions"] > 0
    assert preempt["deadline_miss_rate"] <= fcfs["deadline_miss_rate"]
    metrics = report["metrics"]
    assert metrics["bursty_mix.p99_gain_reorder_preempt"] > 1.0
    return (f"serving runs: {len(runs)}, "
            f"p99 gain (bursty, reorder+preempt): "
            f"{metrics['bursty_mix.p99_gain_reorder_preempt']:.3f}")


def check_servetrace(report: dict) -> str:
    assert report["bench"] == "fig_serving"
    runs = report["runs"]
    traces = {"poisson_mix", "bursty_mix", "closed_pair"}
    assert {r["trace"] for r in runs} == traces
    for run in runs:
        counts = run["counts"]
        decisions = run["decisions"]
        # The audit tally is the decision log, aggregated.
        kinds = {}
        for d in decisions:
            kinds[d["kind"]] = kinds.get(d["kind"], 0) + 1
        assert counts["admits"] == kinds.get("admit", 0), run["policy"]
        assert counts["preempts"] == kinds.get("preempt", 0)
        assert len(run["request_spans"]) == run["requests"]
        pred = run["predictor"]
        assert pred["samples"] == run["requests"]
        assert (pred["over"] + pred["under"] + pred["exact"]
                == pred["samples"])
        assert sum(pred["error_buckets"]) == pred["samples"]
        # Predictor error histograms are populated on every trace.
        assert pred["samples"] > 0, (run["trace"], run["policy"])
    # Acceptance: the preempting policy on the bursty deadline
    # trace records at least one preemption with its victim and
    # the predicted remainder that justified the drain.
    by_key = {(r["trace"], r["policy"]): r for r in runs}
    preempt = by_key[("bursty_mix", "reorder+preempt")]
    assert preempt["counts"]["preempts"] > 0
    pre = [d for d in preempt["decisions"] if d["kind"] == "preempt"]
    for d in pre:
        assert d["victim"] >= 0, d
        assert d["victim_predicted_remaining"] > 0, d
    return (f"servetrace runs: {len(runs)}, "
            f"bursty preempts: {len(pre)}, "
            f"decisions total: {sum(len(r['decisions']) for r in runs)}")


CHECKS = {
    "bsched-bench-v1": check_bench,
    "bsched-trace-v1": check_trace,
    "bsched-profile-v1": check_profile,
    "bsched-memprofile-v1": check_memprofile,
    "bsched-phase-v1": check_phase,
    "bsched-serving-v1": check_serving,
    "bsched-servetrace-v1": check_servetrace,
}


def check_file(path: pathlib.Path, bench: str | None = None) -> list[str]:
    """Run the ``CHECKS`` entry for @p path's schema; failure messages.

    With @p bench set, the file must also name it as its ``bench``.
    """
    try:
        doc = json.loads(path.read_text())
        schema = doc.get("schema") or doc.get("otherData", {}).get("schema")
        if schema not in CHECKS:
            return [f"{path}: no checks for schema {schema!r}"]
        if bench is not None:
            assert doc["bench"] == bench, doc["bench"]
        print(f"{path.name} ({schema}): {CHECKS[schema](doc)}")
    except Exception:  # noqa: BLE001 - any exception is a failed check
        return [f"{path}: check failed\n{traceback.format_exc(limit=-1)}"]
    return []


def same_dirs(a: pathlib.Path, b: pathlib.Path) -> list[str]:
    """Differences between two flat artifact directories, as messages."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"{a} holds {names_a}, {b} holds {names_b}"]
    return [f"{a / n} differs from {b / n}" for n in names_a
            if (a / n).read_bytes() != (b / n).read_bytes()]


def gate(args: argparse.Namespace) -> list[str]:
    """Run every flag set and compare and check the outputs."""
    runs = [(flags.split(), True) for flags in args.run]
    runs += [(flags.split(), False) for flags in args.report_only]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    reports, dirs, procs = [], [], []
    for flags, artifacts in runs:
        name = "_".join(f.lstrip("-") for f in flags)
        name += "" if artifacts else "_no-artifacts"
        reports.append(out / f"{name}.json")
        reports[-1].unlink(missing_ok=True)
        cmd = [args.figure, *flags, "--emit-json", str(reports[-1])]
        if artifacts:
            dirs.append(out / name)
            shutil.rmtree(dirs[-1], ignore_errors=True)
            cmd += ["--artifacts", str(dirs[-1])]
        procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL))
    failures = [f"{' '.join(proc.args)} exited {proc.returncode}"
                for proc in procs if proc.wait() != 0]
    if failures:
        return failures

    failures += [f"{r} differs from {reports[0]}" for r in reports[1:]
                 if r.read_bytes() != reports[0].read_bytes()]
    for d in dirs[1:]:
        failures += same_dirs(dirs[0], d)
    for spec in args.baseline:
        name, _, baseline = spec.partition("=")
        current = reports[0] if name == "report" else dirs[0] / name
        if not current.is_file():
            failures.append(f"{current} was not written")
        elif current.read_bytes() != pathlib.Path(baseline).read_bytes():
            failures.append(
                f"{current} differs from {baseline}\n"
                f"  per-metric deltas: python3 {BENCH_COMPARE} "
                f"{baseline} {current}")
    failures += check_file(reports[0], pathlib.Path(args.figure).name)
    for path in sorted(dirs[0].glob("*.json")):
        failures += check_file(path)
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("figure", help="figure binary to run")
    parser.add_argument("out", type=pathlib.Path,
                        help="directory for every run's outputs")
    parser.add_argument("--run", action="append", default=[],
                        metavar="FLAGS", help="run with --artifacts")
    parser.add_argument("--report-only", action="append", default=[],
                        metavar="FLAGS", help="run without --artifacts")
    parser.add_argument("--baseline", action="append", default=[],
                        metavar="NAME=PATH",
                        help="byte-compare output NAME with PATH")
    args = parser.parse_args(argv[1:])
    if not args.run:
        parser.error("at least one --run is required")
    for spec in args.baseline:
        if "=" not in spec:
            parser.error(f"--baseline {spec}: expected NAME=PATH")

    failures = gate(args)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"figure gate: {len(args.run) + len(args.report_only)} runs "
              f"of {pathlib.Path(args.figure).name} agree, "
              f"{len(args.baseline)} baseline(s) match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
