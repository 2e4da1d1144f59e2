#!/usr/bin/env python3
"""Byte gate and acceptance checks for the serving reports (E18/E19).

Runs ``fig_serving --jobs 4 --emit-json OUT_DIR/serving.json
--artifacts OUT_DIR`` once. Both serving files must equal their
committed baselines byte for byte: ``serving.json`` (the
``bsched-serving-v1`` report) against ``bench/BENCH_serving.json`` and
``servetrace.json`` (the ``bsched-servetrace-v1`` decision audit of the
same runs) against ``bench/BENCH_servetrace.json``. Both files are
fast-forward- and jobs-invariant; CI's serving job also reruns the
figure at ``--jobs 1`` and with fast-forward off.

The fresh files then pass the schema and acceptance checks: every
(trace, policy) point is present, on ``bursty_mix`` reordering with
CTA-drain preemption beats FCFS at p99 and preempts at least once,
every audit tally matches its decision log, and every preemption names
its victim and the predicted remainder that justified the drain.

Usage: serving_gate.py FIG_SERVING BENCH_DIR OUT_DIR
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import traceback


def validate_serving(report: dict) -> None:
    """Schema and acceptance of the ``bsched-serving-v1`` report."""
    assert report["schema"] == "bsched-serving-v1", report["schema"]
    assert report["bench"] == "fig_serving"
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
    print(f"serving runs: {len(runs)}, "
          f"p99 gain (bursty, reorder+preempt): "
          f"{metrics['bursty_mix.p99_gain_reorder_preempt']:.3f}")


def validate_servetrace(report: dict) -> None:
    """Schema and acceptance of the ``bsched-servetrace-v1`` audit."""
    assert report["schema"] == "bsched-servetrace-v1"
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
    print(f"servetrace runs: {len(runs)}, "
          f"bursty preempts: {len(pre)}, "
          f"decisions total: {sum(len(r['decisions']) for r in runs)}")


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    serving = argv[1]
    bench, out = pathlib.Path(argv[2]), pathlib.Path(argv[3])
    out.mkdir(parents=True, exist_ok=True)
    subprocess.run([serving, "--jobs", "4",
                    "--emit-json", str(out / "serving.json"),
                    "--artifacts", str(out)],
                   check=True, stdout=subprocess.DEVNULL)
    gates = {"serving.json": ("BENCH_serving.json", validate_serving),
             "servetrace.json": ("BENCH_servetrace.json",
                                 validate_servetrace)}

    failures = []
    for name, (baseline, validate) in gates.items():
        report = out / name
        if report.read_bytes() != (bench / baseline).read_bytes():
            failures.append(f"{report} != {bench / baseline}")
        try:
            validate(json.loads(report.read_text()))
        except AssertionError:
            failures.append(f"{report}: check failed\n"
                            f"{traceback.format_exc(limit=-1)}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"serving gate: {len(gates)} reports match {bench}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
