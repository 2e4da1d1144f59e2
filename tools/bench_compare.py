#!/usr/bin/env python3
"""Compare two benchmark artifacts and flag regressions.

Diffs a *current* artifact against a *baseline* artifact of the same
schema and prints a per-metric delta table. Two schemas are understood:

``bsched-simspeed-v1``
    Simulation-throughput artifact from ``micro_simspeed --emit-json``.
    The compared metric is ``sim_cycles_per_s`` per observer mode
    (higher is better); only a *slowdown* beyond the tolerance is a
    regression, because absolute rates are machine-dependent and
    speedups are never a problem. Absolute rates are judged at 4x the
    tolerance and overhead/speedup ratios at 2x (their honest
    run-to-run spread on shared/virtualized runners exceeds the 5%
    figure-artifact tolerance CI uses). On top of the baseline diff the
    *current* artifact must meet machine-independent budget floors:
    ``relative_rate.observed_vs_plain >= 0.5`` (tracer + sampler
    overhead), ``relative_rate.profiled_vs_plain >= 0.85`` (profiling
    overhead),
    ``relative_rate.servetraced_vs_plain >= 0.9`` (serving decision
    audit overhead), ``relative_rate.phase_vs_plain >= 0.9`` (phase
    telemetry overhead), ``fast_forward.idle_heavy.speedup >= 3.0`` (idle
    fast-forward must pay off) and ``fast_forward.busy.speedup >= 0.9``
    (and must not tax busy runs). Budget violations are hard failures
    regardless of ``--tolerance``.

``bsched-bench-v1``
    Figure artifact from any bench binary's ``--emit-json``. Rows are
    matched by label and compared field by field; named metrics are
    compared key by key. The simulator is bit-deterministic, so *any*
    relative change beyond the tolerance — in either direction — is
    flagged: a faster IPC you did not expect is as much a model change
    as a slower one. Added/removed rows, metrics and modes are reported
    but never fail the comparison (artifacts legitimately grow).

``bsched-serving-v1``
    Serving artifact from ``fig_serving --emit-json``. Runs are matched
    by (trace, policy) and judged in three classes: integer counters
    (requests, deadlines, misses, preemptions, reorders, total_cycles,
    the drain_* cost counters) must match the baseline *exactly* — the
    serving pipeline is bit-deterministic end to end, so any drift is a
    model change; latency quantiles and throughput are compared
    relatively at the tolerance; bounded [0, 1] quantities
    (deadline_miss_rate, fairness, per-tenant ANTT) are compared by
    *absolute* delta at the tolerance, because relative deltas explode
    as they approach 0.

``bsched-servetrace-v1``
    Decision-audit artifact, ``servetrace.json`` under
    ``fig_serving --artifacts DIR``. Decision counts, drain
    counters, predictor sample counts and the decision-log length must
    match exactly; the predictor's mean absolute error is compared
    relatively.

``bsched-phase-v1``
    Phase-telemetry artifact, ``phase.json`` under a figure binary's
    ``--artifacts DIR``.
    Window counts, detected phase counts and every phase boundary
    (start window) must match the baseline exactly — the telemetry is
    a pure observer of a bit-deterministic run, so a moved boundary is
    a model or detector change; windowed series values and phase means
    are compared relatively at the tolerance.

Exit status: 0 when the artifacts match within tolerance (or
``--warn-only`` was given), 1 when at least one metric regressed or a
budget floor was missed, 2 on usage/schema errors. With ``--github``,
flagged lines are also emitted as ``::warning``/``::error`` workflow
commands so they surface in the GitHub UI; CI's perf-smoke job runs
this script as a hard gate against the committed
``bench/BENCH_simspeed.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Shared GitHub workflow-command formatting with tools/analyze.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from analyze.annotations import emit_annotation  # noqa: E402

KNOWN_SCHEMAS = ("bsched-simspeed-v1", "bsched-bench-v1",
                 "bsched-serving-v1", "bsched-servetrace-v1",
                 "bsched-phase-v1")


def usage_error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_artifact(path: Path) -> dict:
    try:
        artifact = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        usage_error(f"cannot read {path}: {err}")
    schema = artifact.get("schema")
    if schema not in KNOWN_SCHEMAS:
        usage_error(f"{path}: unknown schema {schema!r} "
                    f"(known: {', '.join(KNOWN_SCHEMAS)})")
    return artifact


class Comparison:
    """Accumulates per-metric deltas and the flagged subset."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.lines: list[str] = []
        self.flagged: list[str] = []
        self.notes: list[str] = []

    def compare(self, name: str, base: float, cur: float,
                lower_is_regression_only: bool = False,
                tolerance_scale: float = 1.0) -> None:
        """Diff *cur* against *base* at ``tolerance * tolerance_scale``.

        *tolerance_scale* widens the band for metrics whose honest
        run-to-run spread exceeds the caller's tolerance: wall-clock
        rates on virtualized runners drift tens of percent with host
        load, so judging them at the figure-artifact tolerance (5% in
        CI) would flag noise. Budget floors are unaffected — they gate
        hard at their absolute values.
        """
        if base == cur:
            delta = 0.0
        elif base == 0:
            delta = float("inf") if cur > 0 else float("-inf")
        else:
            delta = cur / base - 1.0
        tolerance = self.tolerance * tolerance_scale
        line = f"{name}: {base:g} -> {cur:g} ({delta:+.2%})"
        regressed = (delta < -tolerance) if lower_is_regression_only \
            else (abs(delta) > tolerance)
        self.lines.append(line)
        if regressed:
            self.flagged.append(line)

    def compare_abs(self, name: str, base: float, cur: float) -> None:
        """Diff *cur* against *base* by absolute delta at the tolerance.

        For quantities bounded in [0, 1] (miss rates, fairness scores)
        a relative delta explodes as the baseline approaches 0; a flat
        absolute band judges them evenly across their whole range.
        """
        delta = cur - base
        line = f"{name}: {base:g} -> {cur:g} ({delta:+g} abs)"
        self.lines.append(line)
        if abs(delta) > self.tolerance:
            self.flagged.append(line)

    def compare_exact(self, name: str, base: float, cur: float) -> None:
        """Flag any difference at all (bit-deterministic counters)."""
        line = f"{name}: {base:g} -> {cur:g} (exact)"
        self.lines.append(line)
        if base != cur:
            self.flagged.append(line)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def budget(self, name: str, floor: float, cur: float | None) -> None:
        """Enforce an absolute machine-independent floor on *cur*."""
        if cur is None:
            self.note(f"budget metric '{name}' absent from current "
                      f"artifact (floor {floor:g} not checked)")
            return
        line = f"{name}: {cur:g} (budget floor {floor:g})"
        self.lines.append(line)
        if cur < floor:
            self.flagged.append(line)


def compare_simspeed(base: dict, cur: dict, cmp: Comparison) -> None:
    # Tolerance widening per metric class. Absolute wall-clock rates
    # are the noisiest (host-speed drift between the baseline's and the
    # fresh artifact's runs does NOT cancel); paired ratios interleave
    # their two sides in time so drift mostly cancels, but a descheduled
    # trial still moves the median a few percent. CI runs --tolerance
    # 0.05, so these judge rates at 20% and ratios at 10% while the
    # budget floors below stay hard.
    RATE_SCALE = 4.0
    RATIO_SCALE = 2.0
    base_modes, cur_modes = base.get("modes", {}), cur.get("modes", {})
    for mode in base_modes:
        if mode not in cur_modes:
            cmp.note(f"mode '{mode}' missing from current artifact")
            continue
        cmp.compare(
            f"modes.{mode}.sim_cycles_per_s",
            base_modes[mode]["sim_cycles_per_s"],
            cur_modes[mode]["sim_cycles_per_s"],
            lower_is_regression_only=True,
            tolerance_scale=RATE_SCALE,
        )
    for mode in cur_modes:
        if mode not in base_modes:
            cmp.note(f"mode '{mode}' only in current artifact")
    # Relative rates are machine-independent observer overheads; report
    # them (lower = more overhead) but judge by the same slowdown rule.
    base_rel = base.get("relative_rate", {})
    cur_rel = cur.get("relative_rate", {})
    for key in base_rel:
        if key in cur_rel:
            cmp.compare(f"relative_rate.{key}", base_rel[key],
                        cur_rel[key], lower_is_regression_only=True,
                        tolerance_scale=RATIO_SCALE)
    # Fast-forward speedups are wall-clock ratios on the same machine,
    # so they diff cleanly across artifacts; only slowdowns matter.
    base_ff = base.get("fast_forward", {})
    cur_ff = cur.get("fast_forward", {})
    for workload in base_ff:
        if workload in cur_ff:
            cmp.compare(f"fast_forward.{workload}.speedup",
                        base_ff[workload]["speedup"],
                        cur_ff[workload]["speedup"],
                        lower_is_regression_only=True,
                        tolerance_scale=RATIO_SCALE)

    # Machine-independent budget floors on the *current* artifact —
    # these hold on any host, so they gate hard regardless of baseline.
    cmp.budget("relative_rate.observed_vs_plain", 0.5,
               cur_rel.get("observed_vs_plain"))
    cmp.budget("relative_rate.profiled_vs_plain", 0.85,
               cur_rel.get("profiled_vs_plain"))
    cmp.budget("relative_rate.servetraced_vs_plain", 0.9,
               cur_rel.get("servetraced_vs_plain"))
    cmp.budget("relative_rate.phase_vs_plain", 0.9,
               cur_rel.get("phase_vs_plain"))
    cmp.budget("fast_forward.idle_heavy.speedup", 3.0,
               cur_ff.get("idle_heavy", {}).get("speedup"))
    cmp.budget("fast_forward.busy.speedup", 0.9,
               cur_ff.get("busy", {}).get("speedup"))
    # Absolute-rate floors from the ISSUE-6 acceptance, anchored to the
    # pre-fast-forward committed baseline (~150k sim-cycles/s): >=3x on
    # the idle-heavy microkernel and >=1.3x on the always-resident
    # micro kernel. Machine-dependent, but the measured margins (>20x
    # and >1.6x respectively) absorb host-speed spread.
    cmp.budget("fast_forward.idle_heavy.ff_on.sim_cycles_per_s", 450_000,
               cur_ff.get("idle_heavy", {}).get("ff_on", {})
               .get("sim_cycles_per_s"))
    cmp.budget("modes.plain.sim_cycles_per_s", 195_000,
               cur.get("modes", {}).get("plain", {})
               .get("sim_cycles_per_s"))


def compare_bench(base: dict, cur: dict, cmp: Comparison) -> None:
    base_rows = {row["label"]: row for row in base.get("rows", [])}
    cur_rows = {row["label"]: row for row in cur.get("rows", [])}
    for label, brow in base_rows.items():
        crow = cur_rows.get(label)
        if crow is None:
            cmp.note(f"row '{label}' missing from current artifact")
            continue
        for field, bval in brow.items():
            if field == "label" or not isinstance(bval, (int, float)):
                continue
            if field in crow:
                cmp.compare(f"rows[{label}].{field}", bval, crow[field])
    for label in cur_rows:
        if label not in base_rows:
            cmp.note(f"row '{label}' only in current artifact")

    base_metrics = base.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    for key, bval in base_metrics.items():
        if key not in cur_metrics:
            cmp.note(f"metric '{key}' missing from current artifact")
        elif isinstance(bval, (int, float)):
            cmp.compare(f"metrics.{key}", bval, cur_metrics[key])
    for key in cur_metrics:
        if key not in base_metrics:
            cmp.note(f"metric '{key}' only in current artifact")


def compare_serving(base: dict, cur: dict, cmp: Comparison) -> None:
    EXACT_FIELDS = ("requests", "deadlines", "misses", "preemptions",
                    "reorders", "total_cycles", "drain_requests",
                    "drain_cancels", "drains_completed",
                    "drain_latency_cycles")
    RELATIVE_FIELDS = ("throughput_per_mcycle", "p50_latency",
                       "p99_latency", "mean_latency")
    ABSOLUTE_FIELDS = ("deadline_miss_rate", "fairness")

    def run_key(run: dict) -> str:
        return f"{run.get('trace')}/{run.get('policy')}"

    base_runs = {run_key(r): r for r in base.get("runs", [])}
    cur_runs = {run_key(r): r for r in cur.get("runs", [])}
    for key, brun in base_runs.items():
        crun = cur_runs.get(key)
        if crun is None:
            cmp.note(f"run '{key}' missing from current artifact")
            continue
        for field in EXACT_FIELDS:
            if field in brun and field in crun:
                cmp.compare_exact(f"runs[{key}].{field}", brun[field],
                                  crun[field])
        for field in RELATIVE_FIELDS:
            if field in brun and field in crun:
                cmp.compare(f"runs[{key}].{field}", brun[field],
                            crun[field])
        for field in ABSOLUTE_FIELDS:
            if field in brun and field in crun:
                cmp.compare_abs(f"runs[{key}].{field}", brun[field],
                                crun[field])
        base_antt = brun.get("tenant_antt", [])
        cur_antt = crun.get("tenant_antt", [])
        if len(base_antt) != len(cur_antt):
            cmp.note(f"runs[{key}].tenant_antt changed arity "
                     f"({len(base_antt)} -> {len(cur_antt)})")
        else:
            # ANTT is a slowdown factor >= 1, so a relative band fits.
            for t, (bval, cval) in enumerate(zip(base_antt, cur_antt)):
                cmp.compare(f"runs[{key}].tenant_antt[{t}]", bval, cval)
    for key in cur_runs:
        if key not in base_runs:
            cmp.note(f"run '{key}' only in current artifact")

    base_metrics = dict(base.get("metrics", {}))
    cur_metrics = dict(cur.get("metrics", {}))
    for key, bval in base_metrics.items():
        if key not in cur_metrics:
            cmp.note(f"metric '{key}' missing from current artifact")
        elif key.endswith("miss_rate_delta_preempt"):
            cmp.compare_abs(f"metrics.{key}", bval, cur_metrics[key])
        else:
            cmp.compare(f"metrics.{key}", bval, cur_metrics[key])
    for key in cur_metrics:
        if key not in base_metrics:
            cmp.note(f"metric '{key}' only in current artifact")


def compare_servetrace(base: dict, cur: dict, cmp: Comparison) -> None:
    """Judge two ``bsched-servetrace-v1`` decision-audit artifacts.

    The audit is pure observation of a bit-deterministic pipeline, so
    every decision count, drain counter and predictor sample count must
    match the baseline exactly; only the predictor's mean absolute
    error is judged relatively (it shifts legitimately when predictor
    tuning changes, and the decision counts catch any behavioral
    drift). Individual decisions are not diffed here — the CI
    byte-gate (cmp against the committed baseline) already pins them.
    """

    def run_key(run: dict) -> str:
        return f"{run.get('trace')}/{run.get('policy')}"

    base_runs = {run_key(r): r for r in base.get("runs", [])}
    cur_runs = {run_key(r): r for r in cur.get("runs", [])}
    for key, brun in base_runs.items():
        crun = cur_runs.get(key)
        if crun is None:
            cmp.note(f"run '{key}' missing from current artifact")
            continue
        for field in ("requests", "total_cycles"):
            if field in brun and field in crun:
                cmp.compare_exact(f"runs[{key}].{field}", brun[field],
                                  crun[field])
        for group in ("counts", "drain"):
            bgrp, cgrp = brun.get(group, {}), crun.get(group, {})
            for field, bval in bgrp.items():
                if field in cgrp:
                    cmp.compare_exact(f"runs[{key}].{group}.{field}",
                                      bval, cgrp[field])
        bpred, cpred = brun.get("predictor", {}), crun.get("predictor", {})
        for field in ("samples", "over", "under", "exact"):
            if field in bpred and field in cpred:
                cmp.compare_exact(f"runs[{key}].predictor.{field}",
                                  bpred[field], cpred[field])
        if "mean_abs_error" in bpred and "mean_abs_error" in cpred:
            cmp.compare(f"runs[{key}].predictor.mean_abs_error",
                        bpred["mean_abs_error"], cpred["mean_abs_error"])
        blen = len(brun.get("decisions", []))
        clen = len(crun.get("decisions", []))
        cmp.compare_exact(f"runs[{key}].len(decisions)", blen, clen)
    for key in cur_runs:
        if key not in base_runs:
            cmp.note(f"run '{key}' only in current artifact")


def compare_phase(base: dict, cur: dict, cmp: Comparison) -> None:
    """Judge two ``bsched-phase-v1`` phase-telemetry artifacts.

    The telemetry is pure observation of a bit-deterministic run, so
    structure must match exactly: window count, per-scope phase counts
    and every phase boundary. Series values and phase means are judged
    relatively — they shift legitimately when the timing model changes,
    and the boundary checks catch detector drift. The phase_gate ctest
    (byte compare against the committed baseline) already pins exact
    values.
    """
    for field in ("window_cycles", "hysteresis"):
        bval = base.get("config", {}).get(field)
        cval = cur.get("config", {}).get(field)
        if bval is not None and cval is not None:
            cmp.compare_exact(f"config.{field}", bval, cval)
    cmp.compare_exact("windows", base.get("windows", 0),
                      cur.get("windows", 0))

    base_series = base.get("series", {})
    cur_series = cur.get("series", {})
    for name, bvals in base_series.items():
        cvals = cur_series.get(name)
        if cvals is None:
            cmp.note(f"series '{name}' missing from current artifact")
            continue
        if len(bvals) != len(cvals):
            cmp.note(f"series '{name}' changed arity "
                     f"({len(bvals)} -> {len(cvals)})")
            continue
        for w, (bval, cval) in enumerate(zip(bvals, cvals)):
            cmp.compare(f"series.{name}[{w}]", bval, cval)
    for name in cur_series:
        if name not in base_series:
            cmp.note(f"series '{name}' only in current artifact")

    def compare_scope(key: str, bscope: dict, cscope: dict) -> None:
        cmp.compare_exact(f"{key}.phase_count",
                          bscope.get("phase_count", 0),
                          cscope.get("phase_count", 0))
        bphases = bscope.get("phases", [])
        cphases = cscope.get("phases", [])
        for p, (bph, cph) in enumerate(zip(bphases, cphases)):
            cmp.compare_exact(f"{key}.phases[{p}].start_window",
                              bph.get("start_window", 0),
                              cph.get("start_window", 0))
            cmean = cph.get("mean", {})
            for channel, bval in bph.get("mean", {}).items():
                if channel in cmean:
                    cmp.compare(f"{key}.phases[{p}].mean.{channel}",
                                bval, cmean[channel])

    compare_scope("machine", base.get("machine", {}),
                  cur.get("machine", {}))
    for bscope, cscope in zip(base.get("cores", []), cur.get("cores", [])):
        compare_scope(f"cores[{bscope.get('core')}]", bscope, cscope)
    for bscope, cscope in zip(base.get("kernels", []),
                              cur.get("kernels", [])):
        compare_scope(f"kernels[{bscope.get('kernel')}]", bscope, cscope)
    if len(base.get("cores", [])) != len(cur.get("cores", [])):
        cmp.note(f"core-scope arity changed ({len(base.get('cores', []))}"
                 f" -> {len(cur.get('cores', []))})")
    if len(base.get("kernels", [])) != len(cur.get("kernels", [])):
        cmp.note(f"kernel-scope arity changed "
                 f"({len(base.get('kernels', []))}"
                 f" -> {len(cur.get('kernels', []))})")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="diff two bsched benchmark artifacts, flag regressions"
    )
    parser.add_argument("baseline", type=Path,
                        help="baseline artifact (e.g. the committed one)")
    parser.add_argument("current", type=Path,
                        help="current artifact to judge")
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="relative delta beyond which a metric is flagged "
             "(default: 0.20)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--github", action="store_true",
        help="emit ::warning/::error workflow commands for flagged lines",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only flagged metrics and notes, not every delta",
    )
    args = parser.parse_args()

    base = load_artifact(args.baseline)
    cur = load_artifact(args.current)
    if base["schema"] != cur["schema"]:
        usage_error(f"schema mismatch: {args.baseline} is "
                    f"{base['schema']}, {args.current} is {cur['schema']}")

    cmp = Comparison(args.tolerance)
    if base["schema"] == "bsched-simspeed-v1":
        compare_simspeed(base, cur, cmp)
    elif base["schema"] == "bsched-serving-v1":
        compare_serving(base, cur, cmp)
    elif base["schema"] == "bsched-servetrace-v1":
        compare_servetrace(base, cur, cmp)
    elif base["schema"] == "bsched-phase-v1":
        compare_phase(base, cur, cmp)
    else:
        compare_bench(base, cur, cmp)

    if not args.quiet:
        for line in cmp.lines:
            marker = "  ! " if line in cmp.flagged else "    "
            print(f"{marker}{line}")
    for note in cmp.notes:
        print(f"  ~ {note}")

    if cmp.flagged:
        severity = "warning" if args.warn_only else "error"
        print(f"bench compare: {len(cmp.flagged)} metric(s) beyond "
              f"{args.tolerance:.0%} tolerance or under budget "
              f"({len(cmp.lines)} compared):")
        for line in cmp.flagged:
            print(f"  ! {line}")
            if args.github:
                emit_annotation(severity, "bench regression", line)
        return 0 if args.warn_only else 1

    print(f"bench compare: OK — {len(cmp.lines)} metric(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
