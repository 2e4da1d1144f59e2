#!/usr/bin/env python3
"""Byte gate for the serving reports (E18 and E19).

Runs ``fig_serving`` and ``fig_serve_trace`` once each at ``--jobs 4``.
Each ``--emit-json`` report must equal its committed baseline byte for
byte: ``bench/BENCH_serving.json`` and ``bench/BENCH_servetrace.json``.
Both reports are fast-forward- and jobs-invariant; CI's serving jobs
also rerun them at other ``--jobs`` counts and with fast-forward off.

Usage: serving_gate.py FIG_SERVING FIG_SERVE_TRACE BENCH_DIR OUT_DIR

OUT_DIR keeps each run's report as ``OUT_DIR/<baseline file name>``.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    serving, serve_trace = argv[1], argv[2]
    bench, out = pathlib.Path(argv[3]), pathlib.Path(argv[4])
    out.mkdir(parents=True, exist_ok=True)
    gates = {serving: "BENCH_serving.json",
             serve_trace: "BENCH_servetrace.json"}

    failures = []
    for binary, name in gates.items():
        report = out / name
        subprocess.run([binary, "--jobs", "4", "--emit-json", str(report)],
                       check=True, stdout=subprocess.DEVNULL)
        if report.read_bytes() != (bench / name).read_bytes():
            failures.append(f"{report} != {bench / name}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"serving gate: {len(gates)} reports match {bench}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
