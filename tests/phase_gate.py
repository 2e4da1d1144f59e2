#!/usr/bin/env python3
"""Byte gate for the E20 phase artifact (bench/BENCH_phase.json).

Runs ``fig_phase --artifacts`` three times: at ``--jobs 1``, at
``--jobs 4`` and at ``--jobs 4 --no-fast-forward``. Each run's
``phase.json`` must equal the committed baseline byte for byte, the
three ``--emit-json`` reports must equal each other, and the jobs-1 and
jobs-4 artifact directories must hold the same files with the same
bytes.

Usage: phase_gate.py FIG_PHASE BASELINE OUT_DIR

OUT_DIR keeps every run's output: ``OUT_DIR/<run>/`` is the artifact
directory and ``OUT_DIR/<run>.json`` the report, for run in jobs1,
jobs4 and jobs4_noff.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

RUNS = {
    "jobs1": ["--jobs", "1"],
    "jobs4": ["--jobs", "4"],
    "jobs4_noff": ["--jobs", "4", "--no-fast-forward"],
}


def run(binary: str, out: pathlib.Path, name: str, flags: list[str]) -> None:
    artifacts = out / name
    shutil.rmtree(artifacts, ignore_errors=True)
    subprocess.run([binary, *flags, "--emit-json", str(out / f"{name}.json"),
                    "--artifacts", str(artifacts)],
                   check=True, stdout=subprocess.DEVNULL)


def same_dirs(a: pathlib.Path, b: pathlib.Path) -> list[str]:
    """Differences between two flat artifact directories, as messages."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"{a} holds {names_a}, {b} holds {names_b}"]
    return [f"{a / n} != {b / n}" for n in names_a
            if (a / n).read_bytes() != (b / n).read_bytes()]


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    binary, baseline, out = argv[1], pathlib.Path(argv[2]), \
        pathlib.Path(argv[3])
    out.mkdir(parents=True, exist_ok=True)
    for name, flags in RUNS.items():
        run(binary, out, name, flags)

    failures = []
    expected = baseline.read_bytes()
    for name in RUNS:
        if (out / name / "phase.json").read_bytes() != expected:
            failures.append(f"{out / name / 'phase.json'} != {baseline}")
    report = (out / "jobs1.json").read_bytes()
    for name in RUNS:
        if (out / f"{name}.json").read_bytes() != report:
            failures.append(f"{out / name}.json != {out / 'jobs1.json'}")
    failures += same_dirs(out / "jobs1", out / "jobs4")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"phase gate: {len(RUNS)} runs match {baseline}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
