"""Tests of the repository benchmark itself.

Run from the repository root (builds the runner binary on first use):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

SPEC = run.load_spec()


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(1, 100)), 90))
        self.assertEqual(run.tail_percentile(list(range(1, 101)), 90), 90)

    def test_median_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(19)), 50))
        self.assertEqual(run.tail_percentile(list(range(20)), 50), 9)

    def test_empty(self):
        self.assertIsNone(run.tail_percentile([], 50))


class RunnerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def child(self, workload, *extra, trace=False, expected=run.EXPECTED):
        return run.run_child(self.binary, workload, 1, trace=trace,
                             extra=extra, expected=expected)

    def test_perturbed_expectation_raises_error_rate(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.EXPECTED, "paper_sweep.txt"), tmp)
            path = os.path.join(tmp, "paper_sweep.txt")
            with open(path) as f:
                lines = f.readlines()
            i = next(i for i, line in enumerate(lines)
                     if line.startswith("E3/lud/n1 "))
            cycles = lines[i].split()[1]
            lines[i] = lines[i].replace(" %s " % cycles,
                                        " %d " % (int(cycles) + 1), 1)
            with open(path, "w") as f:
                f.writelines(lines)
            report = self.child("paper_sweep", "--kernels", "lud",
                                expected=tmp)
        self.assertEqual(report["failed"], 1)
        self.assertGreater(report["failed"] / report["attempted"], 0)

    def test_fast_forward_off_gives_the_committed_results(self):
        report = self.child("paper_sweep", "--kernels", "lud,lavamd",
                            "--no-fast-forward")
        self.assertGreater(report["attempted"], 40)
        self.assertEqual(report["failed"], 0)

    def test_every_per_layer_metric_is_produced(self):
        produced = set()
        for workload, extra in (("paper_sweep", ["--kernels", "lud,nn"]),
                                ("observed_run", []),
                                ("serve_open", [])):
            plain = self.child(workload, *extra)
            traced = self.child(workload, *extra, trace=True)
            self.assertEqual(plain["failed"] + traced["failed"], 0)
            exact = run.exact_results([plain, traced])
            exact["error_rate"] = 0.0
            layers = run.per_layer([plain], [traced], exact)
            produced |= {k for k, v in layers.items() if v is not None}
        declared = {m["name"] for m in SPEC["per_layer"]}
        # harness.point_s_p90 needs 100 traced points; the full sweep
        # pools them across repetitions.
        self.assertEqual(declared - produced, {"harness.point_s_p90"})


class CommandTest(unittest.TestCase):
    def run_bench(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "observed_run", "--seconds", "0", "--trace", str(trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check_metrics(self, trace, declared):
        text, result = self.run_bench(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertTrue(any(line.split()[:1] == [m["name"]] and
                                m["unit"] in line.split() for line in text),
                            m["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
