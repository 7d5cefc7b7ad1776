"""Consistency test between the benchmark and BENCHMARK.json.

Run from the root of the repository:

    python3 -m unittest perfbench/test_schema.py

It builds the benchmark, asks it for the metrics it prints, and requires
that names, units and better-directions match BENCHMARK.json exactly, in
order, and that every name uses only letters, digits, `_`, `.` and `-`.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def printed_metrics():
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--list-metrics"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


class SchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.printed = printed_metrics()

    def check_kind(self, kind):
        printed = [
            (m["name"], m["unit"], m["better"]) for m in self.printed if m["kind"] == kind
        ]
        declared = [(m["name"], m["unit"], m["better"]) for m in self.declared[kind]]
        self.assertEqual(printed, declared)

    def test_end_to_end_metrics_match(self):
        self.check_kind("end_to_end")

    def test_per_layer_metrics_match(self):
        self.check_kind("per_layer")

    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in self.declared["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            for metric in self.declared[kind]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "every name is used once")

    def test_workloads_are_the_ones_the_benchmark_runs(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        from run import WORKLOADS

        self.assertEqual([w["name"] for w in self.declared["workloads"]], WORKLOADS)

    def test_file_has_exactly_the_declared_keys(self):
        self.assertEqual(
            sorted(self.declared),
            sorted(["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]),
        )
        for metric in self.declared["end_to_end"]:
            self.assertEqual(sorted(metric), ["better", "bound", "name", "unit"])
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in self.declared["per_layer"]:
            self.assertEqual(sorted(metric), ["better", "name", "unit"])


if __name__ == "__main__":
    unittest.main()
