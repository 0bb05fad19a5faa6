"""Self-test of the benchmark itself, at tiny sizes.

    python3 bench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, that a
corrupted output makes its check fail, and that two seeds give different
inputs but the same metric names.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import run

run.import_program()

import workloads  # noqa: E402  (needs the program on sys.path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed=1, trace=False):
    return run.run(name, seed, 0.01, trace, scale="tiny")[0]


class Metrics(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = tiny(name, trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_one_seed_gives_the_same_counts(self):
        a, b = tiny("rate-queries", 3), tiny("rate-queries", 3)
        self.assertEqual((a["attempted"], a["failed"]), (b["attempted"], b["failed"]))

    def test_seeds_change_inputs_not_metric_names(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a, b = cls(1, "tiny"), cls(2, "tiny")
                self.assertNotEqual([op.argv for op in a.ops],
                                    [op.argv for op in b.ops])
                self.assertEqual([op.argv for op in a.ops],
                                 [op.argv for op in cls(1, "tiny").ops])
        self.assertEqual(tiny("exact-tails", 1)["metrics"].keys(),
                         tiny("exact-tails", 2)["metrics"].keys())


class Checks(unittest.TestCase):
    def run_pass(self, cls):
        w = cls(1, "tiny")
        w.warm_up()
        w.prepare()
        return w, [workloads.run_op(op) for op in w.ops]

    def test_clean_pass_has_no_unexpected_failure(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                w, results = self.run_pass(cls)
                verdicts, _ = w.check(results)
                self.assertEqual([v for v in verdicts if v and not v.defect], [])

    def test_tail_perturbed_by_1e9_fails(self):
        w, results = self.run_pass(workloads.ExactTails)
        i = next(i for i, r in enumerate(results)
                 if r.op.info["mode"] == "renewal")
        lines = results[i].out.splitlines()
        row = next(j for j, line in enumerate(lines) if line.startswith("3,"))
        k, tail, *rest = lines[row].split(",")
        lines[row] = ",".join([k, repr(float(tail) + 1e-9), *rest])
        results[i].out = "\n".join(lines) + "\n"
        verdicts, _ = w.check(results)
        self.assertIsNotNone(verdicts[i])
        self.assertIsNone(verdicts[i].defect)

    def test_negative_rate_outside_the_floor_fails(self):
        w, results = self.run_pass(workloads.RateQueries)
        i = next(i for i, r in enumerate(results) if "x_rec" in r.op.info)
        out = json.loads(results[i].out)
        out["ldp_rate"], out["lambda"] = -1.0, -1.0
        results[i].out = json.dumps(out)
        verdicts, _ = w.check(results)
        self.assertIsNotNone(verdicts[i])
        self.assertIsNone(verdicts[i].defect)

    def test_mc_estimate_moved_off_the_dp_tail_fails(self):
        w, results = self.run_pass(workloads.MonteCarlo)
        lines = results[1].out.splitlines()
        row = next(j for j, line in enumerate(lines) if line.startswith("2,"))
        k, est, lo, hi = lines[row].split(",")
        lines[row] = ",".join([k, repr(float(est) + 0.5), lo, hi])
        results[1].out = "\n".join(lines) + "\n"
        verdicts, _ = w.check(results)
        self.assertIsNotNone(verdicts[1])


if __name__ == "__main__":
    sys.exit(unittest.main())
