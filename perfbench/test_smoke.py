#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py

For every workload it checks that the end-to-end run and the traced run
each print every metric BENCHMARK.json names, with its unit, plus
`fail_frac`; that a clean run reports no failure; and that one flipped bit
in a result before checking (`--corrupt 1`) makes the run report a
failure. It also checks that `compare.py` refuses results whose host
stamps differ.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tall_skinny", "square_ooc", "service", "cluster"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, corrupt=0, out=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny",
           "--corrupt", str(corrupt)]
    if out:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in names))
        for m in names:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_every_metric_is_emitted_and_clean_runs_pass(self):
        for w in WORKLOADS:
            for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    lines, result = bench(w, trace)
                    self.check_metrics(result, names)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    fail_frac = [l for l in lines if l.split()[:1] == ["fail_frac"]]
                    self.assertEqual(len(fail_frac), 1)
                    self.assertEqual(fail_frac[0].split()[1:3], ["0.000000", "ratio"])
                    for m in names:
                        if not result["metrics"][m["name"]]["value"] and trace == 0:
                            self.fail(f"{w}: end-to-end metric {m['name']} reads 0")
                    if trace:
                        self.assertTrue(any(l.startswith("accounting: ") for l in lines))

    def test_a_flipped_bit_is_counted_as_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines, result = bench(w, 0, corrupt=1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                fail_frac = [l for l in lines if l.split()[:1] == ["fail_frac"]][0]
                self.assertGreater(float(fail_frac.split()[1]), 0.0)

    def test_compare_refuses_different_stamps(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            bench("tall_skinny", 0, out=a)
            with open(a) as f:
                doc = json.load(f)
            compare = [sys.executable, os.path.join(HERE, "compare.py"), "--base", a, "--new"]
            same = subprocess.run(compare + [a], capture_output=True, text=True)
            self.assertEqual(same.returncode, 0, same.stderr)
            doc["stamp"]["simd_arm"] = "scalar"
            with open(b, "w") as f:
                json.dump(doc, f)
            other = subprocess.run(compare + [b], capture_output=True, text=True)
            self.assertEqual(other.returncode, 2)
            self.assertIn("refused", other.stderr)


if __name__ == "__main__":
    unittest.main()
