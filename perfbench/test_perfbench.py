"""The benchmark's own tests. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Every workload runs once per mode at the shortest length run.py allows
(three jobs, or as many as its step-sample floor needs).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the module under test)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, seed=1):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for w in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    out = bench(w, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreater(out["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    if kind == "end_to_end":
                        for k, v in out["metrics"].items():
                            self.assertGreater(v["value"], 0, k)


class Reproducibility(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        assert cls.binary is not None, "build failed"

    def job(self, workload, seed):
        out = run.call(self.binary, "job", workload, str(seed), "0")
        self.assertIsNotNone(out)
        self.assertEqual(out["failed"], 0)
        return out

    def test_one_seed_reproduces_its_counts_and_two_seeds_differ_in_inputs(self):
        for w in ("halo32", "coll64"):
            with self.subTest(workload=w):
                a, b, c = self.job(w, 5), self.job(w, 5), self.job(w, 6)
                self.assertEqual(a["inputs_digest"], b["inputs_digest"])
                self.assertNotEqual(a["inputs_digest"], c["inputs_digest"])
                self.assertEqual(a["ops"], b["ops"])
                for k in run.EXACT_COUNTS:
                    self.assertEqual(a["counts"][k], b["counts"][k], k)


class Contract(unittest.TestCase):
    def test_without_the_repository_it_exits_nonzero_without_a_result(self):
        # A checkout holding only BENCHMARK.json and the benchmark: the
        # crates it builds against are missing.
        scratch = os.path.join(HERE, "target")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as root:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
            shutil.copytree(HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "halo32",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
