"""Tests of the benchmark itself.

    python3 -m unittest perfbench/test_perfbench.py

Run from the root of a source checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import PRIMES, WORKLOADS  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first = json.dumps(workload.spec(7), sort_keys=True)
                self.assertEqual(first, json.dumps(workload.spec(7), sort_keys=True))
                self.assertNotEqual(first, json.dumps(workload.spec(8), sort_keys=True))

    def test_cli_files_are_byte_identical_for_a_seed(self):
        m = run.fresh_import()
        workload = WORKLOADS["cli-batch"]
        spec = workload.spec(3)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a"), Path(tmp, "b")
            workload.write_files(m, spec, a)
            workload.write_files(m, workload.spec(3), b)
            for path in a.iterdir():
                self.assertEqual(path.read_bytes(), (b / path.name).read_bytes(), path.name)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            ("cli.run", 0, 100, -1, 0),          # children cover 10..60 and 70..120
            ("jsonio.parse", 10, 40, 0, 0),      # child covers 15..20
            ("classes.init", 15, 20, 1, 0),
            ("convolve.star", 30, 60, 0, 0),     # overlaps its sibling: 10..60 counted once
            ("realize.chi_c", 70, 120, 0, 0),    # runs past its parent: clipped at 100
        ]
        self.assertEqual(self_times(spans), [100 - 50 - 30, 30 - 5, 5, 30, 50])

    def test_layer_self_times_add_up_to_the_traced_time(self):
        m = run.fresh_import()
        a = m.MuClass.orbit(2) + m.MuClass.orbit(3)
        tracer = Tracer(m)
        tracer.install()
        try:
            self.assertIs(m.star, m.convolve.star)
            self.assertIsNot(m.star, m.convolve.star.__wrapped__)
            tracer.op_id = 0
            m.star(m.star(a, a), a)
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(m.star, "__wrapped__"))
        self.assertFalse(hasattr(m.MuClass.__init__, "__wrapped__"))
        self.assertEqual(tracer.layer_metrics()["convolve.star_calls"][0], 2)
        top = [end - start for _, start, end, parent, _ in tracer.spans if parent == -1]
        self.assertEqual(len(top), 2)
        self.assertEqual(sum(self_times(tracer.spans)), sum(top))


class SteadyTimeTest(unittest.TestCase):
    def test_each_operation_is_scaled_by_the_kernel_runs_around_it(self):
        kernel_times = iter([1.0, 3.0, 5.0, 9.0])
        saved = run.kernel_seconds
        run.kernel_seconds = lambda: next(kernel_times)
        try:
            outs, lat, kern = run.Run("oracle-grid", 0).timed_pass(
                [(lambda x: x + 1, (1,)), (lambda: 1 / 0, ()), (str, (7,))])
        finally:
            run.kernel_seconds = saved
        self.assertEqual(outs[0::2], [2, "7"])
        self.assertIsInstance(outs[1], ZeroDivisionError)
        self.assertEqual(len(lat), 3)
        self.assertEqual(kern, [2.0, 4.0, 7.0])

    def test_a_uniform_slowdown_divides_out(self):
        self.assertAlmostEqual(run.steady(2.0, 2 * run.REFERENCE_S), 1.0)
        self.assertAlmostEqual(run.steady(0.5, run.REFERENCE_S), 0.5)


class FailureCountTest(unittest.TestCase):
    def test_an_injected_wrong_result_is_counted(self):
        class Broken(run.Run):
            def bind(self, m, built, in_process):
                calls = super().bind(m, built, in_process)
                i = next(i for i, (_, (n, r, q)) in enumerate(built) if q in PRIMES)
                fn, args = calls[i]
                calls[i] = (lambda *a: fn(*a) + 1, args)
                return calls

        broken = Broken("oracle-grid", 0)
        with contextlib.redirect_stdout(io.StringIO()):
            result = broken.untraced(seconds=0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"] // len(broken.built))
        self.assertGreaterEqual(result["attempted"], run.MIN_OPS)

    def test_known_defects_fail_without_making_the_run_incorrect(self):
        cli = run.Run("cli-batch", 0)
        cli.set_up(in_process=True)
        outs, _ = cli.one_pass(cli.bind(cli.m, cli.built, in_process=True))
        verdicts = cli.verdicts(outs)
        defects = [cli.is_defect(i) for i in range(len(cli.built))]
        self.assertEqual(sum(defects), 2)
        self.assertEqual([not v for v in verdicts], defects)


class ContractTest(unittest.TestCase):
    def test_fails_without_result_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "star-fold", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
