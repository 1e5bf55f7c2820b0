#!/usr/bin/env python3
"""Run one benchmark workload of the motivic engine and print its metrics.

    python3 perfbench/run.py --workload star-fold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from ``src``.
With ``--trace 0`` the run is untraced and prints the end-to-end metrics; with
``--trace 1`` it wraps the engine's public entry points and prints the
per-layer metrics (see ``tracing.py``).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every workload is a closed loop with one caller that waits for each result.
The run repeats passes over the workload's fixed operation list until
``--seconds`` have gone by and at least ``MIN_OPS`` operations ran; only
whole passes run, so every run has the same mix.

Times are scaled to a steady host speed: every timed operation and every
set-up is bracketed by runs of a fixed reference kernel, and reported as its
wall time times ``REFERENCE_S`` over the kernel's time around it (see
``speed.py``).  ``ops_per_s`` is operations over their summed scaled times,
and the latency percentiles are taken over every scaled operation of the run.
The unscaled median latency and the kernel's median time are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from speed import REFERENCE_S, kernel_seconds, steady  # noqa: E402
from workloads import WORKLOADS, CliBatch  # noqa: E402

MIN_OPS = 100        # p90 then has at least ten samples beyond it
SETUP_REPEATS = 5    # setup_s is the median of this many fresh set-ups
GOLDEN = HERE / "golden.json"


# --- statistics ------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: ``ceil(p * n)`` samples lie at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


# --- cli requests ----------------------------------------------------------------------

# Runs each cli request it reads from stdin as its own ``python -m motivic``
# process and answers with the exit code and stdout; at end of input it prints
# the peak resident memory of those processes in KiB.
SPAWNER = """
import json, resource, subprocess, sys
for line in sys.stdin:
    argv, cwd = json.loads(line)
    proc = subprocess.run([sys.executable, "-m", "motivic", *argv], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    print(json.dumps([proc.returncode, proc.stdout]), flush=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)
"""


class Spawner:
    """A small helper process that starts every cli request.

    A child's peak RSS counts the memory of the process it was forked from,
    so requests started straight from this process would all report at least
    the harness's own size.  Started from this helper, whose own size is
    small and fixed, their peak is the requests' own.  A request's latency
    runs from asking the helper to its exit code and output coming back: the
    process's spawn to exit plus one pipe round trip.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def request(self, argv: list[str], workdir: Path) -> tuple[int, str]:
        self.proc.stdin.write(json.dumps([argv, str(workdir)]) + "\n")
        self.proc.stdin.flush()
        code, stdout = json.loads(self.proc.stdout.readline())
        return code, stdout

    def close(self) -> float:
        """Stop the helper; returns the requests' peak RSS in MiB."""
        self.proc.stdin.close()
        peak_kib = int(self.proc.stdout.readline())
        self.proc.wait()
        return peak_kib / 1024


def child_env(src: Path) -> dict:
    """This process's environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


# --- set-up ----------------------------------------------------------------------------

def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_import():
    """Import the engine from scratch, so set-up pays for import and cold caches."""
    for name in [n for n in sys.modules if n == "motivic" or n.startswith("motivic.")]:
        del sys.modules[name]
    m = importlib.import_module("motivic")
    importlib.import_module("motivic.cli")
    return m


class Run:
    """One workload at one seed: set-up, the timed loop and the checks."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.spec = self.workload.spec(seed)
        self.is_cli = isinstance(self.workload, CliBatch)
        self.workdir = OUT / f"{name}-{seed}"
        self.env = child_env(SRC)

    def set_up(self, in_process: bool = False) -> float:
        """Import, build inputs through the library and warm up; returns seconds."""
        start = time.perf_counter()
        self.m = m = fresh_import()
        if self.is_cli:
            self.sizes = self.workload.write_files(m, self.spec, self.workdir)
        self.built = self.workload.build(m, self.spec["ops"])
        warm = self.workload.build(m, self.spec["warmup"])
        for fn, args in self.bind(m, warm, in_process):
            fn(*args)
        return time.perf_counter() - start

    def bind(self, m, built: list, in_process: bool) -> list:
        """``(fn, args)`` per operation; cli requests spawn a process or replay in process."""
        if not self.is_cli:
            return self.workload.bind(m, built)
        if in_process:
            return [(self.replay, (argv,)) for _, (argv, _, _) in built]
        return [(self.spawner.request, (argv, self.workdir)) for _, (argv, _, _) in built]

    def replay(self, argv: list[str]) -> tuple[int, str]:
        """Run one cli request through ``motivic.cli.run`` in this process."""
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf):
                code = self.m.cli.run(list(argv))
        finally:
            os.chdir(cwd)
        return code, buf.getvalue()

    # --- the loop and the checks ------------------------------------------------------

    def one_pass(self, calls: list) -> tuple[list, list[int]]:
        """Outputs (an exception for a raised operation) and latencies in ns."""
        timed = [_timed_call(fn, args) for fn, args in calls]
        return [out for out, _ in timed], [ns for _, ns in timed]

    def timed_pass(self, calls: list) -> tuple[list, list[int], list[float]]:
        """``one_pass`` plus, per operation, the reference kernel's seconds around
        it: the mean of the kernel runs just before and just after it."""
        outs, lat, kern = [], [], []
        before = kernel_seconds()
        for fn, args in calls:
            out, ns = _timed_call(fn, args)
            after = kernel_seconds()
            outs.append(out)
            lat.append(ns)
            kern.append((before + after) / 2)
            before = after
        return outs, lat, kern

    def verdicts(self, outs: list) -> list[bool]:
        """The law check of every operation, on the outputs of one pass."""
        m, w = self.m, self.workload
        result = []
        for op, out in zip(self.built, outs):
            if isinstance(out, Exception):
                result.append(False)
            elif self.is_cli:
                expected = w.expected(m, op, self.workdir) if op[1][1] == "ok" else None
                result.append(w.check(m, op, out, expected))
            else:
                result.append(w.check(m, op, out))
        return result

    def digest(self, outs: list) -> str:
        """sha256 over the canonical text of every output, defect requests left out."""
        h = hashlib.sha256()
        for i, (op, out) in enumerate(zip(self.built, outs)):
            if self.is_defect(i):
                continue
            text = repr(out) if isinstance(out, Exception) else self.workload.canonical(self.m, op, out)
            h.update(text.encode())
            h.update(b"\n")
        return h.hexdigest()

    def digest_status(self, digest: str) -> str:
        recorded = json.loads(GOLDEN.read_text()).get(self.name, {}).get(str(self.seed))
        if recorded is None:
            return "not recorded"
        return "match" if recorded == digest else "MISMATCH"

    def is_defect(self, i: int) -> bool:
        return self.is_cli and self.built[i][1][1] == "defect"

    # --- untraced run -------------------------------------------------------------------

    def untraced(self, seconds: float) -> dict:
        if not self.is_cli:
            return self._untraced(seconds, own_peak_rss_mb)
        self.spawner = Spawner(self.env)
        try:
            return self._untraced(seconds, self.spawner.close)
        finally:
            if self.spawner.proc.poll() is None:
                self.spawner.proc.kill()
                self.spawner.proc.wait()

    def steady_set_up(self) -> float:
        """One set-up's seconds, scaled by the reference kernel run around it."""
        before = kernel_seconds()
        seconds = self.set_up()
        return steady(seconds, (before + kernel_seconds()) / 2)

    def _untraced(self, seconds: float, peak_rss_mb) -> dict:
        setups = [self.steady_set_up() for _ in range(SETUP_REPEATS)]
        calls = self.bind(self.m, self.built, in_process=False)
        n = len(calls)
        start = time.perf_counter()
        first, lat, kern = self.timed_pass(calls)
        mismatches = [0] * n
        passes = 1
        while time.perf_counter() - start < seconds or len(lat) < MIN_OPS:
            outs, pass_lat, pass_kern = self.timed_pass(calls)
            lat += pass_lat
            kern += pass_kern
            passes += 1
            for i, out in enumerate(outs):
                if not _same(out, first[i]):
                    mismatches[i] += 1
        ok = self.verdicts(first)
        failed_per_op = [passes if not ok[i] else mismatches[i] for i in range(n)]
        failed = sum(failed_per_op)
        unexpected = sum(f for i, f in enumerate(failed_per_op) if not self.is_defect(i))
        digest = self.digest(first)
        status = self.digest_status(digest)
        ms = [steady(t / 1e6, k) for t, k in zip(lat, kern)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
            "latency_p50_ms": (percentile(ms, 0.5), "ms"),
            "latency_p90_ms": (percentile(ms, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print(f"workload {self.name}  seed {self.seed}  passes {passes} x {n} ops  "
              f"digest {digest[:16]} ({status})")
        print(f"  reference kernel median {statistics.median(kern) * 1e3:.4f} ms, "
              f"times below scaled to {REFERENCE_S * 1e3:.4f} ms (speed.py); "
              f"unscaled latency p50 {percentile(lat, 0.5) / 1e6:.4f} ms")
        for key, (value, unit) in metrics.items():
            extra = f"  (n={len(ms)})" if key.startswith("latency") else ""
            extra = f"  (median of {len(setups)})" if key == "setup_s" else extra
            print(f"  {key:<16} {value:12.4f} {unit}{extra}")
        print(f"  {'failed_ratio':<16} {failed / len(lat):12.4f} ratio  "
              f"(failed {failed} / attempted {len(lat)})")
        return {"correct": unexpected == 0 and status != "MISMATCH",
                "attempted": len(lat), "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    # --- traced run ---------------------------------------------------------------------

    def traced(self) -> dict:
        from tracing import Tracer, process_costs
        self.set_up(in_process=True)
        m = self.m
        calls = self.bind(m, self.built, in_process=True)
        t0 = time.perf_counter()
        plain, _ = self.one_pass(calls)
        untraced_s = time.perf_counter() - t0

        tracer = Tracer(m)
        tracer.install()
        try:
            calls = self.bind(m, self.built, in_process=True)
            if self.is_cli:
                calls = [(self._counted_replay(tracer), args) for _, args in calls]
            t0 = time.perf_counter()
            traced_outs = []
            for i, (fn, args) in enumerate(calls):
                tracer.op_id = i
                traced_outs.append(self.one_pass([(fn, args)])[0][0])
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()

        ok = self.verdicts(plain)
        failed = [not ok[i] or not _same(traced_outs[i], plain[i]) for i in range(len(plain))]
        unexpected = sum(f for i, f in enumerate(failed) if not self.is_defect(i))
        metrics = tracer.layer_metrics()
        metrics.update(process_costs(self.env))
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        path = tracer.write(OUT / f"spans-{self.name}-{self.seed}.tsv")
        print(f"workload {self.name}  seed {self.seed}  traced pass of {len(plain)} ops  "
              f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<28} {value:14.6g} {unit}")
        return {"correct": unexpected == 0, "attempted": len(plain), "failed": sum(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def _counted_replay(self, tracer):
        def replay(argv):
            tracer.counts["jsonio.bytes_in"] += sum(self.sizes.get(a, 0) for a in argv)
            code, stdout = self.replay(argv)
            tracer.counts["jsonio.bytes_out"] += len(stdout.encode())
            return code, stdout
        return replay


def _timed_call(fn, args) -> tuple[object, int]:
    """The output (an exception for a raised operation) and the call's ns."""
    t0 = time.perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # a raised operation is a failed one, not the end of the run
        out = exc
    return out, time.perf_counter_ns() - t0


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motivic" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    result = run.traced() if args.trace else run.untraced(args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
