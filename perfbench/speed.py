"""A fixed reference kernel that makes timings on a shared host comparable.

The machine this benchmark was tuned on (a 2-vCPU VM on a shared Intel Xeon
host) moves, over seconds to minutes, between a fast state and states in
which the same Python code runs up to 2.3 times slower.  CPU time grows with
wall time, so the work is slowed down, not descheduled.  A run of 25 seconds
can fall entirely inside a slow stretch, so with any statistic of one run's
wall times (median pass rate, per-operation minimum) the quartiles of ten
runs of the same code lay 13-45% of the median apart there.

The slowdown hits all interpreter work, if not all of it equally, so the
runner brackets every timed operation with a run of ``kernel``: fixed
pure-Python work made of what the engine spends its time in (tuples from
``itertools.product``, calls through small closures, hashing and adding
small immutable objects, dicts, sorting).  The kernel never changes, so its
time tracks only the host.  An operation that took ``t`` while the kernel
took ``k`` seconds around it is reported as ``steady(t, k) = t * REFERENCE_S
/ k``: its time on the host in a state in which the kernel takes
``REFERENCE_S``.  On the machine above this brought the distance between
the quartiles of ten runs down to 1-11% of the median.  Engine changes move
the reported times as they move wall times; only the host's state is
divided out.

``REFERENCE_S`` is a fixed scale, close to the kernel's median time on the
machine above (``python3 perfbench/speed.py`` measures it; medians of 3000
runs ranged from 0.53 to 0.97 ms there).  It must not change once results
have been recorded against it.
"""

from __future__ import annotations

import itertools
import statistics
import time

# Fixed scale: about the kernel's median time on a 2-vCPU Intel Xeon VM, CPython 3.11.
REFERENCE_S = 0.00085


class _Atom:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __add__(self, other: "_Atom") -> "_Atom":
        return _Atom(self.a + other.a, self.b ^ other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b


def kernel() -> int:
    add = lambda x, y: (x + y) % 13  # noqa: E731
    count = 0
    for combo in itertools.product(range(9), repeat=3):
        total = combo[0]
        for y in combo[1:]:
            total = add(total, y)
        count += total == 1
    seen: dict[_Atom, int] = {}
    x = _Atom(0, 0)
    for i in range(300):
        x = x + _Atom(i % 7, i)
        seen[x] = seen.get(x, 0) + 1
    return count + len(sorted(seen.values()))


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def steady(elapsed: float, kernel: float) -> float:
    """``elapsed`` (any unit) on a host where the kernel takes ``REFERENCE_S``,
    given that it took ``kernel`` seconds around it."""
    return elapsed * REFERENCE_S / kernel


def calibrate(runs: int = 3000) -> float:
    """The kernel's median time over ``runs`` runs: how ``REFERENCE_S`` was set."""
    return statistics.median(kernel_seconds() for _ in range(runs))


if __name__ == "__main__":
    print(f"kernel: median of 3000 runs {calibrate() * 1e3:.4f} ms "
          f"(REFERENCE_S = {REFERENCE_S * 1e3:.4f} ms)")
