from __future__ import annotations

import gc
import marshal
import math
import random
import sys
import threading
import time
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from motivic import LaurentInt, MuClass, SNCDatum, Stratum, convolve
from motivic.laurent import L_MINUS_1

settings.register_profile(
    "engine", max_examples=60, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("engine")


# --- hypothesis strategies ----------------------------------------------------

def laurents(min_terms: int = 0, max_terms: int = 3) -> st.SearchStrategy[LaurentInt]:
    entry = st.tuples(st.integers(-2, 3), st.integers(-6, 6))
    return st.lists(entry, min_size=min_terms, max_size=max_terms).map(LaurentInt)


_factors = st.one_of(
    st.integers(2, 6).map(lambda d: ("orb", d)),
    st.tuples(st.integers(2, 4), st.integers(2, 3)).map(lambda t: ("FER", *t)),
    st.tuples(st.integers(2, 4), st.integers(1, 3)).map(lambda t: ("fer", *t)),
    st.integers(1, 4).map(lambda d: ("gm", d)),
    st.just(("orb", 1)),
    st.just(("FER", 2, 2)),
    st.tuples(st.sampled_from(["blob", "husk"]), st.integers(-3, 3)).map(
        lambda t: ("opq", *t)),
)

_trivial_factors = st.tuples(st.integers(3, 4), st.integers(2, 3)).map(lambda t: ("fer", *t))


def raw_terms(factors=_factors, max_terms: int = 3):
    term = st.tuples(laurents(max_terms=2), st.lists(factors, max_size=2))
    return st.lists(term, max_size=max_terms)


def mu_classes(max_terms: int = 3) -> st.SearchStrategy[MuClass]:
    return raw_terms(max_terms=max_terms).map(MuClass)


def trivial_classes(max_terms: int = 2) -> st.SearchStrategy[MuClass]:
    return raw_terms(factors=_trivial_factors, max_terms=max_terms).map(MuClass)


# --- shared example data --------------------------------------------------------

ONE = MuClass.one()
L = MuClass.lefschetz()
GM = MuClass.from_coeff(L_MINUS_1)


def orb(d: int) -> MuClass:
    """The class of an orbit of d points; not the factor constructor classes.orb."""
    return MuClass.orbit(d)


def power_datum(n: int) -> SNCDatum:
    """One exceptional component of multiplicity n over a point fiber."""
    cover = MuClass.one() if n == 1 else MuClass.orbit(n)
    return SNCDatum(
        components=[("E1", n)],
        strata=[Stratum({"E1"}, MuClass.one(), cover, "singular")],
        fiber_regular=MuClass.zero(),
        fiber_singular=MuClass.one())


def cross_datum() -> SNCDatum:
    """Two multiplicity-one components crossing over the coordinate-cross fiber."""
    gm = MuClass.torus()
    return SNCDatum(
        components=[("E1", 1), ("E2", 1)],
        strata=[Stratum({"E1"}, gm, gm, "regular"),
                Stratum({"E2"}, gm, gm, "regular"),
                Stratum({"E1", "E2"}, MuClass.one(), MuClass.one(), "singular")],
        fiber_regular=gm + gm,
        fiber_singular=MuClass.one())


def blowup_datum(n: int) -> SNCDatum:
    """x^n + y^n blown up once at 0, a resolution the engine does not derive.

    The exceptional curve E = P^1 has multiplicity n; away from the n strict
    transforms D_j of the lines of {x^n + y^n = 0} it is L + 1 - n, and its
    n-fold cover is the curve {x^n + y^n = 1} in A^2: FER(n,2) on the torus
    and two orbits of n points on the axes.  Each D_j meets E in one point.
    """
    one, line = MuClass.one(), MuClass.torus()  # D_j minus its point on E is L - 1
    lines = [f"D{j}" for j in range(1, n + 1)]
    return SNCDatum(
        components=[("E", n)] + [(d, 1) for d in lines],
        strata=[Stratum({"E"}, MuClass.lefschetz() + (1 - n) * one,
                        MuClass.fermat(n, 2) + 2 * MuClass.orbit(n), "singular")]
               + [Stratum({d}, line, line, "regular") for d in lines]
               + [Stratum({"E", d}, one, one, "singular") for d in lines],
        fiber_regular=n * line,
        fiber_singular=one)


class PlainMapping(Mapping):
    """A Mapping that is no dict: it has only the methods Mapping asks for."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class CallLimitExceeded(BaseException):
    """Raised into f by python_calls at its first call past the limit.  Not an
    Exception, so no handler in the engine or the CLI turns it into a result."""


def python_calls(f, limit: float = math.inf) -> tuple:
    """f() and the number of Python function calls it made: a measure of work
    that, unlike wall time, does not depend on the load of the host.  f is
    stopped once it passes limit calls, so a loop that runs away fails at once."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1
            if count > limit:
                raise CallLimitExceeded(f"more than {limit} Python calls")

    collecting = gc.isenabled()
    gc.disable()  # a collection runs the Python functions in gc.callbacks, counted too
    sys.setprofile(profile)
    try:
        result = f()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, count


class YieldingTable(convolve._Rules):
    """A rules table whose clear lets other threads run, as a thread switch there may."""

    __slots__ = ()

    def clear(self):
        super().clear()
        time.sleep(1e-4)


def _size_of(item) -> int:
    """The bytes a kept ((a, b), rule) counts: its atoms and rule marshalled together."""
    (a, b), rule = item
    return len(marshal.dumps((a, b, rule), 2))


def _held_size() -> int:
    """The size of the kernel's table, counted from it: the marshalled bytes of
    each rule with its two key atoms."""
    return sum(_size_of(((a, b), rule))
               for a, row in convolve._rules.items() for b, rule in row.items())


_O2, _O3, _O4, _O5 = ((("orb", d),) for d in range(2, 6))


def _rule_size(a, b) -> int:
    """The bytes the rule of (a, b) counts; the table is left empty."""
    convolve._rules.clear()
    rule = convolve._pair(a, b)
    convolve._rules.clear()
    return _size_of(((a, b), rule))


def run_in_threads(work, count: int = 4) -> None:
    """work(k) in count threads at once, switching between them often, inside
    the engine's table updates too; every thread must end within a minute."""
    threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


@pytest.fixture(autouse=True)
def cold_tables() -> None:
    """Each test starts on an empty convolution table (convolve._rules), so a
    test that passes only on a table warmed by the tests run before it fails in
    every run.  A datum keeps its phi on itself, and the builders below make new
    data at each call, so no test finds a phi another test computed."""
    convolve._rules.clear()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20250808)
