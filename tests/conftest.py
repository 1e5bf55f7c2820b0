from __future__ import annotations

import random
import sys

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from motivic import LaurentInt, MuClass, SNCDatum, Stratum

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


def python_calls(f) -> tuple:
    """f() and the number of Python function calls it made: a measure of work
    that, unlike wall time, does not depend on the load of the host."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        result = f()
    finally:
        sys.setprofile(None)
    return result, count


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20250808)
