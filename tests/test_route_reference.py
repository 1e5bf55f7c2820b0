"""Differential tests of forget_action, vanishing_cycles and the tower against
the routes they replaced.

``MuClass.forget_action`` maps normal atoms straight to normal atoms, and
``vanishing_cycles`` builds each locus with one sum over its strata.  The
references below are copies of the earlier routes: forget_action rebuilt raw
terms and sent them back through the validating ``MuClass`` constructor, and
vanishing_cycles subtracted one stratum at a time.  The quadratic tower was a
module-level cache filled one step at a time.  Each pair must agree on every
input.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, strategies as st

from motivic import MuClass, SNCDatum, Stratum, validate_datum, vanishing_cycles
from motivic.classes import _TOWER_START, FER, _tower, fer, opq, orb
from motivic.laurent import EPoly, L_MINUS_1, ONE_MINUS_L, LaurentInt
from motivic.vanishing import LOCUS_TAGS

from conftest import cross_datum, laurents, power_datum, trivial_classes


# --- the reference routes -----------------------------------------------------------

def reference_forget_action(c):
    raw = []
    for a, coeff in c.terms():
        factors = []
        for f in a:
            if f[0] == "orb":
                coeff = coeff * f[1]
            elif f[0] == "FER":
                factors.append(("fer", f[1], f[2]))
            else:
                factors.append(f)
        raw.append((coeff, tuple(factors)))
    return MuClass(raw)


def reference_vanishing_cycles(d):
    assert validate_datum(d) == []
    reg = d.fiber_regular
    sing = d.fiber_singular
    for s in d.strata:
        part = s.cover_class * ONE_MINUS_L ** (len(s.index_set) - 1)
        if s.locus == "regular":
            reg = reg - part
        else:
            sing = sing - part
    return sing, reg


def reference_tower(r_max):
    cache = {1: (None, None, LaurentInt.from_int(2))}
    c0, c1 = L_MINUS_1, LaurentInt.from_int(-2)
    cache[2] = (c0, c1, c0 + 2 * c1)
    for k in range(3, r_max + 1):
        c0, c1, f = cache[k - 1]
        f_prev = cache[k - 2][2]
        d0 = c1 * L_MINUS_1 + L_MINUS_1 * f
        d1 = c0 + 2 * c1 - L_MINUS_1 * f_prev
        cache[k] = (d0, d1, d0 + 2 * d1)
    return cache


# --- generators ----------------------------------------------------------------------

_epoly_data = st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                              st.integers(-3, 3), max_size=4)
_opaques = st.tuples(st.sampled_from(["blob", "husk"]), st.integers(-3, 3),
                     st.none() | _epoly_data).map(lambda t: opq(*t))
_factors = st.one_of(
    st.integers(2, 6).map(orb),
    st.tuples(st.integers(3, 5), st.integers(2, 3)).map(lambda t: FER(*t)),
    st.tuples(st.integers(3, 5), st.integers(1, 3)).map(lambda t: fer(*t)),
    st.integers(2, 6).map(lambda r: FER(2, r)),
    st.integers(2, 6).map(lambda r: fer(2, r)),
    _opaques,
)
_classes = st.lists(st.tuples(laurents(min_terms=1, max_terms=2), st.lists(_factors, max_size=3)),
                    max_size=4).map(MuClass)


@st.composite
def datums(draw):
    """Valid data: 1-3 components, each singleton stratum on a random locus,
    up to two pair strata on the singular one.  A cover is its base times an
    orbit of size m_I, plus a multiple of the chi-zero class ORB(2) - 2."""
    ms = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ids = [f"E{k + 1}" for k in range(len(ms))]
    pairs = [frozenset(p) for p in itertools.combinations(ids, 2)]
    index_sets = [frozenset({i}) for i in ids]
    if pairs:
        index_sets += draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True))
    strata = []
    for index_set in index_sets:
        m_i = math.gcd(*(ms[ids.index(i)] for i in index_set))
        base = draw(trivial_classes())
        cover = base
        if m_i > 1:
            chi_zero = MuClass.orbit(2) - MuClass.from_coeff(2)
            cover = base * MuClass.orbit(m_i) + chi_zero * draw(laurents())
        locus = draw(st.sampled_from(LOCUS_TAGS)) if len(index_set) == 1 else "singular"
        strata.append(Stratum(index_set, base, cover, locus))
    return SNCDatum(list(zip(ids, ms)), strata, draw(trivial_classes()), draw(trivial_classes()))


# --- the tests --------------------------------------------------------------------------

@given(_classes)
def test_forget_action_equals_the_reference_route(c):
    assert c.forget_action() == reference_forget_action(c)


def test_forget_action_equals_the_reference_route_on_every_pool_pair():
    # FER(4,2) * fer(3,2) forgets to fer(4,2) * fer(3,2), which must be sorted again
    pool = [orb(2), orb(3), FER(3, 2), FER(4, 2), FER(2, 3), fer(3, 2), fer(3, 3), fer(2, 4),
            opq("blob", 2, {(0, 0): 1, (1, 1): 2}), opq("husk", -1)]
    for f, g in itertools.combinations_with_replacement(pool, 2):
        c = MuClass([(L_MINUS_1, (f, g)), (2, (f,))])
        assert c.forget_action() == reference_forget_action(c), (f, g)


@given(datums())
def test_vanishing_cycles_equals_the_reference_route(d):
    assert validate_datum(d) == []
    assert vanishing_cycles(d) == reference_vanishing_cycles(d)


def test_vanishing_cycles_equals_the_reference_route_on_shipped_data():
    for d in [cross_datum()] + [power_datum(n) for n in range(1, 8)]:
        assert vanishing_cycles(d) == reference_vanishing_cycles(d)


def test_tower_equals_the_cached_recursion():
    expected = reference_tower(60)
    for r in range(2, 61):
        assert _tower(r, dict(_TOWER_START)) == expected[r]
    shared = dict(_TOWER_START)
    for r in [7, 3, 60, 2, 31]:
        assert _tower(r, shared) == expected[r]


@given(st.text(max_size=3), st.integers(-5, 5), _epoly_data)
def test_opaque_stores_the_epoly_canonical_form(tag, chi, data):
    stored = MuClass.opaque(tag, chi, data).terms()[0][0][0][3]
    assert stored == EPoly(data).items()
