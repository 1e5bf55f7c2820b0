"""Differential tests of the engine's routes against the routes they replaced.

``MuClass.forget_action`` maps normal atoms straight to normal atoms, and
``vanishing_cycles`` builds each locus with one sum over its strata.  The
references below are copies of the earlier routes: forget_action rebuilt raw
terms and sent them back through the validating ``MuClass`` constructor, and
vanishing_cycles subtracted one stratum at a time.  The quadratic tower was a
module-level cache filled one step at a time by a recursion on the whole
expansion (c0, c1, fer(2,r)); it now follows the closed form of ORB(2)^{*m}.

``star``, ``psi_pair``, ``a1_star`` and ``phi_measure`` sum integer
coefficients into one dict per call and build their result once, and the pair
rules P2-P6 emit normal terms directly.  All three Psi references rest on one
pair rule, ``reference_psi_atoms``, a copy of the route that came before the
direct terms: each pair result went back through the validating ``MuClass``
constructor (rules N1-N5b) and was multiplied with the trivial factors as a
second ``MuClass``.  As in the earlier routes, star went through ``tensor``
and ``psi_pair``, which summed one ``MuClass`` per pair term, and a1_star
summed one ``psi_pair`` per fiber pair.  a1_star of one pair of points now
runs star's loop; its reference is also the atom-major line kernel, called
directly, that serves two or more pairs.  phi_measure measured each generator
through ``phi_generator``, validating its data every time, and merged the
weighted classes over the line, and phi_generator sent its fibers through the
A1Class constructor.  ts_check looked each point of the sorted
union of both supports up on each side with ``A1Class.fiber``, a linear scan;
it now walks the two sorted supports once.  Each pair must agree on every
input, and on invalid input raise the same exception with the same payload.
"""

from __future__ import annotations

import itertools
import math
import time

from hypothesis import example, given, strategies as st

from fractions import Fraction

from motivic import (A1Class, BiClass, Constant, MuClass, Resolved, SmoothProper, SNCDatum,
                     Stratum, a1_star, chi_of_a1, phi_generator, phi_measure, psi_pair, star,
                     tensor, ts_check, validate_datum, vanishing_cycles)
from motivic import a1, convolve
from motivic.a1 import point_str
from motivic.classes import _FER2_START, FER, TOWER_LIMIT, _tower, atom_mul, factor_str, fer, opq, orb
from motivic.errors import ValidationError
from motivic.jsonio import class_to_json, dumps
from motivic.laurent import EPoly, L_MINUS_1, ONE_MINUS_L, LaurentInt
from motivic.realize import factor_chi
from motivic.vanishing import LOCUS_TAGS, _fibers

from conftest import cross_datum, laurents, power_datum, python_calls, trivial_classes


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


BLOB = opq("blob", 2, {(0, 0): 1, (1, 1): 2})
HUSK = opq("husk", -1)


def _split_trivial(atom):
    return tuple(f for f in atom if f[0] == "fer"), tuple(f for f in atom if f[0] != "fer")


def _opaque_pair(core_a, core_b):
    sa, sb = sorted("*".join(map(factor_str, core)) for core in (core_a, core_b))
    chi = math.prod(factor_chi(f) for f in core_a + core_b)
    return MuClass([(1, (opq(f"psi({sa}|{sb})", chi),))])


def reference_psi_atoms(a, b):
    triv_a, core_a = _split_trivial(a)
    triv_b, core_b = _split_trivial(b)
    if not core_a or not core_b:
        product, mult = atom_mul(a, b)
        return MuClass([(mult, product)])
    if core_a == core_b and len(core_a) == 1 and core_a[0][0] == "orb":
        n = core_a[0][1]
        inner = MuClass([(n * L_MINUS_1, ()), (-1, (FER(n, 2),))])
    elif (len(core_a) == 1 and len(core_b) == 1
          and {core_a[0][0], core_b[0][0]} == {"FER", "orb"}):
        f_fer = core_a[0] if core_a[0][0] == "FER" else core_b[0]
        f_orb = core_a[0] if core_a[0][0] == "orb" else core_b[0]
        n, r = f_fer[1], f_fer[2]
        if f_orb[1] == n:
            inner = MuClass([
                (L_MINUS_1, (fer(n, r - 1), orb(n))),
                (1, (FER(n, r + 1),)),
                (-L_MINUS_1, (fer(n, r),)),
            ])
        else:
            inner = _opaque_pair(core_a, core_b)
    else:
        inner = _opaque_pair(core_a, core_b)
    return inner * MuClass([(1, triv_a + triv_b)])


def reference_psi_pair(p):
    """Bilinear extension of the reference pair rule, one sum at a time."""
    out = MuClass.zero()
    for (a, b), c in p.terms():
        out = out + reference_psi_atoms(a, b) * c
    return out


def reference_star(a, b):
    return reference_psi_pair(tensor(a, b))


def reference_a1_star(f, g):
    return A1Class._make((p + q, reference_psi_pair(tensor(cp, cq)))
                         for p, cp in f.support() for q, cq in g.support())


def reference_phi_generator(g):
    if isinstance(g, Resolved):
        return A1Class([(p, vanishing_cycles(d)[0]) for p, d in g.criticals])
    if isinstance(g, Constant):
        return A1Class({g.value: g.fiber_class})
    if isinstance(g, SmoothProper):
        return A1Class.zero()
    raise ValidationError(f"unknown generator {g!r}")


def reference_phi_measure(p):
    terms = []
    for coeff, g in p:
        if not isinstance(coeff, int):
            raise ValidationError(f"presentation coefficient {coeff!r} is not an integer")
        terms += (reference_phi_generator(g) * coeff).support()
    return A1Class._make(terms)


def reference_ts_check(g_v, g_w, direct):
    lhs = a1_star(phi_generator(g_v), phi_generator(g_w))
    rhs = phi_generator(direct)
    points = sorted({p for p, _ in lhs.support()} | {p for p, _ in rhs.support()})
    by_point = [{"point": point_str(p), "equal": lhs.fiber(p) == rhs.fiber(p)}
                for p in points]
    return {"equal": lhs == rhs, "by_point": by_point}


def outcome(fn, *args):
    """fn's result, or the type and payload of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared as a value: same type, same payload
        return type(exc), exc.args


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
            BLOB, HUSK]
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
    expected = reference_tower(TOWER_LIMIT)
    for r in [2, 3, 4, 5, 7, 31, 60, 150, TOWER_LIMIT]:
        assert _tower(r, [LaurentInt.from_int(2)]) == expected[r]
    shared = list(_FER2_START)
    for r in [7, 3, 60, 2, 31] + list(range(2, TOWER_LIMIT + 1)):
        assert _tower(r, shared) == expected[r]


@given(st.text(max_size=3), st.integers(-5, 5), _epoly_data)
def test_opaque_stores_the_epoly_canonical_form(tag, chi, data):
    stored = MuClass.opaque(tag, chi, data).terms()[0][0][0][3]
    assert stored == EPoly(data).items()


# --- the bilinear folds ------------------------------------------------------------------

# Few points and a sum that collides often, so fibers cancel at a point:
# 1/2 + 1/2, 1/3 + 2/3 and -1/6 + 7/6 all give 1.  Points within 2**-64 of 1/3,
# 2/3 and 1 share floor(p * 2**64) with them, so the sort falls back to
# comparing the points.  Over large prime denominators, sums rarely reduce.
_POINTS = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]
_TINY = Fraction(1, 2 ** 70)
_NEAR = [Fraction(1, 3), Fraction(2, 3), Fraction(-1, 6), Fraction(7, 6), Fraction(1, 3) + _TINY,
         Fraction(1, 3) - _TINY, Fraction(2, 3) - _TINY, 1 + _TINY, 1 - _TINY]
_points = st.one_of(
    st.sampled_from(_POINTS + _NEAR),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.sampled_from([999_999_937, 10 ** 9 + 7, 10 ** 9 + 9, 2 ** 61 - 1])),
)
_line_classes = st.lists(st.tuples(_points, _classes), max_size=3).map(A1Class)
_exterior = st.lists(st.tuples(_classes, _classes), max_size=2).map(
    lambda pairs: BiClass([(a, b, ca * cb) for x, y in pairs
                           for a, ca in x.terms() for b, cb in y.terms()]))


def _points_of(f):
    return [p for p, _ in f.support()]


@given(_classes, _classes)
def test_star_equals_the_reference_route(a, b):
    assert star(a, b) == reference_star(a, b)
    assert star(a, a - b) == reference_star(a, a - b)


@given(_exterior)
def test_psi_pair_equals_the_reference_route(p):
    assert psi_pair(p) == reference_psi_pair(p)


# An atom is a core (nothing, one orbit, one equivariant Fermat atom, one
# opaque atom with or without E-data, or two of them) times up to two trivial
# Fermat factors, so P2, P4, P5 and P6 each fire with trivial factors attached;
# orbits are drawn twice as often so that equal-orbit (P4) pairs are common.
# The trivial factors differ in r as well as in n, so that the factor order
# compares both entries.
_orbits = st.integers(2, 6).map(orb)
_core_factors = st.one_of(_orbits, _orbits,
                          st.tuples(st.integers(2, 4), st.integers(2, 3)).map(lambda t: FER(*t)),
                          st.sampled_from([BLOB, HUSK]))
_trivial = st.tuples(st.integers(3, 5), st.integers(2, 4)).map(lambda t: fer(*t))
_core_atoms = st.tuples(st.lists(_core_factors, max_size=2), st.lists(_trivial, max_size=2)).map(
    lambda parts: parts[0] + parts[1])
_core_classes = st.lists(st.tuples(laurents(min_terms=1, max_terms=2), _core_atoms),
                         max_size=4).map(MuClass)

POOL = [MuClass([(1, list(core) + list(triv))])
        for core in [(), (orb(2),), (orb(3),), (orb(4),), (FER(2, 2),), (FER(3, 2),), (FER(4, 3),),
                     (BLOB,), (HUSK,), (orb(3), FER(3, 2))]
        for triv in [(), (fer(3, 2),), (fer(4, 2), fer(5, 2))]]


@given(_core_classes, _core_classes)
def test_star_equals_the_reference_route_on_cores_with_trivial_factors(a, b):
    assert star(a, b) == reference_star(a, b)


def test_star_equals_the_reference_route_on_every_pool_pair():
    for a in POOL:
        for b in POOL:
            assert star(a, b) == reference_star(a, b), (a, b)


# Canonical JSON of star on fixed inputs that take P4, P5 and P6 with trivial
# factors attached, recorded before the pair rules emitted normal terms directly.
# The cases from "p5-one-core-pair-two-trivial-sets" on meet one pair of cores
# under several sets of trivial factors in one call, so the closed form or
# opaque factor of those cores is derived anew for each pair of atoms; they
# were recorded when a core pair's form was derived only once.
PINS = {
    "p4-orb3-trivial-both-sides": (
        [(1, [orb(3), fer(4, 2)])], [(2, [orb(3), fer(5, 2)])],
        '{"terms":[{"coeff":{"0":-6,"1":6},"factors":[{"fer":[4,2]},{"fer":[5,2]}]},'
        '{"coeff":{"0":-2},"factors":[{"FER":[3,2]},{"fer":[4,2]},{"fer":[5,2]}]}]}'),
    "p4-orb2-trivial-one-side": (
        [(L_MINUS_1, [orb(2), fer(3, 2)])], [(1, [orb(2)])],
        '{"terms":[{"coeff":{"0":1,"1":-2,"2":1},"factors":[{"fer":[3,2]}]},'
        '{"coeff":{"0":-2,"1":2},"factors":[{"orb":2},{"fer":[3,2]}]}]}'),
    "p5-fer-r2-trivial-both-sides": (
        [(1, [FER(3, 2), fer(4, 2)])], [(-1, [orb(3), fer(3, 2)])],
        '{"terms":[{"coeff":{"0":3,"1":-3},"factors":[{"orb":3},{"fer":[3,2]},{"fer":[4,2]}]},'
        '{"coeff":{"0":-1},"factors":[{"FER":[3,3]},{"fer":[3,2]},{"fer":[4,2]}]},'
        '{"coeff":{"0":-1,"1":1},"factors":[{"fer":[3,2]},{"fer":[3,2]},{"fer":[4,2]}]}]}'),
    "p5-fer-r3-orb-first": (
        [(1, [orb(4), fer(5, 2)])], [(1, [FER(4, 3), fer(3, 2), fer(5, 2)])],
        '{"terms":[{"coeff":{"0":1},"factors":[{"FER":[4,4]},{"fer":[3,2]},{"fer":[5,2]},{"fer":[5,2]}]},'
        '{"coeff":{"0":1,"1":-1},"factors":[{"fer":[3,2]},{"fer":[4,3]},{"fer":[5,2]},{"fer":[5,2]}]},'
        '{"coeff":{"0":-1,"1":1},"factors":[{"orb":4},{"fer":[3,2]},{"fer":[4,2]},{"fer":[5,2]},{"fer":[5,2]}]}]}'),
    "p6-orbits-trivial-both-sides": (
        [(1, [orb(2), fer(3, 2)])], [(1, [orb(3), fer(5, 2)])],
        '{"terms":[{"coeff":{"0":1},"factors":[{"fer":[3,2]},{"fer":[5,2]},{"opq":{"chi":6,"tag":"psi(ORB(2)|ORB(3))"}}]}]}'),
    "p6-opaque-epoly-trivial": (
        [(1, [BLOB, fer(4, 2)])], [(1, [FER(3, 2)])],
        '{"terms":[{"coeff":{"0":1},"factors":[{"fer":[4,2]},{"opq":{"chi":-18,"tag":"psi(FER(3,2)|OPQ[blob])"}}]}]}'),
    "mixed-three-terms": (
        [(1, [orb(3)]), (2, [FER(3, 2), fer(4, 2)]), (-1, [fer(5, 2)])],
        [(1, [orb(3), fer(3, 2)]), (L_MINUS_1, [orb(6)]), (1, [HUSK])],
        '{"terms":[{"coeff":{"0":-3,"1":3},"factors":[{"fer":[3,2]}]},'
        '{"coeff":{"0":1},"factors":[{"opq":{"chi":-3,"tag":"psi(OPQ[husk]|ORB(3))"}}]},'
        '{"coeff":{"0":-1,"1":1},"factors":[{"opq":{"chi":18,"tag":"psi(ORB(3)|ORB(6))"}}]},'
        '{"coeff":{"0":1,"1":-1},"factors":[{"orb":6},{"fer":[5,2]}]},'
        '{"coeff":{"0":-1},"factors":[{"FER":[3,2]},{"fer":[3,2]}]},'
        '{"coeff":{"0":2},"factors":[{"fer":[4,2]},{"opq":{"chi":9,"tag":"psi(FER(3,2)|OPQ[husk])"}}]},'
        '{"coeff":{"0":-2,"1":2},"factors":[{"fer":[4,2]},{"opq":{"chi":-54,"tag":"psi(FER(3,2)|ORB(6))"}}]},'
        '{"coeff":{"0":-1},"factors":[{"fer":[5,2]},{"opq":{"chi":-1,"tag":"husk"}}]},'
        '{"coeff":{"0":-6,"1":6},"factors":[{"orb":3},{"fer":[3,2]},{"fer":[4,2]}]},'
        '{"coeff":{"0":-1},"factors":[{"orb":3},{"fer":[3,2]},{"fer":[5,2]}]},'
        '{"coeff":{"0":2},"factors":[{"FER":[3,3]},{"fer":[3,2]},{"fer":[4,2]}]},'
        '{"coeff":{"0":2,"1":-2},"factors":[{"fer":[3,2]},{"fer":[3,2]},{"fer":[4,2]}]}]}'),
    "p5-one-core-pair-two-trivial-sets": (
        [(1, [orb(3), fer(4, 2)]), (L_MINUS_1, [orb(3), fer(5, 3)])], [(1, [FER(3, 2), fer(3, 3)])],
        '{"terms":[{"coeff":{"0":-3,"1":3},"factors":[{"orb":3},{"fer":[3,3]},{"fer":[4,2]}]},'
        '{"coeff":{"0":3,"1":-6,"2":3},"factors":[{"orb":3},{"fer":[3,3]},{"fer":[5,3]}]},'
        '{"coeff":{"0":1},"factors":[{"FER":[3,3]},{"fer":[3,3]},{"fer":[4,2]}]},'
        '{"coeff":{"0":-1,"1":1},"factors":[{"FER":[3,3]},{"fer":[3,3]},{"fer":[5,3]}]},'
        '{"coeff":{"0":1,"1":-1},"factors":[{"fer":[3,2]},{"fer":[3,3]},{"fer":[4,2]}]},'
        '{"coeff":{"0":-1,"1":2,"2":-1},"factors":[{"fer":[3,2]},{"fer":[3,3]},{"fer":[5,3]}]}]}'),
    "p5-both-orders-in-one-call": (
        [(1, [FER(3, 2), fer(4, 2)]), (1, [orb(3), fer(5, 2)])],
        [(-1, [orb(3), fer(3, 3)]), (2, [FER(3, 2)])],
        '{"terms":[{"coeff":{"0":-6,"1":6},"factors":[{"orb":3},{"fer":[5,2]}]},'
        '{"coeff":{"0":2},"factors":[{"FER":[3,3]},{"fer":[5,2]}]},'
        '{"coeff":{"0":2,"1":-2},"factors":[{"fer":[3,2]},{"fer":[5,2]}]},'
        '{"coeff":{"0":3,"1":-3},"factors":[{"fer":[3,3]},{"fer":[5,2]}]},'
        '{"coeff":{"0":2},"factors":[{"fer":[4,2]},{"opq":{"chi":81,"tag":"psi(FER(3,2)|FER(3,2))"}}]},'
        '{"coeff":{"0":3,"1":-3},"factors":[{"orb":3},{"fer":[3,3]},{"fer":[4,2]}]},'
        '{"coeff":{"0":1},"factors":[{"FER":[3,2]},{"fer":[3,3]},{"fer":[5,2]}]},'
        '{"coeff":{"0":-1},"factors":[{"FER":[3,3]},{"fer":[3,3]},{"fer":[4,2]}]},'
        '{"coeff":{"0":-1,"1":1},"factors":[{"fer":[3,2]},{"fer":[3,3]},{"fer":[4,2]}]}]}'),
    "p4-orb2-one-core-pair-three-trivial-sets": (
        [(1, [orb(2), fer(3, 2)]), (2, [orb(2), fer(4, 3)])],
        [(1, [orb(2)]), (L_MINUS_1, [orb(2), fer(5, 4)])],
        '{"terms":[{"coeff":{"0":-1,"1":1},"factors":[{"fer":[3,2]}]},'
        '{"coeff":{"0":-2,"1":2},"factors":[{"fer":[4,3]}]},'
        '{"coeff":{"0":2},"factors":[{"orb":2},{"fer":[3,2]}]},'
        '{"coeff":{"0":4},"factors":[{"orb":2},{"fer":[4,3]}]},'
        '{"coeff":{"0":1,"1":-2,"2":1},"factors":[{"fer":[3,2]},{"fer":[5,4]}]},'
        '{"coeff":{"0":2,"1":-4,"2":2},"factors":[{"fer":[4,3]},{"fer":[5,4]}]},'
        '{"coeff":{"0":-2,"1":2},"factors":[{"orb":2},{"fer":[3,2]},{"fer":[5,4]}]},'
        '{"coeff":{"0":-4,"1":4},"factors":[{"orb":2},{"fer":[4,3]},{"fer":[5,4]}]}]}'),
    "p6-one-core-pair-trivial-r-differs": (
        [(1, [orb(2), fer(5, 2)]), (1, [orb(2), fer(4, 4)])],
        [(1, [orb(3), fer(4, 3)]), (1, [BLOB, fer(3, 4), fer(5, 3)])],
        '{"terms":[{"coeff":{"0":1},"factors":[{"fer":[4,3]},{"fer":[4,4]},{"opq":{"chi":6,"tag":"psi(ORB(2)|ORB(3))"}}]},'
        '{"coeff":{"0":1},"factors":[{"fer":[4,3]},{"fer":[5,2]},{"opq":{"chi":6,"tag":"psi(ORB(2)|ORB(3))"}}]},'
        '{"coeff":{"0":1},"factors":[{"fer":[3,4]},{"fer":[4,4]},{"fer":[5,3]},{"opq":{"chi":4,"tag":"psi(OPQ[blob]|ORB(2))"}}]},'
        '{"coeff":{"0":1},"factors":[{"fer":[3,4]},{"fer":[5,2]},{"fer":[5,3]},{"opq":{"chi":4,"tag":"psi(OPQ[blob]|ORB(2))"}}]}]}'),
}


def test_pinned_star_outputs():
    for name, (a, b, expected) in PINS.items():
        assert dumps(class_to_json(star(MuClass(a), MuClass(b)))) == expected, name


@given(_line_classes, _line_classes)
def test_a1_star_equals_the_reference_route(f, g):
    out = a1_star(f, g)
    assert out == reference_a1_star(f, g)
    assert _points_of(out) == sorted(_points_of(out))
    assert all(type(p) is Fraction for p in _points_of(out))
    assert a1_star(f, A1Class()) == a1_star(A1Class(), g) == A1Class.zero()


def test_sums_over_different_denominators_meet_at_one_point():
    x, y = MuClass.orbit(2), MuClass.fermat_trivial(3, 2)
    # 1/2 + 1/2 = 1/3 + 2/3 = -1/6 + 7/6 = 1, and 1/2 + 2/3 = 1/3 + 5/6 = 7/6
    f = A1Class({Fraction(1, 2): x, Fraction(1, 3): y, Fraction(-1, 6): x + y})
    g = A1Class({Fraction(1, 2): y, Fraction(2, 3): x, Fraction(7, 6): y, Fraction(5, 6): x})
    out = a1_star(f, g)
    assert out == reference_a1_star(f, g)
    assert _points_of(out).count(1) == 1


@given(_line_classes, _line_classes)
def test_a1_star_is_chi_multiplicative(f, g):
    assert chi_of_a1(a1_star(f, g)) == chi_of_a1(f) * chi_of_a1(g)


def test_points_within_two_to_the_minus_64_keep_their_order():
    near = sorted(_NEAR + [Fraction(1, 3) + 2 * _TINY, Fraction(1, 3) + _TINY / 2])
    f = A1Class([(p, MuClass.one()) for p in reversed(near)])
    assert _points_of(f) == near
    assert _points_of(a1_star(f, A1Class({0: MuClass.one()}))) == near
    assert _points_of(phi_measure([(1, Constant(p, MuClass.one())) for p in near[::-1]])) == near


def test_cancelling_terms_and_fibers_vanish():
    x = MuClass.orbit(2)
    # Psi(fer(3,2) x ORB(2)) and Psi(ORB(2) x fer(3,2)) are one atom: they cancel
    f = A1Class({0: MuClass.fermat_trivial(3, 2), 1: x})
    g = A1Class({0: x, -1: -MuClass.fermat_trivial(3, 2)})
    assert a1_star(f, g) == reference_a1_star(f, g)
    assert a1_star(f, g).fiber(0).is_zero()
    assert [p for p, _ in a1_star(f, g).support()] == [Fraction(-1), Fraction(1)]
    both = MuClass.fermat_trivial(3, 2) + x
    assert star(both, both - x - x) == reference_star(both, both - x - x)
    assert star(x, MuClass.zero()).is_zero()


def test_a_chi_past_the_limit_raises_at_the_same_pair():
    big = MuClass([(1, (FER(3, 401),)), (1, (FER(3, 402),))])
    other = MuClass([(1, (fer(3, 2),)), (1, (orb(5),))])
    assert star(big, MuClass.one()) == reference_star(big, MuClass.one())  # P2 takes no chi
    assert outcome(star, other, big) == outcome(reference_star, other, big)
    assert outcome(star, other, big)[0] is ValidationError


# One pair of points: a1_star runs star's loop, so it must agree with the
# atom-major line kernel that serves two or more pairs, called directly here,
# and with star at the sum of the points.

def atom_major_a1_star(f, g):
    """a1_star through the line kernel: convolve._line_into over one slot per
    distinct sum of points, then a1._line."""
    slot_of = {}
    slots = [[slot_of.setdefault((p + q).as_integer_ratio(), len(slot_of)) for q, _ in g.support()]
             for p, _ in f.support()]
    acc = {}
    convolve._line_into(acc, a1._by_atom(f), a1._by_atom(g), slots)
    return a1._line(acc, list(slot_of))


@st.composite
def _point_pairs(draw):
    """Two points, the second often the negative of the first, so that p + q = 0."""
    p = draw(_points)
    return p, draw(_points | st.just(-p))


# FER(3,401) and FER(3,402) with a core on the other side are P6 pairs whose
# chi passes TOWER_LIMIT: the first such pair that a loop visits raises
_PAST_THE_LIMIT = MuClass([(1, (FER(3, 401),)), (1, (FER(3, 402),))])
_one_pair_fibers = _classes.filter(bool) | st.just(_PAST_THE_LIMIT)


@given(_point_pairs(), _one_pair_fibers, _one_pair_fibers)
@example((Fraction(1, 3), Fraction(-1, 3)),
         MuClass([(1, (BLOB, fer(3, 2))), (LaurentInt({-2: 1}), (HUSK,))]),
         MuClass([(1, (orb(2),)), (-1, (opq("blob", 2),))]))
@example((Fraction(-7, 2), Fraction(5, 3)), MuClass([(1, (fer(3, 2),)), (1, (orb(5),))]),
         _PAST_THE_LIMIT)
# blob with and without E-data, times fer(3,2), are two atoms that differ only
# in E-data: the one without it, a shorter factor, sorts first
@example((Fraction(0), Fraction(1)), MuClass([(1, (fer(3, 2),)), (1, (orb(2),))]),
         MuClass([(1, (BLOB,)), (1, (opq("blob", 2),))]))
def test_one_pair_a1_star_equals_the_line_kernel_and_star_at_the_sum(points, c, d):
    p, q = points
    f, g = A1Class({p: c}), A1Class({q: d})
    out = outcome(a1_star, f, g)
    assert out == outcome(atom_major_a1_star, f, g)
    assert out == outcome(lambda: A1Class({p + q: star(c, d)}))
    if isinstance(out, A1Class):
        assert all(type(point) is Fraction for point in _points_of(out))


def test_one_pair_whose_star_cancels_is_the_zero_class():
    # P6 names a pair of opaque cores by their tags and the product of their
    # chi, so opq(t,0) meets opq(s,1) and opq(s,2) in one atom
    c = MuClass([(1, (opq("t", 0),))])
    d = MuClass([(1, (opq("s", 1),)), (-1, (opq("s", 2),))])
    assert c and d and star(c, d).is_zero()
    f, g = A1Class({"1/2": c}), A1Class({"-7/3": d})
    assert a1_star(f, g) == atom_major_a1_star(f, g) == A1Class.zero()


def test_one_pair_raises_as_the_line_kernel_at_the_same_pair():
    other = MuClass([(1, (fer(3, 2),)), (1, (orb(5),)), (1, (orb(7),))])
    for c, d in [(other, _PAST_THE_LIMIT), (_PAST_THE_LIMIT, other)]:
        f, g = A1Class({0: c}), A1Class({"1/2": d})
        out = outcome(a1_star, f, g)
        assert out == outcome(atom_major_a1_star, f, g) == outcome(star, c, d)
        assert out == (ValidationError, ("chi_c of FER(3,401) exceeds the limit r <= 400",))


# Presentations: data are drawn as one shared object or as an equal copy, and
# an invalid datum, an unhashable one or a non-integer coefficient may occur.

def _invalid_datum():
    return SNCDatum([("E1", 0)], [Stratum({"E1"}, MuClass.one(), MuClass.one(), "singular")],
                    MuClass.zero(), MuClass.one())


def _unhashable_datum():
    return SNCDatum([("E1", 1)], [Stratum({"E1"}, MuClass.one(), MuClass.one(), ["singular"])],
                    MuClass.zero(), MuClass.one())


_DATA = [cross_datum, lambda: power_datum(2), lambda: power_datum(3), _invalid_datum,
         _unhashable_datum]
_SHARED = [make() for make in _DATA]
_data = st.sampled_from(_SHARED) | st.sampled_from(_DATA).map(lambda make: make())
_generators = st.one_of(
    st.lists(st.tuples(_points, _data), min_size=1, max_size=2,
             unique_by=lambda t: t[0]).map(Resolved),
    # a Constant may name its point by an int or a string, 2/4 among them
    st.tuples(_points | st.sampled_from([2, "2/4", "-6/6", "3"]),
              trivial_classes()).map(lambda t: Constant(*t)),
    st.just(SmoothProper()),
)
_coefficients = st.integers(-3, 3) | st.sampled_from([True, 1.5, "2", None, Fraction(1)])
_presentations = st.lists(st.tuples(_coefficients, _generators), max_size=8)


@given(_presentations)
def test_phi_measure_equals_the_reference_route(p):
    out = outcome(phi_measure, p)
    assert out == outcome(reference_phi_measure, p)
    if isinstance(out, A1Class):
        assert _points_of(out) == sorted(_points_of(out))


def test_phi_measure_is_linear_in_the_number_of_denominators():
    # a common denominator over the whole presentation would make each point
    # key an integer of ~10**5 digits here, and the measure take seconds
    one = MuClass.one()
    # the common denominator is big-integer work in C, which no call count sees
    p = [(1, Constant(Fraction(1, 10 ** 6 + i), one)) for i in range(32_000)]
    start = time.process_time()
    out = phi_measure(p)
    assert time.process_time() - start < 2.5
    assert _points_of(out) == [Fraction(1, 10 ** 6 + i) for i in reversed(range(32_000))]


@given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(_SHARED[:3])), min_size=1,
                max_size=6), st.sampled_from(_DATA[3:]), st.integers(0, 6))
def test_phi_measure_raises_at_the_same_generator(p, make_invalid, at):
    p = p[:at] + [(1, Resolved([(0, make_invalid())]))] + p[at:] + [(1.5, SmoothProper())]
    assert isinstance(outcome(phi_measure, p), tuple)  # it raised
    assert outcome(phi_measure, p) == outcome(reference_phi_measure, p)
    q = p[:at] + [(None, SmoothProper())] + p[at:]
    assert outcome(phi_measure, q) == outcome(reference_phi_measure, q)


def test_phi_measure_drops_a_fiber_whose_weights_cancel():
    d, twin = power_datum(3), power_datum(3)
    assert d == twin and d is not twin
    half = Fraction(1, 2)
    p = [(2, Resolved([(0, d), (1, cross_datum())])), (-2, Resolved([(0, d)])),
         # at 1/2 an equal but distinct datum joins d; at 1 the weights 2 + 3 - 1 - 4 cancel
         (1, Resolved([(half, d)])), (3, Resolved([("2/4", twin), (1, cross_datum())])),
         (-1, Resolved([(1, cross_datum())])), (-4, Resolved([(1, cross_datum())]))]
    out = phi_measure(p)
    assert out == reference_phi_measure(p)
    assert out.support() == ((half, 4 * vanishing_cycles(d)[0]),)
    assert phi_measure(p[:2] + p[4:5]) == reference_phi_measure(p[:2] + p[4:5])


def test_phi_measure_keeps_points_within_two_to_the_minus_64_apart():
    # each point is met by two generators, which hold the points in turn
    near = sorted(_NEAR + [Fraction(1, 3) + 2 * _TINY, Fraction(1, 3) + _TINY / 2])
    data = [power_datum(2), cross_datum(), power_datum(3)]
    p = [(c, Resolved([(q, data[i % 3]) for i, q in enumerate(near) if i % 2 in parity]))
         for c, parity in ((1, (1,)), (2, (0, 1)), (-1, (0,)))]
    out = phi_measure(p)
    assert out == reference_phi_measure(p)
    assert _points_of(out) == sorted(_points_of(out)) and len(_points_of(out)) == len(near)


def test_a1_star_drops_a_point_whose_fibers_cancel():
    # 1/2 + 1/2 and 1/3 + 2/3 both give 1, where their two Psi cancel
    x = MuClass.orbit(2) + MuClass.fermat_trivial(3, 2)
    f = A1Class({Fraction(1, 2): x, Fraction(1, 3): x})
    g = A1Class({Fraction(1, 2): x, Fraction(2, 3): -x})
    out = a1_star(f, g)
    assert out == reference_a1_star(f, g)
    assert _points_of(out) == [Fraction(5, 6), Fraction(7, 6)]


@given(_generators)
def test_phi_generator_wraps_the_fibers_the_constructor_would_build(g):
    reference = outcome(lambda: A1Class(_fibers(g)))
    out = outcome(phi_generator, g)
    assert out == reference == outcome(reference_phi_generator, g)
    if isinstance(out, A1Class):
        assert out.support() == reference.support()


# Thom-Sebastiani checks: points from a small set, so the two sides share some
# points and hold others alone; direct may be g_v itself and g_w the unit, so
# whole reports come out equal too.

_ts_generators = st.one_of(
    st.lists(st.tuples(st.sampled_from(_POINTS + _NEAR), st.sampled_from(_SHARED[:3]) | datums()),
             min_size=1, max_size=3, unique_by=lambda t: t[0]).map(Resolved),
    st.tuples(st.sampled_from(_POINTS + _NEAR), trivial_classes()).map(lambda t: Constant(*t)),
    st.just(SmoothProper()),
)


@st.composite
def _ts_triples(draw):
    g_v = draw(_ts_generators)
    g_w = draw(_ts_generators | st.just(Constant(0, MuClass.one())))
    return g_v, g_w, draw(_ts_generators | st.just(g_v))


@given(_ts_triples())
@example((Resolved([(0, power_datum(2))]), Constant(0, MuClass.one()),
          Resolved([(1, power_datum(2))])))
@example((Resolved([(0, power_datum(2)), (1, cross_datum())]), Constant(-1, MuClass.one()),
          Resolved([(-1, power_datum(2)), (Fraction(1, 2), cross_datum())])))
@example((Resolved([(0, _invalid_datum())]), SmoothProper(), SmoothProper()))
def test_ts_check_equals_the_reference_route(triple):
    assert outcome(ts_check, *triple) == outcome(reference_ts_check, *triple)


def test_ts_check_is_linear_in_the_support():
    # k critical values a side give k^2 points on the left; looking each one up
    # by a linear scan made doubling k cost about 16 times as much, not 4
    def case(k):
        g_v = Resolved([(Fraction(i, 61), power_datum(2)) for i in range(k)])
        g_w = Resolved([(Fraction(j, 67), power_datum(3)) for j in range(k)])
        direct = Resolved([(Fraction(i, 61) + Fraction(i, 67), cross_datum()) for i in range(k // 2)] +
                          [(Fraction(-1 - i, 7), power_datum(2)) for i in range(k // 2)])
        return g_v, g_w, direct

    # the cost is counted in Python calls, which the load of the host does not change
    small_case, large_case = case(30), case(60)
    _, small = python_calls(lambda: ts_check(*small_case))
    report, large = python_calls(lambda: ts_check(*large_case))
    assert large / small < 8
    points = {Fraction(i, 61) + Fraction(j, 67) for i in range(60) for j in range(60)}
    points |= {Fraction(-1 - i, 7) for i in range(30)}
    assert [entry["point"] for entry in report["by_point"]] == [point_str(p) for p in sorted(points)]
    assert report["equal"] is False and not any(entry["equal"] for entry in report["by_point"])
