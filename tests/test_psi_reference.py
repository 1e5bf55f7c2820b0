"""Differential test of Psi against the pair route it replaced.

``star`` emits the normal terms of each atom pair directly.  The reference
below is a copy of the earlier route: every pair result is sent back through
the validating ``MuClass`` constructor (rules N1-N5b) and multiplied with the
trivial factors as a second ``MuClass``, and the pairs are summed one
``MuClass`` at a time.  The two must agree on every input.
"""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from motivic import MuClass, star
from motivic.classes import FER, atom_mul, factor_str, fer, opq, orb
from motivic.jsonio import class_to_json, dumps
from motivic.laurent import L_MINUS_1
from motivic.realize import factor_chi

from conftest import laurents

BLOB = opq("blob", 2, {(0, 0): 1, (1, 1): 2})
HUSK = opq("husk", -1)


# --- the reference pair route -----------------------------------------------------

def _split_trivial(atom):
    return (tuple(f for f in atom if f[0] == "fer"), tuple(f for f in atom if f[0] != "fer"))


def _core_str(core):
    return "*".join(factor_str(f) for f in core) if core else "1"


def _opaque_pair(core_a, core_b):
    sa, sb = sorted((_core_str(core_a), _core_str(core_b)))
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


def reference_star(a, b):
    """Bilinear extension of the reference pair rule, one sum at a time."""
    out = MuClass.zero()
    for a1, c1 in a.terms():
        for a2, c2 in b.terms():
            out = out + reference_psi_atoms(a1, a2) * (c1 * c2)
    return out


# --- generators ------------------------------------------------------------------------

# An atom is a core (nothing, one orbit, one equivariant Fermat atom, one
# opaque atom with or without E-data, or two of them) times up to two trivial
# Fermat factors, so P2, P4, P5 and P6 each fire with trivial factors attached;
# orbits are drawn twice as often so that equal-orbit (P4) pairs are common.
# The trivial factors differ in r as well as in n, so that sorting them as
# plain tuples is checked against factor_key order.
_orbits = st.integers(2, 6).map(orb)
_fermats = st.tuples(st.integers(2, 4), st.integers(2, 3)).map(lambda t: FER(*t))
_opaques = st.sampled_from([BLOB, HUSK])
_core_factors = st.one_of(_orbits, _orbits, _fermats, _opaques)
_trivial = st.tuples(st.integers(3, 5), st.integers(2, 4)).map(lambda t: fer(*t))
_atoms = st.tuples(st.lists(_core_factors, max_size=2), st.lists(_trivial, max_size=2)).map(
    lambda parts: parts[0] + parts[1])
_classes = st.lists(st.tuples(laurents(min_terms=1, max_terms=2), _atoms), max_size=4).map(MuClass)

POOL = [MuClass([(1, list(core) + list(triv))])
        for core in [(), (orb(2),), (orb(3),), (orb(4),), (FER(2, 2),), (FER(3, 2),), (FER(4, 3),),
                     (BLOB,), (HUSK,), (orb(3), FER(3, 2))]
        for triv in [(), (fer(3, 2),), (fer(4, 2), fer(5, 2))]]


@given(_classes, _classes)
def test_star_equals_the_reference_route(a, b):
    assert star(a, b) == reference_star(a, b)


def test_star_equals_the_reference_route_on_every_pool_pair():
    for a in POOL:
        for b in POOL:
            assert star(a, b) == reference_star(a, b), (a, b)


# --- pinned outputs ------------------------------------------------------------------

# Canonical JSON of star on fixed inputs that take P4, P5 and P6 with trivial
# factors attached, recorded before the pair rules emitted normal terms directly.
# The cases from "p5-one-core-pair-two-trivial-sets" on meet one pair of cores
# under several sets of trivial factors in one call; they were recorded before
# the closed forms and opaque factors were made once per pair of cores.
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
