from __future__ import annotations

import pytest
from hypothesis import given

from motivic import MuClass, ValidationError, add, chi_c, forget_action, mul, normalize
from motivic.classes import TOWER_LIMIT
from motivic.laurent import LaurentInt

from conftest import GM, L, ONE, mu_classes, orb, python_calls, raw_terms
from oracles import diagonal_orbit_structure, torus_fermat_chi


# --- rewrite rules -------------------------------------------------------------

def test_n1_orbit_of_size_one_is_the_point():
    assert normalize([(1, [("orb", 1)])]) == ONE


def test_n2_orbit_fusion_against_orbit_count_oracle():
    # diagonal action on a product of orbits; oracle counts the orbits
    for d, e in [(2, 2), (2, 3), (3, 3), (4, 6), (2, 4), (6, 4)]:
        count, size = diagonal_orbit_structure(d, e)
        expected = MuClass([(count, [("orb", size)])])
        assert mul(orb(d), orb(e)) == expected


def test_n2_examples():
    assert mul(orb(2), orb(2)) == 2 * orb(2)
    assert mul(orb(2), orb(3)) == orb(6)
    assert mul(orb(3), orb(3)) == 3 * orb(3)


def test_n3_torus_with_multiplication_action_trivializes():
    gm = MuClass.torus(2)
    assert gm == GM
    assert MuClass.torus(1) == gm
    assert MuClass.torus(5) == gm


def test_n4_quadratic_fermat_pair():
    assert MuClass.fermat(2, 2) == GM - 2 * orb(2)


def test_n5a_one_variable_fermat_is_n_points():
    assert MuClass.fermat_trivial(3, 1) == 3 * ONE
    assert normalize([(1, [("fer", 5, 1)])]) == 5 * ONE


def test_quadratic_tower_forgets_consistently():
    # fer(2,r) must equal forget of FER(2,r), all r, or forget_action would
    # depend on the representative
    for r in range(2, 7):
        assert MuClass.fermat_trivial(2, r) == forget_action(MuClass.fermat(2, r))


def test_quadratic_tower_chi():
    for r in range(2, 8):
        assert chi_c(MuClass.fermat(2, r)) == -2 ** r
        assert chi_c(MuClass.fermat_trivial(2, r)) == -2 ** r


def test_quadratic_tower_beyond_the_limit_is_refused_at_once():
    for factor in [("FER", 2, TOWER_LIMIT + 1), ("fer", 2, TOWER_LIMIT + 1), ("FER", 2, 2000)]:
        with pytest.raises(ValidationError, match="quadratic tower"):
            # the refusal makes ~15 calls, building the tower first ~10**6
            python_calls(lambda: normalize([(1, [factor])]), limit=100)


def test_quadratic_tower_at_the_limit_still_normalizes():
    one = MuClass.fermat(2, TOWER_LIMIT)
    assert chi_c(one) == -2 ** TOWER_LIMIT
    assert forget_action(one) == MuClass.fermat_trivial(2, TOWER_LIMIT)
    eight = MuClass([(LaurentInt.monomial(k), [("FER", 2, TOWER_LIMIT)]) for k in range(8)])
    assert eight == sum((one * LaurentInt.monomial(k) for k in range(8)), MuClass.zero())
    # one construction expands each depth once, however many terms share it
    single = python_calls(lambda: MuClass.fermat(2, 100))[1]
    python_calls(lambda: MuClass([(LaurentInt.monomial(k), [("FER", 2, 100)]) for k in range(8)]),
                 limit=2 * single)


def test_chi_invariant_under_every_rewrite_rule():
    cases = [
        ([(1, [("orb", 1)])], ONE),
        ([(1, [("orb", 2), ("orb", 3)])], orb(6)),
        ([(1, [("gm", 4)])], GM),
        ([(1, [("FER", 2, 2)])], GM - 2 * orb(2)),
        ([(1, [("fer", 4, 1)])], 4 * ONE),
    ]
    for raw, rhs in cases:
        assert chi_c(normalize(raw)) == chi_c(rhs)


def test_geometric_chi_of_fermat_atoms_matches_definition_for_r2():
    # independent stratification oracle; engine and geometry agree at r = 2
    for n in range(2, 7):
        assert torus_fermat_chi(n, 2) == -n ** 2 == chi_c(MuClass.fermat_trivial(n, 2))


# --- validation ------------------------------------------------------------------

@pytest.mark.parametrize("factor", [
    ("orb", 0), ("orb", -3), ("FER", 1, 2), ("FER", 2, 1),
    ("fer", 1, 2), ("fer", 2, 0), ("gm", 0), ("bogus", 1),
    ("orb",), ("orb", 2, 3), ("FER", 2), ("opq", "tag"), (), ("opq", 5, 1), ("opq", "t", 1.5),
])
def test_malformed_descriptors_raise(factor):
    with pytest.raises(ValidationError):
        normalize([(1, [factor])])


# --- arithmetic examples -----------------------------------------------------------

def test_add_examples():
    assert ONE + (-1) * ONE == MuClass.zero()
    assert orb(2) + orb(2) == 2 * orb(2)
    assert GM + ONE == L
    assert add(orb(2), orb(3)) == orb(2) + orb(3)
    assert (orb(2) + orb(3)).coefficient((("orb", 4),)) == LaurentInt()


def test_mul_keeps_irreducible_products():
    product = mul(L, MuClass.fermat_trivial(3, 2))
    ((atom, coeff),) = product.terms()
    assert atom == (("fer", 3, 2),)
    assert coeff == LaurentInt.monomial(1)


def test_mul_unit_law():
    for c in [orb(5), MuClass.fermat(3, 2), L - ONE, MuClass.zero()]:
        assert mul(ONE, c) == c


# --- forget_action -------------------------------------------------------------------

def test_forget_examples():
    assert forget_action(orb(2)) == 2 * ONE
    two_orbits = GM + 2 * orb(2)
    assert forget_action(two_orbits) == GM + 4 * ONE
    assert forget_action(MuClass.fermat(3, 2)) == MuClass.fermat_trivial(3, 2)


@given(mu_classes())
def test_forget_is_idempotent_and_lands_in_trivial_subring(c):
    f = forget_action(c)
    assert f.is_trivial_action()
    assert forget_action(f) == f


@given(mu_classes(), mu_classes())
def test_forget_is_multiplicative_for_the_plain_product(a, b):
    assert forget_action(mul(a, b)) == mul(forget_action(a), forget_action(b))


# --- normal-form discipline ------------------------------------------------------------

@given(raw_terms())
def test_normalize_is_idempotent_and_order_independent(terms):
    c = normalize(terms)
    assert normalize([(coeff, atom) for atom, coeff in c.terms()]) == c
    assert normalize(list(reversed(terms))) == c
    flipped = [(coeff, tuple(reversed(tuple(fs)))) for coeff, fs in terms]
    assert normalize(flipped) == c


@given(mu_classes(), mu_classes(), mu_classes())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert a - a == MuClass.zero()
    assert mul(a, ONE) == a


def test_no_forbidden_atoms_are_ever_stored():
    hairy = normalize([
        (LaurentInt({1: 1}), [("FER", 2, 4), ("orb", 1)]),
        (1, [("fer", 2, 3), ("gm", 2), ("orb", 2), ("orb", 6)]),
        (1, [("fer", 6, 1), ("FER", 2, 2)]),
    ])
    for atom, _ in hairy.terms():
        for f in atom:
            assert f[0] in ("orb", "FER", "fer", "opq")
            assert not (f[0] == "orb" and f[1] == 1)
            assert not (f[0] in ("FER", "fer") and f[1] == 2 and f[2] >= 2)
            assert not (f[0] == "fer" and f[2] == 1)
        orbs = [f for f in atom if f[0] == "orb"]
        assert len(orbs) <= 1


def test_opaque_e_data_refuses_non_integer_keys_and_values():
    for data in [{(0, 0): 2.7}, {(0, 0): 2.0}, {(0.0, 0): 1}, {(1, 1.5): 1}, {(0, 0): "2"},
                 {(0,): 1}, [1, 2]]:
        with pytest.raises(ValidationError):
            MuClass.opaque("t", 1, data)
    stored = MuClass.opaque("t", 1, {(1, 1): 1, (0, 0): 2, (2, 2): 0}).terms()[0][0][0][3]
    assert stored == (((0, 0), 2), ((1, 1), 1))
