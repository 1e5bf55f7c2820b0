from __future__ import annotations

import math
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from motivic import (EPoly, MuClass, OracleBudgetError, RealizationUndefinedError,
                     Resolved, ValidationError, chi_c, chi_of_a1, count_fermat_points,
                     e_polynomial, forget_action, mul, phi_generator,
                     point_count_oracle, star)
from motivic.laurent import LaurentInt
from motivic.realize import factor_chi

from conftest import GM, L, ONE, laurents, mu_classes, orb, power_datum, python_calls
from oracles import (circle_minus_axes_count, count_fermat_affine, count_fermat_gf_p2,
                     fermat_curve_euler_data, torus_fermat_chi)

UV = EPoly.uv_power(1)
EPOLY_ONE = EPoly.constant(1)


# --- chi_c -------------------------------------------------------------------------

def test_chi_examples():
    assert chi_c(L) == 1
    assert chi_c(MuClass.lefschetz(-3)) == 1
    for n in [2, 4, 7]:
        assert chi_c(ONE - orb(n)) == 1 - n
    assert chi_c(MuClass.fermat_trivial(2, 2)) == -4
    assert chi_c(star(orb(2), orb(2))) == 4


def test_chi_on_opaque_uses_stored_value():
    assert chi_c(MuClass.opaque("mystery", 17)) == 17


_REPEATABLE = [("fer", 3, 2), ("fer", 4, 3), ("FER", 3, 2), ("orb", 3), ("opq", "t", -2),
               ("opq", "s", 3, {(0, 0): 1})]


@given(st.lists(st.tuples(laurents(), st.lists(st.sampled_from(_REPEATABLE), max_size=9)),
                max_size=3))
def test_chi_of_repeated_factors_is_the_product_over_every_copy(raw):
    c = MuClass(raw)
    expected = sum(coeff.sum_of_coefficients() * math.prod(factor_chi(f) for f in atom)
                   for atom, coeff in c.terms())
    assert chi_c(c) == expected


def test_chi_of_many_equal_factors_costs_one_power():
    c = MuClass([(1, [("fer", 3, 400)] * 6000)])
    # a product over every copy made 6000 factor_chi calls and took over 10 s
    assert python_calls(lambda: chi_c(c), limit=100)[0] == (-(3 ** 400)) ** 6000


@given(mu_classes(), mu_classes())
def test_chi_multiplicative_for_both_products(a, b):
    assert chi_c(mul(a, b)) == chi_c(a) * chi_c(b)
    assert chi_c(star(a, b)) == chi_c(a) * chi_c(b)


# --- E-polynomial ---------------------------------------------------------------------

def test_epoly_of_the_torus():
    assert e_polynomial(GM) == UV + EPoly.constant(-1)


def test_epoly_of_units_and_lefschetz_powers():
    assert e_polynomial(ONE) == EPOLY_ONE
    assert e_polynomial(MuClass.lefschetz(2)) == EPoly.uv_power(2)
    assert e_polynomial(MuClass.lefschetz(-1)) == EPoly.uv_power(-1)


def test_epoly_of_the_conic():
    assert e_polynomial(MuClass.fermat_trivial(2, 2)) == UV + EPoly.constant(-5)
    assert e_polynomial(MuClass.fermat_trivial(2, 2)).evaluate(1, 1) == -4


def test_epoly_from_genus_formula_matches_three_ways():
    for n in range(2, 7):
        g, chi_curve = fermat_curve_euler_data(n)
        expected = EPoly({(1, 1): 1, (1, 0): -g, (0, 1): -g, (0, 0): 1 - 3 * n})
        cls = MuClass.fermat_trivial(n, 2)
        assert e_polynomial(cls) == expected
        assert expected.evaluate(1, 1) == chi_curve == -n ** 2
        assert chi_c(cls) == -n ** 2


def test_epoly_str_forms():
    assert str(EPoly({(1, 1): 1, (1, 0): -2, (0, 1): -2, (0, 0): -8})) == "u*v - 2*u - 2*v - 8"
    assert str(EPoly()) == "0"


def test_epoly_undefined_factors_are_named():
    with pytest.raises(RealizationUndefinedError, match=r"fer\(3,3\)"):
        e_polynomial(MuClass.fermat_trivial(3, 3))
    with pytest.raises(RealizationUndefinedError, match=r"FER\(3,2\)"):
        e_polynomial(MuClass.fermat(3, 2))
    with pytest.raises(RealizationUndefinedError, match="OPQ"):
        e_polynomial(MuClass.opaque("no-data", 3))
    with pytest.raises(RealizationUndefinedError, match="ORB"):
        e_polynomial(orb(2))


def test_epoly_of_opaque_with_stored_data():
    c = MuClass.opaque("point-pair", 2, epoly={(0, 0): 2})
    assert e_polynomial(c) == EPoly.constant(2)


def test_epoly_refuses_non_integer_keys_and_values():
    for data in [{(0, 0): 2.7}, {(0, 0): 2.0}, {(0.0, 0): 1}, {(0, 1.5): 1}, {(0, 0): "2"}]:
        with pytest.raises(TypeError):
            EPoly(data)
    assert EPoly({(0, 0): 2, (1, 1): 0}) == EPoly.constant(2)


def test_epoly_times_a_foreign_operand_is_a_type_error():
    for other in [2, LaurentInt.from_int(2), "uv"]:
        with pytest.raises(TypeError):
            EPoly.constant(1) * other
    assert EPoly.constant(2) * EPoly.uv_power(1) == EPoly({(1, 1): 2})


@given(mu_classes())
def test_epoly_at_one_one_is_chi_after_forgetting(c):
    f = forget_action(c)
    try:
        value = e_polynomial(f)
    except RealizationUndefinedError:
        return
    assert value.evaluate(1, 1) == chi_c(f)


# --- point-count oracle -------------------------------------------------------------------

def test_counts_match_independent_enumeration():
    for n, r, q in [(2, 2, 5), (2, 2, 7), (3, 2, 7), (2, 3, 5), (3, 2, 2), (3, 3, 2), (2, 2, 3),
                    (2, 3, 3), (4, 4, 3)]:
        assert count_fermat_points(n, r, q) == count_fermat_affine(n, r, q, target=1)


def test_conic_counts_match_parametrization_formula():
    for q in (5, 7, 11, 13):
        assert count_fermat_points(2, 2, q) == circle_minus_axes_count(q)


def test_prime_power_fields():
    assert count_fermat_points(2, 2, 9) == circle_minus_axes_count(9)
    assert count_fermat_points(2, 2, 25) == circle_minus_axes_count(25)


def test_quadratic_extension_fields_match_explicit_pairs():
    for p in (3, 5, 7, 11):
        q = p * p
        for n in range(2, 6):
            for r in range(1, 4):
                if math.gcd(n, q) == 1 and (q - 1) ** r <= 2 * 10 ** 4:
                    assert count_fermat_points(n, r, q) == count_fermat_gf_p2(n, r, p), (n, r, q)


# counts over the other prime-power fields, as the polynomial-arithmetic oracle gave them
PRIME_POWER_COUNTS = {
    4: {(3, 1): 3, (3, 2): 0, (3, 3): 27, (5, 1): 1, (5, 2): 2, (5, 3): 7},
    8: {(3, 1): 1, (3, 2): 6, (3, 3): 43, (5, 1): 1, (5, 2): 6, (5, 3): 43},
    16: {(3, 1): 3, (3, 2): 0, (3, 3): 351, (5, 1): 5, (5, 2): 50, (5, 3): 875},
    27: {(2, 1): 2, (2, 2): 24, (2, 3): 624, (4, 1): 2, (4, 2): 24, (4, 3): 624,
         (5, 1): 1, (5, 2): 25, (5, 3): 651},
    32: {(3, 1): 1, (3, 2): 30, (5, 1): 1, (5, 2): 30},
    64: {(3, 1): 3, (3, 2): 72, (5, 1): 1, (5, 2): 62},
    81: {(2, 1): 2, (2, 2): 76, (4, 1): 4, (4, 2): 16, (5, 1): 5, (5, 2): 175},
    125: {(2, 1): 2, (2, 2): 120, (3, 1): 1, (3, 2): 123, (4, 1): 4, (4, 2): 96},
}


def test_pinned_prime_power_counts():
    for q, counts in PRIME_POWER_COUNTS.items():
        for (n, r), value in counts.items():
            assert count_fermat_points(n, r, q) == value, (n, r, q)


def test_lefschetz_count_sanity_at_split_primes():
    # over split primes the count agrees with the E-polynomial at uv = q
    for q in (5, 13):
        assert count_fermat_points(2, 2, q) == q - 5


def test_oracle_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        count_fermat_points(2, 2, 6)  # not a prime power
    with pytest.raises(ValidationError):
        count_fermat_points(3, 2, 9)  # gcd(q, n) != 1
    with pytest.raises(ValidationError, match="field size must be an integer"):
        count_fermat_points(2, 2, 13.0)
    for n, r in [(2.0, 1), (2, 1.0), (2, 1e300), ("2", 1), (2, None)]:
        with pytest.raises(ValidationError, match="fermat oracle wants integers"):
            count_fermat_points(n, r, 7)
    with pytest.raises(ValidationError, match="fermat oracle wants integers"):
        point_count_oracle(("fer", 2.0, 2), 7)
    with pytest.raises(OracleBudgetError):
        count_fermat_points(2, 3, 11, budget=10)
    # a bool counts as the integer it stands for, as in the factor constructors
    assert count_fermat_points(2, True, 7) == count_fermat_points(2, 1, 7)


def test_budget_is_checked_before_factoring_q():
    # trial division up to 10**9 runs in one frame, a loop no call count sees
    start = time.process_time()
    with pytest.raises(OracleBudgetError):
        count_fermat_points(2, 1, 10 ** 18 + 3)
    assert time.process_time() - start < 1.0


def test_huge_exponent_costs_no_more_than_its_residue():
    # the multiplicative group of GF(13) has order 12 and 10^9 + 2 = 6 mod 12
    residue, calls = python_calls(lambda: count_fermat_points(6, 1, 13))
    assert python_calls(lambda: count_fermat_points(10 ** 9 + 2, 1, 13), limit=calls)[0] == residue


def test_one_variable_counts_are_a_gcd_with_no_field_table():
    # x^n = 1 has gcd(n, q - 1) roots in the cyclic group GF(q)^*; a table of
    # the q - 1 powers would take ~100 MB at q = 1000003
    tracemalloc.start()
    try:
        count, _ = python_calls(lambda: count_fermat_points(2, 1, 1000003), limit=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 and peak < 1 << 20
    for q in (11, 13, 31, 61):
        for n in range(2, 9):  # every q here is a prime above 8, so coprime to n
            roots = sum(pow(x, n, q) == 1 for x in range(1, q))
            assert count_fermat_points(n, 1, q) == roots, (n, q)


def test_budget_counts_the_entries_of_each_tuple():
    # over GF(2) there is one tuple for every r, but it has r entries; the check
    # makes under 100 Python calls, the enumeration it stops ~10**9
    with pytest.raises(OracleBudgetError, match="1 tuples of 1000000000 entries each"):
        python_calls(lambda: count_fermat_points(3, 10 ** 9, 2), limit=100)
    assert count_fermat_points(3, 9, 2, budget=9) == 1
    with pytest.raises(OracleBudgetError):
        count_fermat_points(3, 9, 2, budget=8)


def test_counts_over_gf2_are_the_parity_of_r():
    # GF(2)^* = {1}, so the one tuple sums to r; the enumeration built an
    # (r + 1)-byte table and an r-fold product, ~3 GB at the budget's r = 10**8
    for n in (3, 5, 7):
        for r in range(1, 13):
            assert count_fermat_points(n, r, 2) == count_fermat_affine(n, r, 2, 1), (n, r)
    assert python_calls(lambda: count_fermat_points(3, 10 ** 8, 2), limit=50)[0] == 0
    with pytest.raises(ValidationError):
        count_fermat_points(2, 3, 2)  # even n is still refused at q = 2


def test_oracle_budget_env_override(monkeypatch):
    monkeypatch.setenv("MOTIVIC_ORACLE_BUDGET", "10")
    with pytest.raises(OracleBudgetError):
        count_fermat_points(2, 2, 13)
    monkeypatch.setenv("MOTIVIC_ORACLE_BUDGET", "1000000")
    assert count_fermat_points(2, 2, 13) == 8


def test_point_count_oracle_factor_interface():
    assert point_count_oracle(("fer", 2, 2), 5) == 0
    with pytest.raises(ValidationError):
        point_count_oracle(("orb", 2), 5)


def test_geometric_chi_differs_from_convention_only_at_odd_r():
    # independent stratification: the literal torus hypersurface has
    # chi = (-1)^(r+1) n^r; the engine's convention fixes -n^r (they agree
    # at r = 2, where all realizations live)
    for n in (2, 3):
        for r in (2, 3, 4):
            assert torus_fermat_chi(n, r) == (-1) ** (r + 1) * n ** r


# --- chi_of_a1 -----------------------------------------------------------------------------

def test_chi_of_measures():
    for n in range(1, 6):
        f = phi_generator(Resolved([(0, power_datum(n))]))
        assert chi_of_a1(f) == 1 - n


def test_chi_of_cross_measure_is_one():
    from conftest import cross_datum
    assert chi_of_a1(phi_generator(Resolved([(0, cross_datum())]))) == 1
