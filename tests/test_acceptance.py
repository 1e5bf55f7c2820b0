"""Acceptance suite: one test per criterion, exact equality throughout.

Run `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines (add -s to also see the printed summaries).
"""

from __future__ import annotations

import random

from motivic import (A1Class, Constant, EPoly, MuClass, Resolved, SmoothProper,
                     a1_star, a1_unit, chi_c, chi_of_a1, count_fermat_points,
                     e_polynomial, forget_action, mul, normalize, phi_generator,
                     phi_measure, star, star_power, ts_check, vanishing_cycles)
from motivic.laurent import LaurentInt

from conftest import GM, L, ONE, cross_datum, orb, power_datum, python_calls
from oracles import circle_minus_axes_count


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS  {text}")


def test_criterion_1_power_family():
    counts = set()
    for n in range(1, 13):
        datum = power_datum(n)
        (phi, phi_regular), calls = python_calls(lambda: vanishing_cycles(datum))
        assert phi == ONE - orb(n)  # n = 1 collapses to zero
        if n == 1:
            assert phi.is_zero()
        assert phi_regular == MuClass.zero()
        assert chi_of_a1(phi_generator(Resolved([(0, datum)]))) == 1 - n
        assert calls <= 100, f"n={n} took {calls} Python calls"
        if n >= 2:
            counts.add(calls)
    assert len(counts) == 1, f"the work grows with n: {sorted(counts)} Python calls"
    report(1, "power-family data give phi = 1 - [mu_n], chi = 1 - n, in the same <= 100 calls each")


def test_criterion_2_cross_example():
    phi, phi_regular = vanishing_cycles(cross_datum())
    assert phi == L
    assert phi_regular == MuClass.zero()
    assert chi_c(phi) == 1
    report(2, "cross datum gives phi = L exactly, chi = 1")


def test_criterion_3_thom_sebastiani_cross_check():
    square = Resolved([(0, power_datum(2))])
    direct = Resolved([(0, cross_datum())])
    result = ts_check(square, square, direct)
    assert result["equal"] is True
    assert result["by_point"] == [{"point": "0", "equal": True}]
    assert a1_star(phi_generator(square), phi_generator(square)) == A1Class({0: L})
    # the expansion behind the equality
    phi = ONE - orb(2)
    expansion = star(ONE, ONE) - 2 * star(ONE, orb(2)) + star(orb(2), orb(2))
    assert star(phi, phi) == expansion == L
    assert star(orb(2), orb(2)) == GM + 2 * orb(2)
    report(3, "ts-check(x^2, y^2, xy) symbolically equal with value {0 -> L}")


def test_criterion_4_convolution_square_and_forgetful_defect():
    square = star(orb(2), orb(2))
    assert square == GM + 2 * orb(2)
    assert forget_action(square) == GM + 4 * ONE
    defect = forget_action(square) - mul(forget_action(orb(2)), forget_action(orb(2)))
    assert defect == GM
    report(4, "star(ORB(2), ORB(2)) = (L-1) + 2 ORB(2); forgetful defect = L - 1")


def test_criterion_5_chi_multiplicativity_on_200_random_pairs():
    rng = random.Random(20250808)

    def random_class():
        kind = rng.randrange(4)
        if kind == 0:
            return MuClass.lefschetz(rng.randrange(-2, 4))
        if kind == 1:
            return MuClass.orbit(rng.randrange(2, 7))
        if kind == 2:
            return MuClass.fermat(rng.randrange(2, 5), rng.randrange(2, 4))
        factors = []
        if rng.random() < 0.8:
            factors.append(("orb", rng.randrange(2, 7)))
        if rng.random() < 0.6:
            factors.append(("FER", rng.randrange(2, 5), rng.randrange(2, 4)))
        coeff = LaurentInt({rng.randrange(-2, 4): rng.choice([1, -1, 2])})
        return normalize([(coeff, factors)])

    for _ in range(200):
        a, b = random_class(), random_class()
        assert chi_c(star(a, b)) == chi_c(a) * chi_c(b)
    report(5, "chi_c(star(a, b)) = chi_c(a) chi_c(b) on 200 randomized pairs")


def test_criterion_6_associativity_and_closed_forms():
    for n in range(2, 5):
        left = orb(n)
        for r in range(2, 5):
            left = star(left, orb(n))
            right = orb(n)
            for _ in range(r - 1):
                right = star(orb(n), right)
            assert left == right
            assert left == star_power(n, r)
            assert chi_c(left) == n ** r
    assert chi_c(MuClass.fermat_trivial(2, 3)) == -8
    report(6, "folds agree in both orders, match closed forms, chi = n^r; chi(fer(2,3)) = -8")


def test_criterion_7_realization_consistency():
    assert e_polynomial(GM) == EPoly({(1, 1): 1, (0, 0): -1})
    for n in range(2, 7):
        g = (n - 1) * (n - 2) // 2
        genus_route = EPoly({(1, 1): 1, (1, 0): -g, (0, 1): -g, (0, 0): 1 - 3 * n})
        cls = MuClass.fermat_trivial(n, 2)
        assert e_polynomial(cls) == genus_route
        assert genus_route.evaluate(1, 1) == -n ** 2
        assert chi_c(cls) == -n ** 2
    report(7, "E(Gm) = uv - 1; genus formula, E(1,1), and chi_c agree at -n^2 for n <= 6")


def test_criterion_8_measure_structure():
    assert phi_measure(((1, SmoothProper()),)) == A1Class.zero()
    relative_lefschetz = ((1, SmoothProper()), (-1, SmoothProper()))
    assert phi_measure(relative_lefschetz) == A1Class.zero()
    assert phi_measure(((1, Constant(0, ONE)),)) == a1_unit()
    plane = MuClass([(LaurentInt({2: 1, 1: 1, 0: 1}), [])])
    blown = MuClass([(LaurentInt({2: 1, 1: 2, 0: 1}), [])])
    lhs = phi_measure(((1, Constant(0, plane)), (-1, Constant(0, ONE))))
    rhs = phi_measure(((1, Constant(0, blown)), (-1, Constant(0, L + ONE))))
    expected = A1Class({0: MuClass([(LaurentInt({2: 1, 1: 1}), [])])})
    assert lhs == rhs == expected
    report(8, "measure kills smooth-proper generators and the relative Lefschetz "
              "presentation; blow-up consistency gives {0 -> L^2 + L}")


def test_criterion_9_oracle_agreement():
    expected = {5: 0, 7: 4, 11: 8, 13: 8}  # q - eta(-1) - 4 from the parametrization
    for q, value in expected.items():
        assert circle_minus_axes_count(q) == value
        assert count_fermat_points(2, 2, q) == value
    report(9, "fer(2,2) point counts match the conic closed form at q = 5, 7, 11, 13")
