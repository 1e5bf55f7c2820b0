from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from motivic.laurent import L, L_MINUS_1, ONE, ONE_MINUS_L, ZERO, LaurentInt

from conftest import laurents


def test_zero_coefficients_are_dropped():
    assert LaurentInt({3: 0, 1: 2, -1: 0}).items() == ((1, 2),)
    assert LaurentInt([(2, 1), (2, -1)]).is_zero()


def test_arithmetic_examples():
    assert L_MINUS_1 + ONE == L
    assert L - 1 == L_MINUS_1
    assert (L_MINUS_1 * ONE_MINUS_L).items() == ((0, -1), (1, 2), (2, -1))
    assert ONE_MINUS_L ** 0 == ONE
    assert ONE_MINUS_L ** 2 == LaurentInt({0: 1, 1: -2, 2: 1})
    assert 2 * L == L + L


def test_negative_exponents():
    inv = LaurentInt.monomial(-1)
    assert (inv * L) == ONE
    assert inv.evaluate(2) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        inv.evaluate(0)


def test_sum_of_coefficients_is_evaluation_at_one():
    c = LaurentInt({-2: 3, 0: -1, 5: 4})
    assert c.sum_of_coefficients() == 6 == c.evaluate(1)


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(L_MINUS_1) == "L - 1"
    assert str(LaurentInt({2: 1, 1: -3})) == "L^2 - 3*L"
    assert str(LaurentInt({-1: 1})) == "L^-1"
    assert str(LaurentInt({2: -1, 0: 1})) == "-L^2 + 1"


@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents())
def test_hash_consistent_with_equality(a):
    assert hash(a) == hash(LaurentInt(dict(a.items())))
