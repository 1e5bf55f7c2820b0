"""The canonical form shared by the value types, against a plain reference.

Keys come from small pools so that equal keys collide and coefficients
cancel.  MuClass keys are normal atoms without opaque factors, so
construction performs no rewriting and the reference is a plain accumulation.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from motivic import A1Class, EPoly, LaurentInt, MuClass, tensor
from motivic.laurent import ZERO

from test_atom_order import atom_key

NORMAL_ATOMS = [(), (("orb", 2),), (("orb", 3),), (("FER", 3, 2),), (("fer", 3, 2),),
                (("orb", 2), ("fer", 3, 2))]
# 1/3 and the points within 2**-64 of it share floor(p * 2**64), A1Class's first sort key
POINTS = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1, 3),
          Fraction(1, 3) + Fraction(1, 2 ** 70), Fraction(1, 3) - Fraction(1, 2 ** 70),
          Fraction(-7, 10 ** 9 + 7)]
SMALL_INTS = st.integers(-2, 2)
COEFFS = st.lists(st.tuples(st.integers(-1, 1), SMALL_INTS), max_size=2).map(LaurentInt)
FIBERS = st.lists(st.tuples(st.sampled_from(NORMAL_ATOMS[:3]), SMALL_INTS),
                  max_size=2).map(lambda items: MuClass([(c, a) for a, c in items]))

# name -> (strategy for (key, coefficient) items, constructor, accessor, zero, sort key)
TYPES = {
    "LaurentInt": (st.tuples(st.integers(-2, 2), SMALL_INTS), LaurentInt,
                   LaurentInt.items, 0, None),
    "EPoly": (st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)), SMALL_INTS), EPoly,
              EPoly.items, 0, None),
    "MuClass": (st.tuples(st.sampled_from(NORMAL_ATOMS), COEFFS),
                lambda items: MuClass([(c, a) for a, c in items]), MuClass.terms, ZERO,
                lambda term: atom_key(term[0])),
    "A1Class": (st.tuples(st.sampled_from(POINTS), FIBERS), A1Class, A1Class.support,
                MuClass.zero(), None),
}


def reference(items, zero, sort_key):
    acc = {}
    for key, coeff in items:
        acc[key] = acc.get(key, zero) + coeff
    return tuple(sorted(((k, c) for k, c in acc.items() if c), key=sort_key))


@pytest.mark.parametrize("name", TYPES)
@given(data=st.data())
def test_construction_matches_the_reference(name, data):
    item, build, terms, zero, sort_key = TYPES[name]
    items = data.draw(st.lists(item, max_size=8))
    assert terms(build(items)) == reference(items, zero, sort_key)


@pytest.mark.parametrize("name", TYPES)
@given(data=st.data())
def test_additive_group_laws(name, data):
    item, build, _, _, _ = TYPES[name]
    x, y = (build(data.draw(st.lists(item, max_size=6))) for _ in range(2))
    assert x + y == y + x
    assert (x + y) - y == x
    assert hash((x + y) - y) == hash(x)
    assert -(-x) == x
    assert (x - x).is_zero() and not (x - x)


# --- foreign operands --------------------------------------------------------------

FOREIGN = st.one_of(st.text(max_size=2), st.floats(), st.fractions(), st.none(),
                    st.lists(st.integers(), max_size=2), st.tuples(st.integers()))
OPERATORS = [operator.add, operator.sub, operator.mul, operator.pow]


def _bi_classes(data):
    x, y = (data.draw(FIBERS) for _ in range(2))
    return tensor(x, y)


def test_an_integral_fraction_exponent_is_a_type_error():
    # Fraction.__rpow__ would turn L ** Fraction(n) into L ** n
    for n in (Fraction(0), Fraction(-1), Fraction(2)):
        with pytest.raises(TypeError):
            LaurentInt({1: 1}) ** n
    with pytest.raises(ValueError):
        LaurentInt({1: 1}) ** -1


@pytest.mark.parametrize("name", [*TYPES, "BiClass"])
@given(data=st.data(), foreign=FOREIGN)
def test_a_foreign_operand_is_a_type_error_on_either_side(name, data, foreign):
    if name == "BiClass":
        value = _bi_classes(data)
    else:
        item, build, _, _, _ = TYPES[name]
        value = build(data.draw(st.lists(item, max_size=3)))
    for op in OPERATORS:
        for args in ((value, foreign), (foreign, value)):
            with pytest.raises(TypeError):
                op(*args)


def test_a_negative_power_is_still_a_value_error():
    with pytest.raises(ValueError):
        LaurentInt({1: 1}) ** -1
