"""The canonical form shared by the value types, against a plain reference.

Keys come from small pools so that equal keys collide and coefficients
cancel.  MuClass keys are normal atoms without opaque factors, so
construction performs no rewriting and the reference is a plain accumulation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from motivic import A1Class, EPoly, LaurentInt, MuClass
from motivic.classes import atom_key
from motivic.laurent import ZERO

NORMAL_ATOMS = [(), (("orb", 2),), (("orb", 3),), (("FER", 3, 2),), (("fer", 3, 2),),
                (("orb", 2), ("fer", 3, 2))]
POINTS = [Fraction(-1), Fraction(0), Fraction(1, 2)]
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
