"""The measure against blow-ups of surface data.

Bittner's blow-up relations present K_0(Var_{A^1}) (Compositio Math. 140,
2004): blowing a family X up at a point of its fiber over c gives
[Bl] - [E] = [X] - [point], E = P^1 the exceptional curve.  The measure must
send that relation to zero.  Blowing up a point of a resolution's singular
locus changes the resolution but not the family, so phi must not change.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from motivic import (A1Class, Constant, MuClass, Resolved, phi_measure, presentation_to_json,
                     ts_check, validate_datum, vanishing_cycles)
from motivic.cli import run

from conftest import blowup_datum, cross_datum, power_datum
from oracles import blow_up, blow_up_regular_point

# a multiplicity-one component with a regular stratum: each D_j of x^n + y^n
# blown up, and each line of the coordinate cross
REGULAR_POINTS = ([(blowup_datum(n), f"D{j}") for n in range(2, 6) for j in range(1, n + 1)]
                  + [(cross_datum(), "E1"), (cross_datum(), "E2")])
STARTS = ([blowup_datum(n) for n in range(2, 5)] + [power_datum(n) for n in range(1, 6)]
          + [cross_datum()])


def bittner(x, bl, c):
    """[Bl] - [E] - [X] + [point], all over c."""
    one = MuClass.one()
    return ((1, Resolved([(c, bl)])), (-1, Constant(c, MuClass.lefschetz() + one)),
            (-1, Resolved([(c, x)])), (1, Constant(c, one)))


@given(st.sampled_from(REGULAR_POINTS), st.fractions())
def test_the_measure_keeps_bittners_blow_up_relation(case, c):
    x, component = case
    bl = blow_up_regular_point(x, component, "B")
    assert validate_datum(bl) == []
    assert vanishing_cycles(bl)[1] == MuClass.zero()
    assert phi_measure(bittner(x, bl, c)) == A1Class.zero()


def test_the_cli_measures_bittners_relation_as_zero(tmp_path, capsys):
    x = cross_datum()
    path = tmp_path / "bittner.json"
    path.write_text(json.dumps(presentation_to_json(
        bittner(x, blow_up_regular_point(x, "E1", "B"), Fraction(3, 2)))), encoding="utf-8")
    assert run(["measure", str(path)]) == 0
    assert capsys.readouterr().out == '{"support":[]}\n'


@given(st.sampled_from(STARTS), st.data())
def test_phi_does_not_depend_on_the_resolution(start, data):
    expected, datum = vanishing_cycles(start), start
    for k in range(data.draw(st.integers(1, 5))):
        # a stratum with no point left has none to blow up
        points = sorted((s.index_set for s in datum.strata
                         if s.locus == "singular" and s.base_class), key=sorted)
        datum = blow_up(datum, data.draw(st.sampled_from(points)), f"B{k}")
        assert validate_datum(datum) == []
        assert vanishing_cycles(datum) == expected


@pytest.mark.parametrize("index_set", [{"E"}, {"E", "D1"}], ids=["E", "E-D1"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_thom_sebastiani_holds_on_a_blown_up_resolution(n, index_set):
    power = Resolved([(0, power_datum(n))])
    direct = Resolved([(0, blow_up(blowup_datum(n), index_set, "B"))])
    assert ts_check(power, power, direct)["equal"]
