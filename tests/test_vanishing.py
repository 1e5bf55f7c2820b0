from __future__ import annotations

import copy
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import motivic
from motivic import (A1Class, Constant, DatumValidationError, MuClass, Resolved,
                     SmoothProper, SNCDatum, Stratum, ValidationError, a1_star, a1_to_json,
                     a1_unit, chi_c, chi_of_a1, nearby_fiber, phi_generator, phi_measure,
                     ts_check, validate_datum, vanishing_cycles)
from motivic import convolve, vanishing
from motivic.a1 import point_str
from motivic.jsonio import dumps
from motivic.laurent import LaurentInt

from conftest import (GM, L, ONE, YieldingTable, blowup_datum, cross_datum, orb, power_datum,
                      python_calls, run_in_threads, trivial_classes)


# --- datum validation -------------------------------------------------------------

def test_shipped_data_are_valid():
    assert validate_datum(cross_datum()) == []
    for n in range(1, 8):
        assert validate_datum(power_datum(n)) == []


def test_cover_must_match_base_when_gcd_is_one():
    bad = SNCDatum([("E1", 1)],
                   [Stratum({"E1"}, ONE, 2 * ONE, "singular")],
                   MuClass.zero(), ONE)
    report = validate_datum(bad)
    assert any("m_I = 1" in line for line in report) or \
        any("chi(cover)" in line for line in report)


def test_cover_chi_must_be_gcd_times_base_chi():
    bad = SNCDatum([("E1", 3)],
                   [Stratum({"E1"}, ONE, orb(2), "singular")],
                   MuClass.zero(), ONE)
    assert any("chi(cover)" in line for line in validate_datum(bad))


def test_multi_component_strata_must_be_singular():
    bad = SNCDatum([("E1", 1), ("E2", 1)],
                   [Stratum({"E1", "E2"}, ONE, ONE, "regular")],
                   MuClass.zero(), ONE)
    assert any("not tagged singular" in line for line in validate_datum(bad))


def test_more_defects_are_reported():
    bad = SNCDatum([("E1", 0), ("E1", 2)],
                   [Stratum(set(), ONE, ONE, "odd"),
                    Stratum({"E9"}, ONE, ONE, "regular"),
                    Stratum({"E1"}, orb(2), orb(2), "singular"),
                    Stratum({"E1"}, ONE, ONE, "singular")],
                   orb(2), ONE)
    report = validate_datum(bad)
    assert any("multiplicity" in line for line in report)
    assert any("not distinct" in line for line in report)
    assert "stratum ['E1'] appears twice" in report
    assert any("empty index set" in line for line in report)
    assert any("unknown components" in line for line in report)
    assert any("nontrivial action" in line for line in report)


def test_components_are_not_coerced():
    for components in [[("E1", 2.7)], [("E1", 2.0)], [("E1", "2")], [(5, 1)], [(None, 1)]]:
        with pytest.raises(ValidationError):
            SNCDatum(components, [], MuClass.zero(), ONE)
    # a bool multiplicity is the integer it stands for, as in LaurentInt
    components = SNCDatum([("E1", True)], [], MuClass.zero(), ONE).components
    assert components == (("E1", 1),) and type(components[0][1]) is int


def test_index_sets_are_not_coerced():
    # a string is not split into one-letter ids, and an id is not its text
    for index_set in ["E1", {5}, [None], ("E1", 1)]:
        with pytest.raises(ValidationError):
            Stratum(index_set, ONE, ONE, "singular")
    assert Stratum(["E1", "E2"], ONE, ONE, "singular").index_set == frozenset({"E1", "E2"})


# each record constructor refuses a class field of the wrong type, naming the field
@pytest.mark.parametrize("build, field", [
    (lambda: Stratum({"E1"}, 5, ONE, "singular"), "base_class"),
    (lambda: Stratum({"E1"}, ONE, 5, "singular"), "cover_class"),
    (lambda: SNCDatum([("E1", 1)], [({"E1"}, ONE, ONE, "singular")], MuClass.zero(), ONE),
     "stratum"),
    (lambda: SNCDatum([], [], 5, ONE), "fiber_regular"),
    (lambda: SNCDatum([], [], MuClass.zero(), LaurentInt.from_int(1)), "fiber_singular"),
    (lambda: Constant(0, 5), "fiber_class"),
    (lambda: Resolved([(0, power_datum(2)), (1, 5)]), "critical datum"),
], ids=["stratum base", "stratum cover", "datum stratum", "datum fiber_regular",
        "datum fiber_singular", "constant class", "resolved datum"])
def test_record_constructors_check_their_class_fields(build, field):
    with pytest.raises(ValidationError, match=f"^{field} must be a "):
        build()


def test_a_duplicate_id_reads_the_first_multiplicity():
    # m_I of {"E1"} is 2, from the first ("E1", 2): the cover of chi 2 then matches
    d = SNCDatum([("E1", 2), ("E1", 3)], [Stratum({"E1"}, ONE, orb(2), "singular")],
                 MuClass.zero(), ONE)
    assert validate_datum(d) == ["component ids are not distinct"]
    assert d.stratum_gcd(d.strata[0]) == d.multiplicity("E1") == 2
    with pytest.raises(ValidationError, match="unknown component 'E2'"):
        d.multiplicity("E2")


class _CountingId(str):
    """A component id that counts how often it is hashed or compared."""

    uses = 0

    def __hash__(self):
        _CountingId.uses += 1
        return str.__hash__(self)

    def __eq__(self, other):
        _CountingId.uses += 1
        return str.__eq__(self, other)


def _id_uses_of_validation(n: int) -> int:
    d = blowup_datum(n)  # n + 1 components, 2n + 1 strata of one or two indices
    d = SNCDatum([(_CountingId(i), m) for i, m in d.components],
                 [Stratum({_CountingId(i) for i in s.index_set}, s.base_class, s.cover_class,
                          s.locus) for s in d.strata],
                 d.fiber_regular, d.fiber_singular)
    _CountingId.uses = 0
    assert validate_datum(d) == []
    return _CountingId.uses


def test_validation_is_linear_in_the_components():
    # a scan of the components per index would make these uses quadratic in n
    small, large = _id_uses_of_validation(100), _id_uses_of_validation(200)
    assert large <= 2.2 * small, (small, large)


# --- the records are immutable values ------------------------------------------------

def _record_pairs():
    """Two equal, separately built copies of each record kind."""
    def build():
        return [Stratum({"E1", "E2"}, ONE, ONE, "singular"), cross_datum(),
                Resolved([(0, power_datum(2)), ("1/2", cross_datum())]),
                Constant("-3/4", L), SmoothProper()]
    return list(zip(build(), build()))


def test_equal_records_are_equal_and_hash_equal():
    for a, b in _record_pairs():
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
    assert SmoothProper() == SmoothProper()
    assert len({SmoothProper(), SmoothProper(), Constant(0, ONE), Constant("0/5", ONE)}) == 2


def test_records_of_different_types_are_unequal():
    criticals = [(0, power_datum(2))]
    other = type("OtherResolved", (Resolved,), {})
    assert Resolved(criticals) != other(criticals)
    assert Constant(1, L) != (Fraction(1), L)
    assert SmoothProper() != () and SmoothProper() != Resolved([])
    assert Stratum({"E1"}, ONE, ONE, "singular") != Stratum({"E1"}, ONE, ONE, "regular")


def test_records_refuse_assignment():
    for record, _ in _record_pairs():
        with pytest.raises(AttributeError):
            record.locus = "regular"
        with pytest.raises(AttributeError):
            record.anything = 1
    s = Stratum({"E1"}, ONE, ONE, "singular")
    with pytest.raises(AttributeError):
        del s.locus
    assert s.locus == "singular"


def test_records_build_by_keyword():
    s = Stratum(index_set=["E"], base_class=ONE, cover_class=orb(3), locus="singular")
    d = SNCDatum(components=[("E", 3)], strata=[s], fiber_regular=MuClass.zero(),
                 fiber_singular=ONE)
    assert s.index_set == frozenset({"E"}) and d.strata == (s,) and d.components == (("E", 3),)
    assert d == SNCDatum([("E", 3)], (s,), MuClass.zero(), ONE)
    r = Resolved(criticals=[("1", d), (0, power_datum(2))])
    assert r.criticals == ((Fraction(0), power_datum(2)), (Fraction(1), d))
    c = Constant(value="2/4", fiber_class=L)
    assert (c.value, c.fiber_class) == (Fraction(1, 2), L)


def test_record_repr_shows_the_fields():
    assert repr(SmoothProper()) == "SmoothProper()"
    assert repr(Constant(0, ONE)) == "Constant(value=Fraction(0, 1), fiber_class=MuClass([([], '1')]))"
    assert repr(Stratum(["E1"], ONE, ONE, "singular")) == (
        "Stratum(index_set=frozenset({'E1'}), base_class=MuClass([([], '1')]), "
        "cover_class=MuClass([([], '1')]), locus='singular')")


def test_records_copy_and_pickle_to_equal_values():
    for record, _ in _record_pairs():
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_a_record_hashes_its_fields_once(monkeypatch):
    reads = []
    fields = vanishing._Record._fields
    monkeypatch.setattr(vanishing._Record, "_fields",
                        lambda self: reads.append(self) or fields(self))
    d = cross_datum()
    h = hash(d)
    assert reads[0] is d and len(reads) == 4  # the datum and its three strata
    assert hash(d) == h and len(reads) == 4
    e = cross_datum()
    assert hash(e) == h and reads[4] is e and len(reads) == 8
    assert d == e and e == d and d.strata[2] == e.strata[2]


# data built from a spec, each field of which one mutant below changes
_SPECS = st.fixed_dictionaries({
    "locus": st.sampled_from(["regular", "singular"]),
    "multiplicity": st.integers(1, 3),
    "cover": st.integers(-2, 2),
    "epoly": st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(-1, 1),
                             max_size=2),
    "point": st.tuples(st.integers(-2, 2), st.integers(1, 3)),
    "stratum": st.sampled_from([Stratum, type("OtherStratum", (Stratum,), {})]),
})


def _build(spec: dict) -> list:
    """A stratum, a datum holding it and the generators of each kind, built anew."""
    m = spec["multiplicity"]
    base = ONE + MuClass.opaque("blob", 1, spec["epoly"])
    cover = base + spec["cover"] * orb(m)
    s = spec["stratum"]({"E1"}, base, cover, spec["locus"])
    d = SNCDatum([("E1", m)], [s], MuClass.zero(), ONE)
    point = Fraction(*spec["point"])
    return [s, d, Resolved([(point, d)]), Constant(point, base), SmoothProper()]


def _plain(value):
    """value as plain data: a record, alone or in a tuple, as (its type, its fields)."""
    if isinstance(value, vanishing._Record):
        return value.__class__, tuple(map(_plain, value._fields()))
    return tuple(map(_plain, value)) if value.__class__ is tuple else value


def _agree(a, b) -> None:
    """a == b as their fields compare, nested records field by field, and
    equal records hash equal."""
    assert a is not b
    same = _plain(a) == _plain(b)
    assert (a == b) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)


@given(_SPECS)
def test_copies_compare_as_their_fields(spec):
    for a, b in zip(_build(spec), _build(spec)):
        _agree(a, b)
        assert a == b and hash(a) == hash(b)


@given(_SPECS, _SPECS)
def test_one_field_mutants_compare_as_their_fields(spec, other):
    for field in spec:  # each mutant takes one field from the other spec
        mutant = dict(spec, **{field: other[field]})
        for a, b in zip(_build(spec), _build(mutant)):
            _agree(a, b)
            _agree(b, a)


def test_a_warm_call_finds_phi_on_the_datum():
    d = blowup_datum(3)
    found = vanishing_cycles(d)
    again, calls = python_calls(lambda: vanishing_cycles(d))
    assert again is found and calls <= 2, calls  # the lambda and vanishing_cycles


def test_a_memoized_datum_is_the_value_it_was():
    # the memo is no field: it shows in no comparison, hash, repr or pickle, and
    # a copy or a pickled datum does not carry it
    def odd():  # a datum whose id is of a str subclass
        return SNCDatum([(_CountingId("E1"), 3)], [Stratum({"E1"}, ONE, orb(3), "singular")],
                        MuClass.zero(), ONE)

    for build in (lambda: blowup_datum(4), odd):
        d, fresh = build(), build()
        shown, pickled = repr(d), pickle.dumps(d)
        found = vanishing_cycles(d)
        assert vanishing_cycles(d) is found and found == vanishing._cycles(fresh)
        assert d == fresh and fresh == d and hash(d) == hash(fresh)
        assert d._fields() == fresh._fields()
        assert repr(d) == repr(fresh) == shown
        assert pickle.dumps(d) == pickle.dumps(fresh) == pickled
        for other in (pickle.loads(pickled), copy.copy(d), copy.deepcopy(d)):
            assert other == d and not hasattr(other, "_memo")


def test_a_record_subclass_with_empty_slots_keeps_its_fields():
    X = type("X", (Stratum,), {"__slots__": ()})
    a = X({"E1"}, ONE, ONE, "singular")
    assert a.locus == "singular" and a == X({"E1"}, ONE, ONE, "singular")
    assert a != X({"E2"}, MuClass.zero(), ONE, "regular")
    assert a != X({"E1"}, ONE, ONE, "regular") and a != Stratum({"E1"}, ONE, ONE, "singular")
    assert repr(a) == (f"X(index_set=frozenset({{'E1'}}), base_class={ONE!r}, "
                       f"cover_class={ONE!r}, locus='singular')")
    assert copy.deepcopy(a) == a and copy.deepcopy(a)._fields() == a._fields()


def test_an_unhashable_field_makes_the_hash_raise():
    s = Stratum({"E1"}, ONE, ONE, ["singular"])  # a list locus, as JSON can give
    with pytest.raises(TypeError):
        hash(s)
    with pytest.raises(TypeError):
        hash(SNCDatum([("E1", 1)], [s], MuClass.zero(), ONE))


def test_operations_refuse_invalid_data():
    bad = SNCDatum([("E1", 1)], [Stratum({"E1"}, ONE, 2 * ONE, "singular")],
                   MuClass.zero(), ONE)
    with pytest.raises(DatumValidationError):
        nearby_fiber(bad)
    with pytest.raises(DatumValidationError):
        vanishing_cycles(bad)
    with pytest.raises(DatumValidationError):
        phi_generator(Resolved([(0, bad)]))
    with pytest.raises(DatumValidationError):
        phi_measure(((2, Resolved([(1, bad)])),))


# --- nearby fiber and vanishing cycles ------------------------------------------------

def test_power_family_nearby_and_vanishing():
    for n in range(2, 9):
        d = power_datum(n)
        assert nearby_fiber(d) == orb(n)
        phi, phi_regular = vanishing_cycles(d)
        assert phi == ONE - orb(n)
        assert phi_regular == MuClass.zero()


def test_cross_nearby_and_vanishing():
    d = cross_datum()
    assert nearby_fiber(d) == GM
    phi, phi_regular = vanishing_cycles(d)
    assert phi == L
    assert phi_regular == MuClass.zero()


def test_smooth_fiber_datum_gives_zero():
    c = GM + 3 * ONE
    d = SNCDatum([("E1", 1)], [Stratum({"E1"}, c, c, "regular")], c, MuClass.zero())
    assert validate_datum(d) == []
    assert nearby_fiber(d) == c
    phi, phi_regular = vanishing_cycles(d)
    assert phi == MuClass.zero()
    assert phi_regular == MuClass.zero()


def test_phi_plus_phi_regular_is_fiber_minus_nearby():
    for d in [cross_datum(), power_datum(4)]:
        phi, phi_regular = vanishing_cycles(d)
        assert phi + phi_regular == (d.fiber_regular + d.fiber_singular) - nearby_fiber(d)


def _squared_line_datum(regular_base):
    """x^2 y-type scenario: a multiplicity-2 line of critical points plus a
    transverse multiplicity-1 component; the regular side is swappable."""
    return SNCDatum(
        components=[("E1", 2), ("E2", 1)],
        strata=[Stratum({"E1"}, GM, GM, "singular"),
                Stratum({"E2"}, regular_base, regular_base, "regular"),
                Stratum({"E1", "E2"}, ONE, ONE, "singular")],
        fiber_regular=regular_base,
        fiber_singular=L)


def test_phi_depends_only_on_singular_inputs():
    # compactification invariance regression: same singular strata, different
    # regular side, same phi
    d1 = _squared_line_datum(GM)
    d2 = _squared_line_datum(GM + 5 * ONE)
    assert validate_datum(d1) == [] and validate_datum(d2) == []
    assert vanishing_cycles(d1)[0] == vanishing_cycles(d2)[0] == L
    assert vanishing_cycles(d1)[1] == MuClass.zero()


# --- generators and the measure ----------------------------------------------------------

def test_resolved_generator_measures_its_criticals():
    g = Resolved([(0, power_datum(2))])
    assert phi_generator(g) == A1Class({0: ONE - orb(2)})


def test_resolved_rejects_duplicate_criticals():
    with pytest.raises(ValidationError):
        Resolved([(0, power_datum(2)), ("0/1", power_datum(3))])


@pytest.mark.parametrize("first, second", itertools.combinations(["1/2", "2/4", Fraction(1, 2)], 2))
def test_resolved_refuses_one_value_written_two_ways(first, second):
    criticals = [(first, power_datum(2)), (-1, power_datum(2)), (second, power_datum(3))]
    with pytest.raises(ValidationError, match="^critical values must be pairwise distinct$"):
        Resolved(criticals)


def test_resolved_orders_values_closer_than_its_sort_key_tells_apart():
    # the three values floor to one multiple of 2**-64, so their order is the
    # exact comparison that breaks the key's tie
    base = Fraction(5, 2**64)
    low, mid, high = base + Fraction(1, 2**67), base + Fraction(1, 2**66), base + Fraction(1, 2**65)
    assert len({(p.numerator << 64) // p.denominator for p in (low, mid, high)}) == 1
    data = {p: power_datum(n) for p, n in ((low, 2), (mid, 3), (high, 4))}
    g = Resolved([(high, data[high]), (low, data[low]), (point_str(mid), data[mid])])
    assert g.criticals == ((low, data[low]), (mid, data[mid]), (high, data[high]))
    assert all(d is data[p] for p, d in g.criticals)
    with pytest.raises(ValidationError, match="pairwise distinct"):
        Resolved([(high, data[high]), (low, data[low]), (high, data[mid])])


def test_constant_generator():
    p2 = MuClass([(LaurentInt({2: 1, 1: 1, 0: 1}), [])])
    g = Constant(0, p2)
    assert phi_generator(g) == A1Class({0: p2})
    with pytest.raises(ValidationError):
        Constant(0, orb(2))


def test_smooth_proper_generator_vanishes():
    assert phi_generator(SmoothProper()) == A1Class.zero()


def test_measure_unit_presentation():
    assert phi_measure(((1, Constant(0, ONE)),)) == a1_unit()


def test_measure_blowup_consistency():
    p2 = MuClass([(LaurentInt({2: 1, 1: 1, 0: 1}), [])])
    p2_blown = MuClass([(LaurentInt({2: 1, 1: 2, 0: 1}), [])])
    line_plus_point = L + ONE
    lhs = phi_measure(((1, Constant(0, p2)), (-1, Constant(0, ONE))))
    rhs = phi_measure(((1, Constant(0, p2_blown)), (-1, Constant(0, line_plus_point))))
    expected = A1Class({0: MuClass([(LaurentInt({2: 1, 1: 1}), [])])})
    assert lhs == rhs == expected


def test_measure_kills_the_relative_lefschetz_presentation():
    # [line x projective line] - [line], both fiberwise smooth and proper
    pres = ((1, SmoothProper()), (-1, SmoothProper()))
    assert phi_measure(pres) == A1Class.zero()


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_measure_is_additive(c1, c2):
    g1 = (c1, Resolved([(0, power_datum(2))]))
    g2 = (c2, Constant(1, L))
    assert phi_measure((g1, g2)) == phi_measure((g1,)) + phi_measure((g2,))


def _measured_data(k: int) -> list:
    """The data of a presentation's k-th generator, built anew: the cross, and
    one of four mutants of it in one field each, the first two of equal phi."""
    base = cross_datum()
    fields = dict(zip(base._names, base._fields()))
    name, value = [("components", base.components[::-1]), ("strata", base.strata[::-1]),
                   ("fiber_regular", 3 * GM), ("fiber_singular", 2 * ONE)][k % 4]
    return [base, SNCDatum(**dict(fields, **{name: value}))]


def test_a_parsed_presentation_validates_each_distinct_datum_once(monkeypatch):
    built = tuple((k % 3 - 1 or 2, Resolved(zip((k, Fraction(2 * k + 1, 2)), _measured_data(k))))
                  for k in range(20))
    doc = motivic.presentation_to_json(built)
    parsed = motivic.presentation_from_json(doc)
    data = [d for _, g in parsed for _, d in g.criticals]
    # 20 copies of the cross and 5 of each mutant: one object per equal datum
    distinct = list({id(d): d for d in data}.values())
    assert distinct == [d for k in range(4) for d in _measured_data(k)[k > 0:]]
    assert all((a is b) is (a == b) for a in data for b in data)
    calls = _counting_validation(monkeypatch)
    measure = phi_measure(parsed)
    assert list(map(id, calls)) == list(map(id, distinct))
    assert measure == phi_measure(built) and len(calls) == 5 + 40  # each built datum alone
    again = [d for _, g in motivic.presentation_from_json(doc) for _, d in g.criticals]
    assert again == data and not set(map(id, again)) & set(map(id, data))


# --- Thom-Sebastiani checks ---------------------------------------------------------------

def test_ts_check_square_times_square_is_the_cross():
    g = Resolved([(0, power_datum(2))])
    direct = Resolved([(0, cross_datum())])
    report = ts_check(g, g, direct)
    assert report["equal"] is True
    assert report["by_point"] == [{"point": "0", "equal": True}]


@pytest.mark.parametrize("n", range(2, 9))
def test_ts_check_of_two_powers_against_the_blowup_of_their_sum(n):
    # checks P4 on every n through data written down from geometry
    d = blowup_datum(n)
    assert validate_datum(d) == []
    assert vanishing_cycles(d)[1].is_zero()
    g = Resolved([(0, power_datum(n))])
    report = ts_check(g, g, Resolved([(0, d)]))
    assert report == {"equal": True, "by_point": [{"point": "0", "equal": True}]}


def test_ts_check_against_constant_unit():
    g = Resolved([(0, power_datum(3))])
    report = ts_check(g, Constant(0, ONE), g)
    assert report["equal"] is True


def test_ts_check_translation_by_constant():
    g = Resolved([(0, power_datum(2))])
    translated = Constant(1, ONE)
    expected = Resolved([(1, power_datum(2))])
    report = ts_check(g, translated, expected)
    assert report["equal"] is True
    assert report["by_point"] == [{"point": "1", "equal": True}]


def test_ts_check_reports_disagreement_per_point():
    g = Resolved([(0, power_datum(2))])
    wrong = Resolved([(0, power_datum(3))])
    report = ts_check(g, Constant(0, ONE), wrong)
    assert report["equal"] is False
    assert report["by_point"] == [{"point": "0", "equal": False}]


def _reference_ts_check(g_v, g_w, direct) -> dict:
    """The reference for ts_check's merge: the sorted union of both sides'
    points, and a dict of each side's fibers."""
    lhs = a1_star(phi_generator(g_v), phi_generator(g_w))
    left, right = dict(lhs.support()), dict(phi_generator(direct).support())
    points = sorted([*left, *(p for p in right if p not in left)])
    by_point = [{"point": point_str(p), "equal": left.get(p) == right.get(p)} for p in points]
    return {"equal": all(x["equal"] for x in by_point), "by_point": by_point}


_TINY = Fraction(1, 2 ** 70)
# points within 2**-64 of each other share floor(p * 2**64), the key the line sorts by first
_TS_POINTS = [Fraction(0), _TINY, -_TINY, Fraction(1, 3), Fraction(1, 3) + 4 * _TINY,
              Fraction(-1, 2), Fraction(2), Fraction(7, 5), Fraction(-9, 4)]
_TS_DATA = (lambda: power_datum(2), lambda: power_datum(3), cross_datum)


@st.composite
def ts_cases(draw) -> tuple:
    """g_v over some points, g_w a point translating them, and a direct
    generator over other points: some on one side only, some on both with
    the same datum (equal fibers) and some on both with any datum."""
    shift = draw(st.sampled_from([Fraction(0), _TINY, Fraction(1, 3)]))
    left = draw(st.lists(st.sampled_from(_TS_POINTS), unique=True, max_size=4))
    data = {p + shift: draw(st.sampled_from(_TS_DATA)) for p in left}
    right = []
    for p in draw(st.lists(st.sampled_from(_TS_POINTS), unique=True, max_size=4)):
        same = p in data and draw(st.booleans())
        right.append((p, (data[p] if same else draw(st.sampled_from(_TS_DATA)))()))
    g_v = Resolved([(p, build()) for p, build in zip(left, data.values())])
    return g_v, Constant(shift, ONE), Resolved(right)


@given(ts_cases())
def test_ts_check_lines_up_the_sides_as_the_sorted_union_did(case):
    assert dumps(ts_check(*case)) == dumps(_reference_ts_check(*case))


def test_ts_check_reports_each_kind_of_point():
    one_only, shared, differs, near = Fraction(-1, 2), Fraction(1, 3), Fraction(2), _TINY
    g_v = Resolved([(one_only, power_datum(2)), (near, power_datum(3)),
                    (shared, power_datum(2)), (differs, power_datum(2))])
    direct = Resolved([(0, power_datum(3)), (shared, power_datum(2)), (differs, cross_datum()),
                       (Fraction(7, 5), power_datum(2))])
    report = ts_check(g_v, Constant(0, ONE), direct)
    assert report == _reference_ts_check(g_v, Constant(0, ONE), direct)
    assert report == {"equal": False, "by_point": [
        {"point": "-1/2", "equal": False}, {"point": "0", "equal": False},
        {"point": "1/1180591620717411303424", "equal": False}, {"point": "1/3", "equal": True},
        {"point": "7/5", "equal": False}, {"point": "2", "equal": False}]}


def test_ts_check_hashes_no_fraction(monkeypatch):
    # line-measure's two shapes of case: x^2 + y^2 against the cross, and a translate
    p, q = Fraction(-3, 7), Fraction(5, 4)
    cases = [(Resolved([(p, power_datum(2))]), Resolved([(q, power_datum(2))]),
              Resolved([(p + q, cross_datum())])),
             (Resolved([(p, power_datum(4))]), Constant(q, ONE),
              Resolved([(p + q, power_datum(4))]))]
    hashes = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda f: hashes.append(f) or fraction_hash(f))
    for _ in range(2):  # cold, then with each phi kept on its datum
        assert [ts_check(*case)["equal"] for case in cases] == [True, True]
    assert hashes == []


def test_chi_is_multiplicative_across_ts_pairs():
    pairs = [(Resolved([(0, power_datum(2))]), Resolved([(0, power_datum(5))])),
             (Resolved([(0, cross_datum())]), Constant(2, L)),
             (SmoothProper(), Resolved([(0, power_datum(3))]))]
    for g_v, g_w in pairs:
        lhs = chi_of_a1(a1_star(phi_generator(g_v), phi_generator(g_w)))
        assert lhs == chi_of_a1(phi_generator(g_v)) * chi_of_a1(phi_generator(g_w))


# --- phi kept on the datum -----------------------------------------------------------------

@st.composite
def valid_data(draw) -> SNCDatum:
    """Valid data of up to three components, with orbit and opaque covers."""
    multiplicities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ids = [f"E{i}" for i in range(len(multiplicities))]
    subsets = [c for k in range(1, len(ids) + 1) for c in itertools.combinations(ids, k)]
    strata = []
    for index_set in draw(st.lists(st.sampled_from(subsets), unique=True, max_size=4)):
        m = math.gcd(*(multiplicities[ids.index(i)] for i in index_set))
        base = draw(trivial_classes())
        covers = [base * orb(m), MuClass.opaque("cover", m * chi_c(base)),
                  MuClass.opaque("curve", m * chi_c(base) + 1, {(0, 0): 2}) - ONE]
        cover = base if m == 1 else draw(st.sampled_from(covers))
        locus = "singular" if len(index_set) > 1 else draw(st.sampled_from(vanishing.LOCUS_TAGS))
        strata.append(Stratum(index_set, base, cover, locus))
    d = SNCDatum(list(zip(ids, multiplicities)), strata,
                 draw(trivial_classes()), draw(trivial_classes()))
    assert validate_datum(d) == []
    return d


@given(st.lists(valid_data(), min_size=1, max_size=4))
def test_a_warm_table_gives_what_a_cold_one_gives(data):
    def results(data):
        pres = [(k + 1, Resolved([(k, d)])) for k, d in enumerate(data)]
        return ([vanishing_cycles(d) for d in data], [phi_generator(g) for _, g in pres],
                dumps(a1_to_json(phi_measure(pres))))

    convolve._rules.clear()
    cold = results(data)
    warm = results(data)  # each phi found on its datum, each rule in the table
    copies = results([copy.deepcopy(d) for d in data])  # equal copies, computed again
    assert warm == cold and copies == cold
    assert cold[0] == [vanishing._cycles(d) for d in data]


def _counting_validation(monkeypatch) -> list:
    calls: list = []
    monkeypatch.setattr(vanishing, "validate_datum",
                        lambda d: calls.append(d) or validate_datum(d))
    return calls


def test_each_datum_object_is_validated_once(monkeypatch):
    calls = _counting_validation(monkeypatch)
    square, node, cube = power_datum(2), cross_datum(), power_datum(3)
    assert ts_check(Resolved([(0, square)]), Resolved([(0, square)]),
                    Resolved([(0, node)]))["equal"] is True
    phi_generator(Resolved([(1, square)]))
    phi_measure([(2, Resolved([(0, cube), (1, node)]))])
    assert ts_check(Resolved([(0, cube)]), Constant(1, ONE), Resolved([(1, cube)]))["equal"] is True
    vanishing_cycles(node)
    assert list(map(id, calls)) == list(map(id, (square, node, cube)))
    # an equal but distinct datum keeps its own phi, so it is validated again
    assert vanishing_cycles(cross_datum()) == vanishing_cycles(node)
    assert calls == [square, node, cube, node] and calls[3] is not node


def test_invalid_and_unhashable_data_are_never_kept(monkeypatch):
    calls = _counting_validation(monkeypatch)
    bad = SNCDatum([("E1", 1)], [Stratum({"E1"}, ONE, 2 * ONE, "singular")], MuClass.zero(), ONE)
    unhashable = SNCDatum([("E1", 2)], [Stratum({"E1"}, ONE, orb(2), ["singular"])],
                          MuClass.zero(), ONE)
    errors = [(bad, DatumValidationError,
               "stratum ['E1']: chi(cover) = 2 differs from m_I * chi(base) = 1 * 1; "
               "stratum ['E1'] has m_I = 1 but cover differs from base"),
              (unhashable, DatumValidationError, "stratum ['E1'] has bad locus tag ['singular']"),
              ([], ValidationError, "datum must be a SNCDatum, got []"),
              (None, ValidationError, "datum must be a SNCDatum, got None")]
    for _ in range(2):
        for d, error, text in errors:
            with pytest.raises(error) as raised:
                vanishing_cycles(d)
            assert str(raised.value) == text
            if not isinstance(d, SNCDatum):  # Resolved refuses a datum that is none
                with pytest.raises(ValidationError, match="^critical datum must be a SNCDatum"):
                    Resolved([(0, d)])
                continue
            with pytest.raises(error) as raised:
                phi_measure([(1, Resolved([(0, d)]))])
            assert str(raised.value) == text
    assert len(calls) == 12 and not hasattr(bad, "_memo") and not hasattr(unhashable, "_memo")


def test_threads_sharing_the_table_get_serial_results(monkeypatch):
    def build():
        data = [power_datum(n) for n in range(2, 6)] + [cross_datum(), blowup_datum(2)]
        gens = [Resolved([(k, d)]) for k, d in enumerate(data)]
        return data, [(g, h, Constant(0, ONE)) for g in gens for h in gens]

    data, cases = build()
    serial = [(vanishing_cycles(d), ts_check(*case)) for d, case in zip(data * 6, cases)]
    # new data, so the threads race to keep each phi on the datum they share,
    # and a rule table a few rules fill, so its clears race the reads
    data, cases = build()
    monkeypatch.setattr(convolve, "_rules", YieldingTable(512))
    results: list = [None] * 4

    def work(k):
        order = list(range(len(cases)))
        order = order[k:] + order[:k]
        out = [None] * len(cases)
        for _ in range(5):
            for i in order:
                out[i] = (vanishing_cycles(data[i % len(data)]), ts_check(*cases[i]))
        results[k] = out

    run_in_threads(work)
    assert results == [serial] * 4
    assert [d._memo for d in data] == [phis for phis, _ in serial[:len(data)]]


def test_a_second_import_of_the_engine_frees_the_first():
    # a class named in a typing alias stays in typing's cache, and with it the
    # module's globals and the tables they hold
    script = """
import gc, sys, weakref
import motivic
from motivic.vanishing import Resolved
first = weakref.ref(Resolved)
del Resolved, motivic
for name in [m for m in sys.modules if m == "motivic" or m.startswith("motivic.")]:
    del sys.modules[name]
import motivic
gc.collect()
sys.exit(first() is not None)
"""
    src = str(Path(motivic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
