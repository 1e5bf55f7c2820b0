from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from motivic import (A1Class, Constant, DatumValidationError, MuClass, Resolved,
                     SmoothProper, SNCDatum, Stratum, ValidationError, a1_unit,
                     chi_of_a1, nearby_fiber, phi_generator, phi_measure, ts_check,
                     validate_datum, vanishing_cycles)
from motivic import vanishing
from motivic.laurent import L_MINUS_1, LaurentInt

from conftest import blowup_datum, cross_datum, power_datum

ONE = MuClass.one()
L = MuClass.lefschetz()
GM = MuClass.from_coeff(L_MINUS_1)


def orb(d):
    return MuClass.orbit(d)


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
                    Stratum({"E1"}, orb(2), orb(2), "singular")],
                   orb(2), ONE)
    report = validate_datum(bad)
    assert any("multiplicity" in line for line in report)
    assert any("not distinct" in line for line in report)
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


def test_a_duplicate_id_reads_the_first_multiplicity():
    # m_I of {"E1"} is 2, from the first ("E1", 2): the cover of chi 2 then matches
    d = SNCDatum([("E1", 2), ("E1", 3)], [Stratum({"E1"}, ONE, orb(2), "singular")],
                 MuClass.zero(), ONE)
    assert validate_datum(d) == ["component ids are not distinct"]
    assert d.stratum_gcd(d.strata[0]) == d.multiplicity("E1") == 2


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
    calls = []
    fields = vanishing._Record._fields
    monkeypatch.setattr(vanishing._Record, "_fields", lambda self: calls.append(self) or fields(self))
    d = cross_datum()
    h = hash(d)
    assert calls[0] is d and len(calls) == 4  # the datum and its three strata
    assert hash(d) == h and len(calls) == 4


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


def test_measure_validates_each_distinct_datum_once(monkeypatch):
    calls = []
    monkeypatch.setattr(vanishing, "validate_datum",
                        lambda d: calls.append(d) or validate_datum(d))
    shared = power_datum(3)
    pres = [(1, Resolved([(k, shared), (k + 1, cross_datum())])) for k in range(20)]
    measure = phi_measure(pres)
    assert calls == [shared, cross_datum()]  # one shared object, and 20 equal copies
    assert measure == sum((phi_generator(g) for _, g in pres), A1Class.zero())


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


def test_chi_is_multiplicative_across_ts_pairs():
    pairs = [(Resolved([(0, power_datum(2))]), Resolved([(0, power_datum(5))])),
             (Resolved([(0, cross_datum())]), Constant(2, L)),
             (SmoothProper(), Resolved([(0, power_datum(3))]))]
    from motivic import a1_star
    for g_v, g_w in pairs:
        lhs = chi_of_a1(a1_star(phi_generator(g_v), phi_generator(g_w)))
        assert lhs == chi_of_a1(phi_generator(g_v)) * chi_of_a1(phi_generator(g_w))
