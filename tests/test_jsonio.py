from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from motivic import (A1Class, Constant, MuClass, ParseError, Resolved, SmoothProper,
                     ValidationError, a1_from_json, a1_to_json, class_from_json,
                     class_to_json, datum_from_json, datum_to_json,
                     generator_from_json, generator_to_json, presentation_from_json,
                     presentation_to_json, pretty)
from motivic.jsonio import dumps
from motivic.laurent import L_MINUS_1, LaurentInt

from conftest import cross_datum, mu_classes, power_datum

ONE = MuClass.one()
L = MuClass.lefschetz()


def orb(d):
    return MuClass.orbit(d)


@given(mu_classes())
def test_class_roundtrip(c):
    assert class_from_json(class_to_json(c)) == c


@given(mu_classes())
def test_serialization_is_canonical(c):
    blob = dumps(class_to_json(c))
    assert dumps(class_to_json(class_from_json(json.loads(blob)))) == blob


def test_class_wire_format():
    c = MuClass.from_coeff(L_MINUS_1) + 2 * orb(2)
    assert class_to_json(c) == {
        "terms": [{"coeff": {"0": -1, "1": 1}, "factors": []},
                  {"coeff": {"0": 2}, "factors": [{"orb": 2}]}]}


def test_class_parse_accepts_all_factor_kinds():
    obj = {"terms": [
        {"coeff": {"-1": 1}, "factors": [{"FER": [3, 2]}, {"fer": [4, 2]}]},
        {"coeff": {"0": 2}, "factors": [{"gm": 3}]},
        {"coeff": {"0": 1}, "factors": [{"opq": {"tag": "t", "chi": 5,
                                                 "epoly": {"(1,1)": 1}}}]},
    ]}
    c = class_from_json(obj)
    assert not c.is_zero()
    # gm was rewritten away and never serializes back
    assert "gm" not in dumps(class_to_json(c))


def test_parse_errors_are_parse_errors():
    for bad in [42, {"terms": 1}, {"terms": [{"factors": []}]},
                {"terms": [{"coeff": {"x": 1}}]},
                {"terms": [{"coeff": {}, "factors": [{"zzz": 1}]}]},
                {"terms": [{"coeff": {}, "factors": [{"fer": [2]}]}]}]:
        with pytest.raises(ParseError):
            class_from_json(bad)


_CLASS = {"terms": []}
_DATUM = {"components": [{"id": "E", "m": 1}],
          "strata": [{"I": ["E"], "base": _CLASS, "cover": _CLASS, "locus": "singular"}],
          "fiber_regular": _CLASS, "fiber_singular": _CLASS}


@pytest.mark.parametrize("parse, doc, what, missing", [
    (class_from_json, {}, "class", "terms"),
    (class_from_json, {"terms": [{"factors": []}]}, "term", "coeff"),
    (class_from_json, {"terms": [{"coeff": {}, "factors": [{"opq": {"tag": "t"}}]}]},
     "opq factor", "chi"),
    (a1_from_json, {"terms": []}, "line class", "support"),
    (a1_from_json, {"support": [{"point": "0"}]}, "support entry", "class"),
    (datum_from_json, {k: v for k, v in _DATUM.items() if k != "strata"}, "datum", "strata"),
    (datum_from_json, dict(_DATUM, components=[{"id": "E"}]), "component", "m"),
    (datum_from_json, dict(_DATUM, strata=[{"I": ["E"], "base": _CLASS, "cover": _CLASS}]),
     "stratum", "locus"),
    (generator_from_json, {"constant": {"value": "0"}}, "constant generator", "class"),
    (generator_from_json, {"resolved": {}}, "resolved generator", "criticals"),
    (generator_from_json, {"resolved": {"criticals": [{"point": "0"}]}}, "critical entry", "datum"),
    (presentation_from_json, {}, "presentation", "terms"),
    (presentation_from_json, {"terms": [{"coeff": 1}]}, "presentation term", "generator"),
])
def test_a_missing_key_is_named_with_its_object(parse, doc, what, missing):
    with pytest.raises(ParseError) as info:
        parse(doc)
    detail = str(info.value)
    assert detail.startswith(f"{what} wants {{") and missing in detail


def _class_doc(coeff=None, factors=()):
    return {"terms": [{"coeff": {"0": 1} if coeff is None else coeff, "factors": list(factors)}]}


def _presentation_doc(coeff):
    return {"terms": [{"coeff": coeff, "generator": "smooth_proper"}]}


def _line_doc(point):
    return {"support": [{"point": point, "class": class_to_json(ONE)}]}


def _constant_doc(value):
    return {"constant": {"value": value, "class": class_to_json(ONE)}}


def _resolved_doc(point):
    return {"resolved": {"criticals": [{"point": point, "datum": datum_to_json(power_datum(2))}]}}


def _datum_doc(m):
    doc = datum_to_json(power_datum(2))
    doc["components"][0]["m"] = m
    return doc


@pytest.mark.parametrize("parse,doc", [
    (class_from_json, _class_doc({"0": 2.7})),
    (class_from_json, _class_doc({"0": "5"})),
    (class_from_json, _class_doc({"0": True})),
    (class_from_json, _class_doc({"1_0": 1})),
    (class_from_json, _class_doc({"01": 1})),
    (class_from_json, _class_doc({"+1": 1})),
    (class_from_json, _class_doc({" 1": 1})),
    (class_from_json, _class_doc({"-0": 1})),
    (class_from_json, _class_doc(factors=[{"orb": True}])),
    (class_from_json, _class_doc(factors=[{"orb": 2.0}])),
    (class_from_json, _class_doc(factors=[{"gm": "1"}])),
    (class_from_json, _class_doc(factors=[{"fer": [3, 2.0]}])),
    (class_from_json, _class_doc(factors=[{"FER": [True, 2]}])),
    (class_from_json, _class_doc(factors=[{"opq": {"tag": "t", "chi": 2.5}}])),
    (class_from_json, _class_doc(factors=[{"opq": {"tag": "t", "chi": False}}])),
    (class_from_json, _class_doc(factors=[{"opq": {"tag": "t", "chi": 1,
                                                   "epoly": {"(0,0)": 1.5}}}])),
    (class_from_json, _class_doc(factors=[{"opq": {"tag": "t", "chi": 1,
                                                   "epoly": {"(1, 0)": 1}}}])),
    (class_from_json, _class_doc(factors=[{"opq": {"tag": "t", "chi": 1,
                                                   "epoly": {"(1_0,0)": 1}}}])),
    (class_from_json, _class_doc(factors=[{"opq": {"tag": "t", "chi": 1,
                                                   "epoly": {"1,0": 1}}}])),
    (presentation_from_json, _presentation_doc(True)),
    (presentation_from_json, _presentation_doc(1.0)),
    (datum_from_json, _datum_doc(2.0)),
    (datum_from_json, _datum_doc(True)),
    (a1_from_json, _line_doc(True)),
    (generator_from_json, _constant_doc(False)),
    (generator_from_json, _resolved_doc(True)),
], ids=[
    "coeff-float", "coeff-string", "coeff-bool",
    "exponent-underscore", "exponent-leading-zero", "exponent-plus", "exponent-space",
    "exponent-minus-zero", "orb-bool", "orb-float", "gm-string", "fer-float", "FER-bool",
    "chi-float", "chi-bool", "epoly-float", "epoly-key-space", "epoly-key-underscore",
    "epoly-key-no-parens", "presentation-bool", "presentation-float",
    "component-m-float", "component-m-bool", "point-bool", "constant-value-bool",
    "critical-point-bool"])
def test_no_silent_coercion_of_integers(parse, doc):
    with pytest.raises(ParseError):
        parse(doc)


def test_validation_errors_stay_validation_errors():
    with pytest.raises(ValidationError):
        class_from_json({"terms": [{"coeff": {"0": 1}, "factors": [{"orb": 0}]}]})


@given(st.lists(st.tuples(st.integers(-3, 3), mu_classes(max_terms=2)), max_size=3))
def test_a1_roundtrip_randomized(pairs):
    f = A1Class(pairs)
    assert a1_from_json(a1_to_json(f)) == f


def test_a1_roundtrip_and_format():
    f = A1Class({"3/2": orb(2), 0: ONE})
    obj = a1_to_json(f)
    assert obj == {"support": [
        {"point": "0", "class": {"terms": [{"coeff": {"0": 1}, "factors": []}]}},
        {"point": "3/2", "class": {"terms": [{"coeff": {"0": 1}, "factors": [{"orb": 2}]}]}},
    ]}
    assert a1_from_json(obj) == f
    assert a1_from_json({"support": [{"point": 2, "class": class_to_json(L)}]}) == \
        A1Class({2: L})


def test_datum_roundtrip():
    for d in [cross_datum(), power_datum(3)]:
        assert datum_from_json(datum_to_json(d)) == d


def test_generator_and_presentation_roundtrip():
    gens = [SmoothProper(), Constant("1/2", L), Resolved([(0, power_datum(2))])]
    for g in gens:
        assert generator_from_json(generator_to_json(g)) == g
    pres = tuple((i - 1, g) for i, g in enumerate(gens))
    assert presentation_from_json(presentation_to_json(pres)) == pres
    assert generator_from_json("smooth_proper") == SmoothProper()


def test_pretty_contract_examples():
    assert pretty(MuClass.from_coeff(L_MINUS_1) + 2 * orb(2)) == "(L - 1) + 2*[mu_2]"
    assert pretty(A1Class({0: L})) == "{0 -> L}"
    assert pretty(ONE - orb(4)) == "1 - [mu_4]"


def test_pretty_more_forms():
    assert pretty(MuClass.zero()) == "0"
    assert pretty(MuClass([(LaurentInt({1: 1, 2: 1}), [])])) == "L^2 + L"
    assert pretty(MuClass.fermat(3, 2)) == "[F(3,2)]"
    assert pretty(L * MuClass.fermat_trivial(3, 2)) == "L*[f(3,2)]"
    assert pretty(A1Class.zero()) == "{}"
    assert pretty(A1Class({"1/2": ONE, -1: L})) == "{-1 -> L, 1/2 -> 1}"
    assert pretty(-orb(2)) == "-[mu_2]"
    assert pretty(orb(2) * LaurentInt({1: -3})) == "-3*L*[mu_2]"
    assert pretty(orb(2) * L_MINUS_1 - MuClass.fermat(3, 2)) == "(L - 1)*[mu_2] - [F(3,2)]"
