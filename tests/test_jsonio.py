from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from motivic import (A1Class, Constant, DatumValidationError, MuClass, ParseError, Resolved,
                     SmoothProper, ValidationError, a1_from_json, a1_to_json, class_from_json,
                     class_to_json, datum_from_json, datum_to_json,
                     generator_from_json, generator_to_json, phi_measure,
                     presentation_from_json, presentation_to_json, pretty)
from motivic import jsonio
from motivic.classes import fer as fer_factor, gm as gm_factor, opq as opq_factor, orb as orb_factor
from motivic.jsonio import dumps
from motivic.laurent import L_MINUS_1, LaurentInt

from conftest import GM, L, ONE, _factors, cross_datum, mu_classes, orb, power_datum, raw_terms


# Opaque factors whose tags hold the separators of P6 tags ([]|*) and ;:, with
# and without E-data (an empty E-data dict is E-data that sums to zero, not
# missing E-data).
_opaque_factors = st.tuples(
    st.text(alphabet="ab[]|*;:", max_size=6),
    st.integers(-3, 3),
    st.none() | st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                st.integers(-3, 3), max_size=3),
).map(lambda t: ("opq", *t))
_classes = st.one_of(
    mu_classes(),
    raw_terms(factors=st.one_of(_factors, _opaque_factors, _opaque_factors)).map(MuClass))
_line_classes = st.lists(st.tuples(st.integers(-3, 3), _classes), max_size=3).map(A1Class)


@given(_classes)
def test_class_roundtrip(c):
    assert class_from_json(class_to_json(c)) == c


@given(_classes)
def test_serialization_is_canonical(c):
    blob = dumps(class_to_json(c))
    assert dumps(class_to_json(class_from_json(json.loads(blob)))) == blob


def test_class_wire_format():
    c = GM + 2 * orb(2)
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


@given(_line_classes)
def test_a1_roundtrip_randomized(f):
    assert a1_from_json(a1_to_json(f)) == f


@given(_line_classes)
def test_a1_serialization_is_canonical(f):
    blob = dumps(a1_to_json(f))
    assert dumps(a1_to_json(a1_from_json(json.loads(blob)))) == blob


def test_bool_factor_entries_are_stored_as_integers():
    c = MuClass.opaque("t", True)
    blob = dumps(class_to_json(c))
    assert blob == '{"terms":[{"coeff":{"0":1},"factors":[{"opq":{"chi":1,"tag":"t"}}]}]}'
    assert class_from_json(json.loads(blob)) == c == MuClass.opaque("t", 1)
    assert MuClass.opaque("t", False) == MuClass.opaque("t", 0)
    for made, plain in [(opq_factor("t", True), ("opq", "t", 1)), (orb_factor(True), ("orb", 1)),
                        (fer_factor(3, True), ("fer", 3, 1)), (gm_factor(True), ("gm", 1))]:
        assert made == plain and [type(x) for x in made] == [type(x) for x in plain]
    assert MuClass([(1, [fer_factor(3, True), gm_factor(True), orb_factor(True)])]) == \
        MuClass([(1, [("fer", 3, 1), ("gm", 1), ("orb", 1)])])
    # a bool exponent too: it must round-trip as the integer it stands for
    k = LaurentInt({True: 3})
    assert k == LaurentInt({1: 3}) and [type(e) for e, _ in k.items()] == [int]
    blob = dumps(class_to_json(MuClass([(k, [])])))
    assert blob == '{"terms":[{"coeff":{"1":3},"factors":[]}]}'
    assert class_from_json(json.loads(blob)) == MuClass([(k, [])]) == L * 3


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


@pytest.mark.parametrize("locus", [["singular"], {"tag": "singular"}, 1, None, True],
                         ids=["list", "object", "integer", "null", "boolean"])
def test_a_locus_that_is_not_a_string_is_a_parse_error(locus):
    # every other field of a parsed datum is hashable, so the reader can share any datum
    doc = datum_to_json(power_datum(2))
    doc["strata"][0]["locus"] = locus
    entry = {"point": 0, "datum": doc}
    with pytest.raises(ParseError, match="^stratum locus must be a string$"):
        datum_from_json(doc)
    with pytest.raises(ParseError, match="^stratum locus must be a string$"):
        presentation_from_json({"terms": [
            {"coeff": 1, "generator": {"resolved": {"criticals": [entry]}}}]})


@pytest.mark.parametrize("tag", [5, ["t"], None, True], ids=["integer", "list", "null", "boolean"])
def test_an_opaque_tag_that_is_not_a_string_is_a_parse_error(tag):
    # every other JSON type error in a factor is a parse error too, never a validation error
    doc = _class_doc(factors=[{"opq": {"tag": tag, "chi": 1}}])
    message = f"^opq tag must be a string, got {re.escape(repr(tag))}$"
    with pytest.raises(ParseError, match=message):
        class_from_json(doc)
    datum = datum_to_json(power_datum(2))
    datum["strata"][0]["cover"] = doc
    entry = {"point": 0, "datum": datum}
    with pytest.raises(ParseError, match=message):
        presentation_from_json({"terms": [
            {"coeff": 1, "generator": {"resolved": {"criticals": [entry]}}}]})


def test_a_string_locus_that_is_no_tag_parses_and_is_reported_invalid():
    doc = datum_to_json(power_datum(2))
    doc["strata"][0]["locus"] = "nowhere"
    entry = {"point": 0, "datum": doc}
    pres = presentation_from_json({"terms": [
        {"coeff": 1, "generator": {"resolved": {"criticals": [entry]}}},
        {"coeff": 1, "generator": {"resolved": {"criticals": [dict(entry, point=1)]}}}]})
    first, second = (g.criticals[0][1] for _, g in pres)
    assert first is second
    with pytest.raises(DatumValidationError, match="bad locus tag"):
        phi_measure(pres)


def _presentation_of(*data) -> dict:
    """A presentation of one Resolved generator per datum document, at points 0, 1, 2, ..."""
    return {"terms": [{"coeff": 1, "generator": {"resolved": {"criticals": [
        {"point": k, "datum": doc}]}}} for k, doc in enumerate(data)]}


def _counting_builds(monkeypatch) -> list:
    """The datum documents the reader builds from, in order."""
    built, build = [], jsonio.datum_from_json
    monkeypatch.setattr(jsonio, "datum_from_json", lambda obj: built.append(obj) or build(obj))
    return built


@pytest.mark.parametrize("k", [1, 2, 40])
def test_copies_of_one_datum_in_a_document_are_built_once(monkeypatch, k):
    doc = datum_to_json(cross_datum())
    built = _counting_builds(monkeypatch)
    pres = presentation_from_json(_presentation_of(*(json.loads(json.dumps(doc)) for _ in range(k))))
    assert len(built) == 1 and len(pres) == k
    first = pres[0][1].criticals[0][1]
    assert first == cross_datum() and all(g.criticals[0][1] is first for _, g in pres)


def test_equal_data_written_as_different_json_are_one_object(monkeypatch):
    doc = datum_to_json(cross_datum())
    reordered = dict(reversed(doc.items()))  # the same text: built once
    unnormalized = json.loads(json.dumps(doc))
    unnormalized["strata"][2]["I"].reverse()
    unnormalized["fiber_singular"]["terms"].append({"coeff": {"0": 0}, "factors": [{"orb": 1}]})
    assert dumps(unnormalized) != dumps(doc)
    built = _counting_builds(monkeypatch)
    pres = presentation_from_json(_presentation_of(doc, reordered, unnormalized, doc))
    assert len(built) == 2
    data = [g.criticals[0][1] for _, g in pres]
    assert data[0] == cross_datum() and all(d is data[0] for d in data)


def test_a_repeated_invalid_datum_raises_as_one_does(monkeypatch):
    doc = datum_to_json(power_datum(2))
    doc["components"][0]["m"] = "2"
    with pytest.raises(ParseError, match="^component m must be an integer, got '2'$"):
        presentation_from_json(_presentation_of(doc, doc, doc))
    doc["components"][0]["m"] = 3  # parses; the cover's chi then does not match
    built = _counting_builds(monkeypatch)
    pres = presentation_from_json(_presentation_of(doc, doc, doc))
    assert len(built) == 1
    with pytest.raises(DatumValidationError, match="differs from m_I"):
        phi_measure(pres)


def test_a_datum_that_is_no_json_is_built_and_raises_the_readers_error(monkeypatch):
    doc = datum_to_json(power_datum(2))
    doc["strata"][0]["locus"] = {"singular"}  # a set, which dumps cannot write
    built = _counting_builds(monkeypatch)
    with pytest.raises(ParseError, match="^stratum locus must be a string$"):
        presentation_from_json(_presentation_of(doc, doc))
    assert len(built) == 1


def test_a_datum_past_the_digit_limit_is_built_each_time_and_shared(monkeypatch):
    # dumps cannot write the integer, and the reader writes a value's text only
    # into the message of an error it raises
    huge = datum_to_json(power_datum(2))
    huge["fiber_singular"]["terms"][0]["coeff"]["0"] = 10 ** 5000
    built = _counting_builds(monkeypatch)
    pres = presentation_from_json(_presentation_of(huge, huge))
    first, second = (g.criticals[0][1] for _, g in pres)
    assert len(built) == 2 and first is second
    assert first.fiber_singular == MuClass.from_coeff(10 ** 5000)


def test_pretty_contract_examples():
    assert pretty(GM + 2 * orb(2)) == "(L - 1) + 2*[mu_2]"
    assert pretty(A1Class({0: L})) == "{0 -> L}"
    assert pretty(ONE - orb(4)) == "1 - [mu_4]"
    assert str(GM + 2 * orb(2)) == "(L - 1) + 2*[mu_2]"
    assert str(A1Class({0: L})) == "{0 -> L}"
    assert repr(A1Class({0: L, "1/2": orb(2)})) == "A1Class([('0', 'L'), ('1/2', '[mu_2]')])"


def test_pretty_more_forms():
    assert pretty(MuClass.zero()) == "0"
    assert pretty(MuClass([(LaurentInt({1: 1, 2: 1}), [])])) == "L^2 + L"
    assert pretty(MuClass.fermat(3, 2)) == "[F(3,2)]"
    assert pretty(L * MuClass.fermat_trivial(3, 2)) == "L*[f(3,2)]"
    assert pretty(A1Class.zero()) == "{}"
    assert pretty(A1Class({"1/2": ONE, -1: L})) == "{-1 -> L, 1/2 -> 1}"
    assert pretty(-orb(2)) == "-[mu_2]"
    with pytest.raises(TypeError, match="cannot pretty-print int"):
        pretty(5)
    assert pretty(orb(2) * LaurentInt({1: -3})) == "-3*L*[mu_2]"
    assert pretty(orb(2) * L_MINUS_1 - MuClass.fermat(3, 2)) == "(L - 1)*[mu_2] - [F(3,2)]"


class _CountedKey(str):
    """A JSON key that counts the calls of its repr."""

    reprs = 0

    def __repr__(self):
        type(self).reprs += 1
        return str.__repr__(self)


def test_a_valid_class_is_read_with_no_message_formatted(monkeypatch):
    monkeypatch.setattr(_CountedKey, "reprs", 0)
    epoly = {_CountedKey("(0,0)"): 1, _CountedKey("(1,1)"): -2}
    doc = {"terms": [{"coeff": {_CountedKey("0"): 3, _CountedKey("-2"): -1},
                      "factors": [{"orb": 2}, {"fer": [3, 2]},
                                  {"opq": {"tag": "t", "chi": 1, "epoly": epoly}}]}]}
    assert class_from_json(doc) == MuClass(
        [(LaurentInt({0: 3, -2: -1}),
          (orb_factor(2), fer_factor(3, 2), opq_factor("t", 1, {(0, 0): 1, (1, 1): -2})))])
    assert _CountedKey.reprs == 0


@pytest.mark.parametrize("coeff, factor, message", [
    ({"-1": 1.5}, {"orb": 2}, "coefficient of exponent '-1' must be an integer, got 1.5"),
    ({"0": 1}, {"orb": 2.0}, "orb factor must be an integer, got 2.0"),
    ({"0": 1}, {"FER": [3, "2"]}, "FER factor entry must be an integer, got '2'"),
    ({"0": 1}, {"opq": {"tag": "t", "chi": 1, "epoly": {"(0,0)": True}}},
     "epoly coefficient at '(0,0)' must be an integer, got True"),
])
def test_a_bad_integer_names_where_it_is(coeff, factor, message):
    with pytest.raises(ParseError) as info:
        class_from_json({"terms": [{"coeff": coeff, "factors": [factor]}]})
    assert str(info.value) == message
