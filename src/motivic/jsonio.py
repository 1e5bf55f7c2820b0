"""JSON interchange formats and the human-readable rendering.

Class format:
    {"terms": [{"coeff": {"<exp>": <int>, ...},
                "factors": [{"orb": d} | {"fer": [n, r]} | {"FER": [n, r]}
                            | {"opq": {"tag": s, "chi": z, "epoly"?: {...}}}
                            | {"gm": d}]}, ...]}
Exponent keys are decimal strings, negative allowed.  The {"gm": d} factor is
accepted on input only; it never survives normalization.  E-polynomial data
uses keys "(i,j)".

Line-class format:
    {"support": [{"point": "p/q" | <int>, "class": <class>}, ...]}

Serialization is canonical (sorted keys, sorted term order, compact
separators), so identical values produce byte-identical documents, and
parse(serialize(x)) == x.
"""

from __future__ import annotations

import json
from typing import Any

from .a1 import A1Class, point_str
from .classes import Factor, MuClass
from .errors import ParseError
from .laurent import EPoly, LaurentInt
from .sparse import monomial, power, signed_join
from .vanishing import (Constant, Generator, Presentation, Resolved, SmoothProper,
                        SNCDatum, Stratum)


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _fields(obj, what: str, *keys: str) -> tuple:
    """The values at keys of obj, which must be an object holding each of them."""
    _expect(isinstance(obj, dict) and all(k in obj for k in keys),
            f"{what} wants {{{', '.join(keys)}}}")
    return tuple(obj[k] for k in keys)


def _list(value, what: str) -> list:
    _expect(isinstance(value, list), f"{what} must be a list")
    return value


def _int(value, what: str) -> int:
    """value when it is a JSON integer; a float, string or boolean is refused."""
    _expect(type(value) is int, f"{what} must be an integer, got {value!r}")
    return value


def _point(value):
    """A base point as written: a "p/q" string or a JSON integer, never a boolean."""
    _expect(isinstance(value, str) or type(value) is int,
            f"point must be a string or integer, got {value!r}")
    return value


def _decimal(text: str, what: str) -> int:
    """The integer that text writes in plain decimal, exactly as str() would."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        value = None
    _expect(value is not None and str(value) == text, f"bad {what} {text!r}")
    return value


# --- classes -----------------------------------------------------------------

def _coeff_to_json(c: LaurentInt) -> dict:
    return {str(e): v for e, v in c.items()}

def _coeff_from_json(obj) -> LaurentInt:
    _expect(isinstance(obj, dict), "coefficient must be an object of exponent: integer")
    return LaurentInt((_decimal(k, "exponent"), _int(v, f"coefficient of exponent {k!r}"))
                      for k, v in obj.items())


def _epoly_to_json(e) -> dict:
    items = e.items() if isinstance(e, EPoly) else tuple(e)
    return {f"({i},{j})": c for (i, j), c in items}

def _epoly_from_json(obj) -> dict:
    _expect(isinstance(obj, dict), "epoly must be an object")
    out = {}
    for k, v in obj.items():
        _expect(isinstance(k, str) and k.startswith("(") and k.endswith(")"),
                f"bad epoly key {k!r}")
        i, _, j = k[1:-1].partition(",")
        out[(_decimal(i, "epoly key entry"), _decimal(j, "epoly key entry"))] = \
            _int(v, f"epoly coefficient at {k!r}")
    return out


def _factor_to_json(f: Factor) -> dict:
    kind = f[0]
    if kind == "orb":
        return {"orb": f[1]}
    if kind in ("fer", "FER"):
        return {kind: [f[1], f[2]]}
    payload = {"tag": f[1], "chi": f[2]}
    if f[3] is not None:
        payload["epoly"] = _epoly_to_json(f[3])
    return {"opq": payload}

def _factor_from_json(obj) -> Factor:
    _expect(isinstance(obj, dict) and len(obj) == 1, f"factor must be a one-key object, got {obj!r}")
    (kind, payload), = obj.items()
    if kind in ("orb", "gm"):
        return (kind, _int(payload, f"{kind} factor"))
    if kind in ("fer", "FER"):
        _expect(isinstance(payload, list) and len(payload) == 2, f"{kind} factor wants [n, r]")
        return (kind, *(_int(x, f"{kind} factor entry") for x in payload))
    if kind == "opq":
        tag, chi = _fields(payload, "opq factor", "tag", "chi")
        epoly = _epoly_from_json(payload["epoly"]) if "epoly" in payload else None
        return ("opq", tag, _int(chi, "opq chi"), epoly)
    raise ParseError(f"unknown factor kind {kind!r}")


def class_to_json(c: MuClass) -> dict:
    return {"terms": [{"coeff": _coeff_to_json(coeff),
                       "factors": [_factor_to_json(f) for f in atom]}
                      for atom, coeff in c.terms()]}

def class_from_json(obj) -> MuClass:
    terms, = _fields(obj, "class", "terms")
    raw = []
    for term in _list(terms, "class terms"):
        coeff, = _fields(term, "term", "coeff")
        factors = _list(term.get("factors", []), "factors")
        raw.append((_coeff_from_json(coeff), tuple(_factor_from_json(f) for f in factors)))
    return MuClass(raw)


# --- classes over the line ---------------------------------------------------

def a1_to_json(f: A1Class) -> dict:
    return {"support": [{"point": point_str(p), "class": class_to_json(c)}
                        for p, c in f.support()]}

def a1_from_json(obj) -> A1Class:
    support, = _fields(obj, "line class", "support")
    pairs = []
    for entry in _list(support, "line class support"):
        point, c = _fields(entry, "support entry", "point", "class")
        pairs.append((_point(point), class_from_json(c)))
    return A1Class(pairs)


# --- resolution data and presentations ----------------------------------------

def datum_to_json(d: SNCDatum) -> dict:
    return {
        "components": [{"id": i, "m": m} for i, m in d.components],
        "strata": [{"I": sorted(s.index_set),
                    "base": class_to_json(s.base_class),
                    "cover": class_to_json(s.cover_class),
                    "locus": s.locus} for s in d.strata],
        "fiber_regular": class_to_json(d.fiber_regular),
        "fiber_singular": class_to_json(d.fiber_singular),
    }

def datum_from_json(obj) -> SNCDatum:
    components, strata, fiber_regular, fiber_singular = _fields(
        obj, "datum", "components", "strata", "fiber_regular", "fiber_singular")
    checked = []
    for c in _list(components, "components"):
        i, m = _fields(c, "component", "id", "m")
        _expect(isinstance(i, str), "component id must be a string")
        checked.append((i, _int(m, "component m")))
    built = []
    for s in _list(strata, "strata"):
        index_set, base, cover, locus = _fields(s, "stratum", "I", "base", "cover", "locus")
        _expect(isinstance(index_set, list) and all(isinstance(i, str) for i in index_set),
                "stratum index set must be a list of component ids")
        built.append(Stratum(index_set, class_from_json(base), class_from_json(cover), locus))
    return SNCDatum(checked, built, class_from_json(fiber_regular),
                    class_from_json(fiber_singular))


def generator_to_json(g: Generator):
    if isinstance(g, SmoothProper):
        return "smooth_proper"
    if isinstance(g, Constant):
        return {"constant": {"value": point_str(g.value),
                             "class": class_to_json(g.fiber_class)}}
    return {"resolved": {"criticals": [{"point": point_str(p), "datum": datum_to_json(d)}
                                       for p, d in g.criticals]}}

def generator_from_json(obj) -> Generator:
    if obj == "smooth_proper":
        return SmoothProper()
    _expect(isinstance(obj, dict) and len(obj) == 1,
            'generator must be "smooth_proper" or a one-key object')
    (kind, payload), = obj.items()
    if kind == "constant":
        value, c = _fields(payload, "constant generator", "value", "class")
        return Constant(_point(value), class_from_json(c))
    if kind == "resolved":
        entries, = _fields(payload, "resolved generator", "criticals")
        criticals = []
        for entry in _list(entries, "resolved generator criticals"):
            point, datum = _fields(entry, "critical entry", "point", "datum")
            criticals.append((_point(point), datum_from_json(datum)))
        return Resolved(criticals)
    raise ParseError(f"unknown generator kind {kind!r}")


def presentation_to_json(p: Presentation) -> dict:
    return {"terms": [{"coeff": c, "generator": generator_to_json(g)} for c, g in p]}

def presentation_from_json(obj) -> Presentation:
    entries, = _fields(obj, "presentation", "terms")
    terms = []
    for t in _list(entries, "presentation terms"):
        coeff, generator = _fields(t, "presentation term", "coeff", "generator")
        terms.append((_int(coeff, "presentation coefficient"), generator_from_json(generator)))
    return tuple(terms)


# --- pretty form ---------------------------------------------------------------

_FACTOR_PRETTY = {"orb": "[mu_{0}]", "FER": "[F({0},{1})]", "fer": "[f({0},{1})]"}


def _pretty_factor(f: Factor) -> str:
    if f[0] == "opq":
        return f"[opaque:{f[1]}]"
    return _FACTOR_PRETTY[f[0]].format(*f[1:])


def _pretty_term(atom, coeff: LaurentInt, several: bool) -> tuple[bool, str]:
    """(negative, body) of one term; a coefficient of several monomials is bracketed."""
    atom_str = "*".join(_pretty_factor(f) for f in atom)
    monomials = coeff.items()
    if len(monomials) == 1:
        (e, c), = monomials
        return c < 0, monomial(abs(c), power("L", e), atom_str)
    if atom_str:
        return False, f"({coeff})*{atom_str}"
    return False, f"({coeff})" if several else str(coeff)


def pretty(value) -> str:
    """Human-readable infix rendering, output only; not parsed back."""
    if isinstance(value, A1Class):
        inner = ", ".join(f"{point_str(p)} -> {pretty(c)}" for p, c in value.support())
        return "{" + inner + "}"
    if not isinstance(value, MuClass):
        raise TypeError(f"cannot pretty-print {type(value).__name__}")
    terms = value.terms()
    return signed_join(_pretty_term(atom, coeff, len(terms) > 1) for atom, coeff in terms)
