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
parse(serialize(x)) == x.  The text itself is written by dumps, which lives in
the leaf module canonical.py.

A presentation's reader keeps one object per equal datum in a document, and
builds a datum once per text: each critical's datum is keyed by its
canonical text (dumps), so JSON-identical copies are built once, and a built
datum is shared with any equal one already read, so equal data written as
different JSON (key order, unnormalized classes) are one object too.  A datum
that dumps cannot write (Python input that is not JSON) is built as it is,
and raises the reader's own error.  The trade: Python input that dumps writes
as a datum read before, such as a tuple for a list, is read as that datum.

Class I/O needs only the class layers.  The line, datum, generator and
presentation functions, and pretty on a line class, import the names of a1
and vanishing they read when called: reading or writing a class loads neither.
"""

from __future__ import annotations

from .canonical import dumps
from .classes import Factor, MuClass
from .errors import ParseError, ValidationError, _checked, _iterated
from .laurent import EPoly, LaurentInt, monomial, power, signed_join

TYPE_CHECKING = False  # typing.TYPE_CHECKING would load typing
if TYPE_CHECKING:  # in annotations only: reading or writing a class loads neither module
    from .a1 import A1Class
    from .vanishing import Generator, Presentation, SNCDatum


def _fields(obj, what: str, *keys: str) -> tuple:
    """The values at keys of obj, which must be an object holding each of them."""
    if not (isinstance(obj, dict) and all(k in obj for k in keys)):
        raise ParseError(f"{what} wants {{{', '.join(keys)}}}")
    return tuple(obj[k] for k in keys)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list")
    return value


def _int(value, what: str, *pieces) -> int:
    """value when it is a JSON integer; a float, string or boolean is refused.

    The message names the value as what.format(*pieces), formatted only when it fails.
    """
    if type(value) is not int:
        raise ParseError(f"{what.format(*pieces)} must be an integer, got {value!r}")
    return value


def _point(value):
    """A base point as written: a "p/q" string or a JSON integer, never a boolean."""
    if not (isinstance(value, str) or type(value) is int):
        raise ParseError(f"point must be a string or integer, got {value!r}")
    return value


def _decimal(text: str, what: str) -> int:
    """The integer that text writes in plain decimal, exactly as str() would."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        value = None
    if value is None or str(value) != text:
        raise ParseError(f"bad {what} {text!r}")
    return value


# --- classes -----------------------------------------------------------------

def _coeff_to_json(c: LaurentInt) -> dict:
    return {str(e): v for e, v in c.items()}

def _coeff_from_json(obj) -> LaurentInt:
    if not isinstance(obj, dict):
        raise ParseError("coefficient must be an object of exponent: integer")
    return LaurentInt((_decimal(k, "exponent"), _int(v, "coefficient of exponent {!r}", k))
                      for k, v in obj.items())


def _epoly_to_json(e) -> dict:
    items = e.items() if isinstance(e, EPoly) else tuple(e)
    return {f"({i},{j})": c for (i, j), c in items}

def _epoly_from_json(obj) -> dict:
    if not isinstance(obj, dict):
        raise ParseError("epoly must be an object")
    out = {}
    for k, v in obj.items():
        if not (isinstance(k, str) and k.startswith("(") and k.endswith(")")):
            raise ParseError(f"bad epoly key {k!r}")
        i, _, j = k[1:-1].partition(",")
        out[(_decimal(i, "epoly key entry"), _decimal(j, "epoly key entry"))] = \
            _int(v, "epoly coefficient at {!r}", k)
    return out


def _factor_to_json(f: Factor) -> dict:
    kind = f[0]
    if kind == "orb":
        return {"orb": f[1]}
    if kind in ("fer", "FER"):
        return {kind: [f[1], f[2]]}
    payload = {"tag": f[1], "chi": f[2]}
    if len(f) > 3:
        payload["epoly"] = _epoly_to_json(f[3])
    return {"opq": payload}

def _factor_from_json(obj) -> Factor:
    if not (isinstance(obj, dict) and len(obj) == 1):
        raise ParseError(f"factor must be a one-key object, got {obj!r}")
    (kind, payload), = obj.items()
    if kind in ("orb", "gm"):
        return (kind, _int(payload, "{} factor", kind))
    if kind in ("fer", "FER"):
        if not (isinstance(payload, list) and len(payload) == 2):
            raise ParseError(f"{kind} factor wants [n, r]")
        return (kind, *(_int(x, "{} factor entry", kind) for x in payload))
    if kind == "opq":
        tag, chi = _fields(payload, "opq factor", "tag", "chi")
        if not isinstance(tag, str):
            raise ParseError(f"opq tag must be a string, got {tag!r}")
        epoly = _epoly_from_json(payload["epoly"]) if "epoly" in payload else None
        return ("opq", tag, _int(chi, "opq chi"), epoly)
    raise ParseError(f"unknown factor kind {kind!r}")


def class_to_json(c: MuClass) -> dict:
    return {"terms": [{"coeff": _coeff_to_json(coeff),
                       "factors": [_factor_to_json(f) for f in atom]}
                      for atom, coeff in _checked(c, MuClass, "c").terms()]}

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
    from .a1 import A1Class, point_str
    return {"support": [{"point": point_str(p), "class": class_to_json(c)}
                        for p, c in _checked(f, A1Class, "f").support()]}

def a1_from_json(obj) -> A1Class:
    from .a1 import A1Class
    support, = _fields(obj, "line class", "support")
    pairs = []
    for entry in _list(support, "line class support"):
        point, c = _fields(entry, "support entry", "point", "class")
        pairs.append((_point(point), class_from_json(c)))
    return A1Class(pairs)


# --- resolution data and presentations ----------------------------------------

def datum_to_json(d: SNCDatum) -> dict:
    from .vanishing import SNCDatum
    _checked(d, SNCDatum, "d")
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
    from .vanishing import SNCDatum, Stratum
    components, strata, fiber_regular, fiber_singular = _fields(
        obj, "datum", "components", "strata", "fiber_regular", "fiber_singular")
    checked = []
    for c in _list(components, "components"):
        i, m = _fields(c, "component", "id", "m")
        if not isinstance(i, str):
            raise ParseError("component id must be a string")
        checked.append((i, _int(m, "component m")))
    built = []
    for s in _list(strata, "strata"):
        index_set, base, cover, locus = _fields(s, "stratum", "I", "base", "cover", "locus")
        if not (isinstance(index_set, list) and all(isinstance(i, str) for i in index_set)):
            raise ParseError("stratum index set must be a list of component ids")
        if not isinstance(locus, str):
            raise ParseError("stratum locus must be a string")
        built.append(Stratum(index_set, class_from_json(base), class_from_json(cover), locus))
    return SNCDatum(checked, built, class_from_json(fiber_regular),
                    class_from_json(fiber_singular))


def generator_to_json(g: Generator):
    from .a1 import point_str
    from .vanishing import Constant, Resolved, SmoothProper
    if isinstance(g, SmoothProper):
        return "smooth_proper"
    if isinstance(g, Constant):
        return {"constant": {"value": point_str(g.value),
                             "class": class_to_json(g.fiber_class)}}
    if isinstance(g, Resolved):
        return {"resolved": {"criticals": [{"point": point_str(p), "datum": datum_to_json(d)}
                                           for p, d in g.criticals]}}
    raise ValidationError(f"unknown generator {g!r}")

def _generator_from_json(obj, shared: dict) -> Generator:
    from .vanishing import Constant, Resolved, SmoothProper
    if obj == "smooth_proper":
        return SmoothProper()
    if not (isinstance(obj, dict) and len(obj) == 1):
        raise ParseError('generator must be "smooth_proper" or a one-key object')
    (kind, payload), = obj.items()
    if kind == "constant":
        value, c = _fields(payload, "constant generator", "value", "class")
        return Constant(_point(value), class_from_json(c))
    if kind == "resolved":
        entries, = _fields(payload, "resolved generator", "criticals")
        criticals = []
        for entry in _list(entries, "resolved generator criticals"):
            point, datum = _fields(entry, "critical entry", "point", "datum")
            criticals.append((_point(point), _shared_datum(datum, shared)))
        return Resolved(criticals)
    raise ParseError(f"unknown generator kind {kind!r}")

def _shared_datum(obj, shared: dict) -> SNCDatum:
    """The datum obj writes, as kept in shared, which maps the canonical text of
    each datum document read and each datum built to the one object kept."""
    try:
        text = dumps(obj)
    except (TypeError, ValueError, RecursionError):  # not JSON: build it, to raise as it does
        text = None
    d = shared.get(text)
    if d is None:
        d = datum_from_json(obj)
        d = shared.setdefault(d, d)  # equal data written as different text share one object
        if text is not None:
            shared[text] = d
    return d

def generator_from_json(obj) -> Generator:
    return _generator_from_json(obj, {})


def presentation_to_json(p: Presentation) -> dict:
    return {"terms": [{"coeff": c, "generator": generator_to_json(g)}
                      for c, g in _iterated(p, "p")]}

def presentation_from_json(obj) -> Presentation:
    entries, = _fields(obj, "presentation", "terms")
    terms, shared = [], {}
    for t in _list(entries, "presentation terms"):
        coeff, generator = _fields(t, "presentation term", "coeff", "generator")
        terms.append((_int(coeff, "presentation coefficient"),
                      _generator_from_json(generator, shared)))
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


def _pretty_class(c: MuClass) -> str:
    terms = c.terms()
    return signed_join(_pretty_term(atom, coeff, len(terms) > 1) for atom, coeff in terms)


def pretty(value) -> str:
    """Human-readable infix rendering, output only; not parsed back."""
    if isinstance(value, MuClass):
        return _pretty_class(value)
    from .a1 import A1Class, point_str
    if not isinstance(value, A1Class):
        raise TypeError(f"cannot pretty-print {type(value).__name__}")
    inner = ", ".join(f"{point_str(p)} -> {_pretty_class(c)}" for p, c in value.support())
    return "{" + inner + "}"
