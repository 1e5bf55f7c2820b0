"""Nearby fiber and vanishing cycles from resolution data, and the measure.

An SNCDatum records the combinatorics of one embedded resolution at one
critical value: divisor components with multiplicities, the strata cut out by
nonempty component subsets I (each with the class of the stratum downstairs,
the class of its degree-gcd cover with its action, and a regular/singular
locus tag), and the class of the reduced fiber split into its regular and
singular parts.

The nearby fiber is  sum over strata of (1-L)^(|I|-1) [cover]  and the
vanishing cycles are  [fiber] - nearby.  The subtraction is carried out
separately on the regular and singular loci; for data coming from genuine
resolutions the regular part cancels exactly, so phi is supported on the
singular locus and, by construction, depends only on the singular inputs.
The sign convention is phi = [fiber] - psi with no dimension sign, which is
the normalization that makes the measure below both additive and
multiplicative.

The measure consumes integer combinations of three generator kinds: Resolved
(a finite set of critical values with SNC data), Constant (a family sitting
over one point), and SmoothProper (fiberwise smooth proper families, which
contribute nothing).  Smoothness/properness flags are trusted input; this is
a calculator, not a verifier of geometry.

The records (Stratum, SNCDatum and the three generator kinds) are immutable
values, compared by their fields and hashed by them once; each constructor
converts and checks its arguments.

vanishing_cycles keeps a datum's (phi, phi_regular) on the datum object, in a
slot beside the hash; it is no field, so no comparison, hash, pickle or repr
shows it.  It is the one cache of phi: vanishing_cycles, phi_generator,
phi_measure and ts_check validate a datum object and compute its phi once.
_cycles alone validates and computes, and the result is set only after it
returns, so an invalid datum raises on every call.  The memo lives and dies
with the datum, so nothing bounds it; an equal but distinct datum object is
validated and computed again.  The JSON reader (jsonio) gives one object per
equal datum in a document, so a parsed presentation computes each once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import eq, itemgetter

from .a1 import A1Class, _line, _point_key, a1_star, as_point, point_str
from .classes import MuClass
from .errors import DatumValidationError, ValidationError, _checked
from .laurent import ONE_MINUS_L
from .realize import chi_c

TYPE_CHECKING = False  # typing.TYPE_CHECKING would load typing
if TYPE_CHECKING:
    from typing import Union

LOCUS_TAGS = ("regular", "singular")


class _Record:
    """An immutable value shown by its fields, _names (the nearest non-empty own
    __slots__ of its class), equal to a record of its type with equal fields,
    and hashed by those fields once, then kept."""

    __slots__ = ("_hash", "_memo")  # _memo: an SNCDatum's vanishing cycles
    _names: tuple = ()

    def __init_subclass__(cls):
        cls._names = cls.__dict__.get("__slots__") or cls._names

    def _set(self, *values) -> None:
        for name, value in zip(self._names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # not hashed yet; an unhashable field raises TypeError here
            object.__setattr__(self, "_hash", hash(self._fields()))
            return self._hash

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._fields()))
        return f"{self.__class__.__qualname__}({shown})"


class Stratum(_Record):
    __slots__ = ("index_set", "base_class", "cover_class", "locus")

    def __init__(self, index_set: frozenset[str], base_class: MuClass, cover_class: MuClass,
                 locus: str):
        ids = frozenset(index_set)
        if isinstance(index_set, str) or not all(isinstance(i, str) for i in ids):
            raise ValidationError(f"index set {index_set!r} wants a collection of string ids")
        self._set(ids, _checked(base_class, MuClass, "base_class"),
                  _checked(cover_class, MuClass, "cover_class"), locus)


class SNCDatum(_Record):
    __slots__ = ("components", "strata", "fiber_regular", "fiber_singular")

    def __init__(self, components: tuple[tuple[str, int], ...], strata: tuple[Stratum, ...],
                 fiber_regular: MuClass, fiber_singular: MuClass):
        checked = []
        for i, m in components:
            if not isinstance(i, str) or not isinstance(m, int):
                raise ValidationError(f"component ({i!r}, {m!r}) wants a string id and integer m")
            checked.append((i, int(m)))  # int() stores a bool as the integer it stands for
        self._set(tuple(checked), tuple([_checked(s, Stratum, "stratum") for s in strata]),
                  _checked(fiber_regular, MuClass, "fiber_regular"),
                  _checked(fiber_singular, MuClass, "fiber_singular"))

    def multiplicity(self, component_id: str) -> int:
        for i, m in self.components:
            if i == component_id:
                return m
        raise ValidationError(f"unknown component {component_id!r}")

    def stratum_gcd(self, stratum: Stratum) -> int:
        return math.gcd(*(self.multiplicity(i) for i in stratum.index_set))


def validate_datum(d: SNCDatum) -> list[str]:
    """All violated invariants of a datum; empty iff valid.  The cost is linear
    in the size of the datum: each index is looked up once in one dict.  A
    value that is no SNCDatum raises ValidationError, here for nearby_fiber and
    vanishing_cycles too."""
    _checked(d, SNCDatum, "datum")
    report: list[str] = []
    first = dict(reversed(d.components))  # id -> the first multiplicity, as multiplicity() reads
    if len(first) != len(d.components):
        report.append("component ids are not distinct")
    for i, m in d.components:
        if m < 1:
            report.append(f"component {i!r} has multiplicity {m} < 1")
    seen: set[frozenset[str]] = set()
    for k, s in enumerate(d.strata):
        name = f"stratum {sorted(s.index_set)}"
        if not s.index_set:
            report.append(f"stratum #{k} has empty index set")
            continue
        unknown = s.index_set.difference(first)  # one lookup per index in the dict
        if unknown:
            report.append(f"{name} references unknown components {sorted(unknown)}")
            continue
        if s.index_set in seen:
            report.append(f"{name} appears twice")
        seen.add(s.index_set)
        if s.locus not in LOCUS_TAGS:
            report.append(f"{name} has bad locus tag {s.locus!r}")
        if len(s.index_set) >= 2 and s.locus != "singular":
            report.append(f"{name} has |I| >= 2 but is not tagged singular")
        if not s.base_class.is_trivial_action():
            report.append(f"{name} base class carries a nontrivial action")
        m_i = math.gcd(*(first[i] for i in s.index_set))  # d.stratum_gcd(s) scans per index
        if chi_c(s.cover_class) != m_i * chi_c(s.base_class):
            report.append(
                f"{name}: chi(cover) = {chi_c(s.cover_class)} differs from "
                f"m_I * chi(base) = {m_i} * {chi_c(s.base_class)}")
        if m_i == 1 and s.cover_class != s.base_class:
            report.append(f"{name} has m_I = 1 but cover differs from base")
    for label, cls in (("fiber_regular", d.fiber_regular), ("fiber_singular", d.fiber_singular)):
        if not cls.is_trivial_action():
            report.append(f"{label} carries a nontrivial action")
    return report


def _require_valid(d: SNCDatum) -> None:
    report = validate_datum(d)
    if report:
        raise DatumValidationError(report)


def _nearby_terms(d: SNCDatum, loci=LOCUS_TAGS, sign: int = 1):
    """Terms of sign * the sum of (1-L)^(|I|-1) [cover] over the strata on loci."""
    for s in d.strata:
        if s.locus in loci:
            weight = sign * ONE_MINUS_L ** (len(s.index_set) - 1)
            yield from ((atom, c * weight) for atom, c in s.cover_class.terms())


def nearby_fiber(d: SNCDatum) -> MuClass:
    """The motivic nearby fiber of the datum."""
    _require_valid(d)
    return MuClass._make(_nearby_terms(d))


def _cycles(d: SNCDatum) -> tuple[MuClass, MuClass]:
    """Validate d and compute its (phi, phi_regular); nothing is kept."""
    _require_valid(d)
    phi = MuClass._make(chain(d.fiber_singular.terms(), _nearby_terms(d, ("singular",), -1)))
    phi_regular = MuClass._make(chain(d.fiber_regular.terms(), _nearby_terms(d, ("regular",), -1)))
    return phi, phi_regular


def vanishing_cycles(d: SNCDatum) -> tuple[MuClass, MuClass]:
    """(phi, phi_regular): fiber minus nearby fiber, split by locus.

    phi lives on the singular locus; phi_regular vanishes for data coming
    from genuine resolutions and is returned so that defective inputs are
    visible rather than silently absorbed.  Each datum object is validated
    and computed once: the result is kept on it, the one cache of phi, and an
    invalid datum, which keeps nothing, raises on every call.  An equal but
    distinct datum object is computed again.
    """
    try:
        return d._memo
    except AttributeError:  # not computed yet, or not a datum: _cycles reports that
        found = _cycles(d)
    object.__setattr__(d, "_memo", found)  # racing threads store equal values
    return found


# --- generators and the measure ----------------------------------------------


class Resolved(_Record):
    """A family with finitely many critical values, each carrying SNC data.

    The critical values are sorted by a1._point_key, the order of A1Class
    supports, and two equal ones sit side by side with equal keys; one critical
    value is neither sorted nor compared.
    """

    __slots__ = ("criticals",)

    def __init__(self, criticals: tuple[tuple[Fraction, SNCDatum], ...]):
        pts = [(as_point(p), _checked(d, SNCDatum, "critical datum")) for p, d in criticals]
        if len(pts) > 1:
            pts.sort(key=_point_key)
            keys = list(map(_point_key, pts))  # again: cheaper than carrying the sort's keys
            if any(map(eq, keys, keys[1:])):
                raise ValidationError("critical values must be pairwise distinct")
        object.__setattr__(self, "criticals", tuple(pts))  # the one field, with no _set loop


class Constant(_Record):
    """A family sitting entirely over one value of the line."""

    __slots__ = ("value", "fiber_class")

    def __init__(self, value: Fraction, fiber_class: MuClass):
        if not _checked(fiber_class, MuClass, "fiber_class").is_trivial_action():
            raise ValidationError("constant generator class carries a nontrivial action")
        self._set(as_point(value), fiber_class)


class SmoothProper(_Record):
    """A fiberwise smooth and proper family; contributes nothing."""

    __slots__ = ()


if TYPE_CHECKING:
    Generator = Union[Resolved, Constant, SmoothProper]

Presentation = tuple  # tuple of (int coefficient, Generator) pairs


def _fibers(g: Generator) -> list[tuple[Fraction, MuClass]]:
    """(point, class) fibers of one generator's measure: a datum's fiber is its phi."""
    if isinstance(g, Resolved):
        return [(p, vanishing_cycles(d)[0]) for p, d in g.criticals]
    if isinstance(g, Constant):
        return [(g.value, g.fiber_class)]
    if isinstance(g, SmoothProper):
        return []
    raise ValidationError(f"unknown generator {g!r}")


def phi_generator(g: Generator) -> A1Class:
    """Vanishing-cycle class of one generator, as a class over the line."""
    # a Resolved's critical values are distinct and sorted, and a Constant has one
    return A1Class._wrap(tuple([(p, c) for p, c in _fibers(g) if c]))


def phi_measure(p: Presentation) -> A1Class:
    """The measure on a presentation: coefficient-weighted sum over generators.

    The generators are read in order, and the first one at fault raises: for
    a coefficient that is not an integer, then for a generator of no known
    kind, then for the first invalid datum among its critical values, as
    vanishing_cycles reports it.  Each datum object is validated and its phi
    computed once, and kept on it, by vanishing_cycles; a presentation read
    from JSON holds one object per equal datum, and equal but distinct data
    built by a caller are each computed.

    The coefficients are first summed per fiber: per reduced (numerator,
    denominator) point and fiber-class object, so equal points meet with no
    Fraction hash and a phi shared by many generators is weighed once.  Then
    each such fiber with a nonzero weight adds its class once into one dict
    per atom, point and exponent, and a1._line builds the class.
    """
    weights: dict = {}  # ((numerator, denominator), id of a class) -> its summed coefficient
    classes: dict = {}  # id -> class; holding each class keeps its id its own
    for coeff, g in p:
        if not isinstance(coeff, int):
            raise ValidationError(f"presentation coefficient {coeff!r} is not an integer")
        if not isinstance(g, Resolved):
            for point, cls in _fibers(g):  # no datum, so no phi to look up
                classes[id(cls)] = cls
                key = (point.as_integer_ratio(), id(cls))
                weights[key] = weights.get(key, 0) + coeff
            continue
        for point, d in g.criticals:  # _fibers of a Resolved, each phi read in place
            cls = vanishing_cycles(d)[0]
            classes[id(cls)] = cls
            key = (point.as_integer_ratio(), id(cls))
            weights[key] = weights.get(key, 0) + coeff
    acc: dict = {}  # atom -> slot -> exponent -> integer
    slot_of: dict = {}  # (numerator, denominator) -> its slot, in slot order
    for (point, i), w in weights.items():
        if not w:
            continue
        slot = slot_of.setdefault(point, len(slot_of))
        for atom, c in classes[i].terms():
            at = acc.get(atom)
            if at is None:
                at = acc[atom] = {}
            coeffs = at.get(slot)
            if coeffs is None:
                coeffs = at[slot] = {}
            for e, x in c.items():
                coeffs[e] = coeffs.get(e, 0) + w * x
    return _line(acc, list(slot_of))


def ts_check(g_v: Generator, g_w: Generator, direct: Generator) -> dict:
    """Compare the measure of a sum-of-potentials family with the convolution.

    Returns per-base-point symbolic equality of a1_star(phi(g_v), phi(g_w))
    against phi(direct), plus the overall verdict.  A point on one side only
    is unequal, as neither side holds a zero fiber, so the overall verdict is
    the conjunction of the per-point ones.
    """
    left = a1_star(phi_generator(g_v), phi_generator(g_w)).support()
    right = phi_generator(direct).support()
    # both supports are sorted by point, so one merge lines them up, reading the
    # order of two points from their reduced ratios: no Fraction is hashed
    by_point, i, j = [], 0, 0
    while i < len(left) or j < len(right):
        if j == len(right):
            order = -1
        elif i == len(left):
            order = 1
        else:
            (n, d), (m, e) = left[i][0].as_integer_ratio(), right[j][0].as_integer_ratio()
            order = n * e - m * d  # the sign of p - q, as d, e > 0
        if order <= 0:
            point, left_fiber = left[i]
            i += 1
        if order >= 0:
            point, right_fiber = right[j]
            j += 1
        by_point.append({"point": point_str(point),
                         "equal": order == 0 and left_fiber == right_fiber})
    return {"equal": all(map(itemgetter("equal"), by_point)), "by_point": by_point}
