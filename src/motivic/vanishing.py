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
values, compared and hashed by their fields; each constructor converts and
checks its arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Union

from .a1 import A1Class, a1_star, as_point, point_str
from .classes import MuClass
from .errors import DatumValidationError, ValidationError
from .laurent import ONE_MINUS_L, LaurentInt
from .realize import chi_c
from .sparse import nest

LOCUS_TAGS = ("regular", "singular")


class _Record:
    """An immutable value named by its __slots__: equal to a record of its own
    type with equal fields, hashed (once, then kept) and shown by those fields."""

    __slots__ = ("_hash",)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
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
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({shown})"


class Stratum(_Record):
    __slots__ = ("index_set", "base_class", "cover_class", "locus")

    def __init__(self, index_set: frozenset[str], base_class: MuClass, cover_class: MuClass,
                 locus: str):
        self._set(frozenset(index_set), base_class, cover_class, locus)


class SNCDatum(_Record):
    __slots__ = ("components", "strata", "fiber_regular", "fiber_singular")

    def __init__(self, components: tuple[tuple[str, int], ...], strata: tuple[Stratum, ...],
                 fiber_regular: MuClass, fiber_singular: MuClass):
        checked = []
        for i, m in components:
            if not isinstance(i, str) or not isinstance(m, int):
                raise ValidationError(f"component ({i!r}, {m!r}) wants a string id and integer m")
            checked.append((i, int(m)))  # int() stores a bool as the integer it stands for
        self._set(tuple(checked), tuple(strata), fiber_regular, fiber_singular)

    def multiplicity(self, component_id: str) -> int:
        for i, m in self.components:
            if i == component_id:
                return m
        raise ValidationError(f"unknown component {component_id!r}")

    def stratum_gcd(self, stratum: Stratum) -> int:
        return math.gcd(*(self.multiplicity(i) for i in stratum.index_set))


def validate_datum(d: SNCDatum) -> list[str]:
    """All violated invariants of a datum; empty iff valid.  The cost is linear
    in the size of the datum: each index is looked up once in one dict."""
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


def vanishing_cycles(d: SNCDatum) -> tuple[MuClass, MuClass]:
    """(phi, phi_regular): fiber minus nearby fiber, split by locus.

    phi lives on the singular locus; phi_regular vanishes for data coming
    from genuine resolutions and is returned so that defective inputs are
    visible rather than silently absorbed.
    """
    _require_valid(d)
    phi = MuClass._make(chain(d.fiber_singular.terms(), _nearby_terms(d, ("singular",), -1)))
    phi_regular = MuClass._make(chain(d.fiber_regular.terms(), _nearby_terms(d, ("regular",), -1)))
    return phi, phi_regular


# --- generators and the measure ----------------------------------------------


class Resolved(_Record):
    """A family with finitely many critical values, each carrying SNC data."""

    __slots__ = ("criticals",)

    def __init__(self, criticals: tuple[tuple[Fraction, SNCDatum], ...]):
        pts = [(as_point(p), d) for p, d in criticals]
        if len({p for p, _ in pts}) != len(pts):
            raise ValidationError("critical values must be pairwise distinct")
        self._set(tuple(sorted(pts, key=lambda item: item[0])))


class Constant(_Record):
    """A family sitting entirely over one value of the line."""

    __slots__ = ("value", "fiber_class")

    def __init__(self, value: Fraction, fiber_class: MuClass):
        if not fiber_class.is_trivial_action():
            raise ValidationError("constant generator class carries a nontrivial action")
        self._set(as_point(value), fiber_class)


class SmoothProper(_Record):
    """A fiberwise smooth and proper family; contributes nothing."""

    __slots__ = ()


Generator = Union[Resolved, Constant, SmoothProper]

Presentation = tuple  # tuple of (int coefficient, Generator) pairs


def _fibers(g: Generator, phi) -> list[tuple[Fraction, MuClass]]:
    """(point, class) fibers of one generator's measure; phi maps a datum to its phi."""
    if isinstance(g, Resolved):
        return [(p, phi(d)) for p, d in g.criticals]
    if isinstance(g, Constant):
        return [(g.value, g.fiber_class)]
    if isinstance(g, SmoothProper):
        return []
    raise ValidationError(f"unknown generator {g!r}")


def phi_generator(g: Generator) -> A1Class:
    """Vanishing-cycle class of one generator, as a class over the line."""
    return A1Class(_fibers(g, lambda d: vanishing_cycles(d)[0]))


def phi_measure(p: Presentation) -> A1Class:
    """The measure on a presentation: coefficient-weighted sum over generators.

    Each distinct datum is validated and its phi computed once per call; all
    fibers are summed into one dict per point, atom and exponent (sparse.nest).
    A point is keyed by its reduced (numerator, denominator) pair, so equal
    points share a dict with no Fraction hash; the first Fraction met for a
    key is the one in the output.
    """
    phis: dict = {}  # datum -> phi: equal copies of a datum share one computation

    def phi(d: SNCDatum) -> MuClass:
        try:
            value = phis.get(d)
        except TypeError:  # an unhashable field is invalid: vanishing_cycles reports it
            return vanishing_cycles(d)[0]
        if value is None:
            value = phis[d] = vanishing_cycles(d)[0]
        return value

    acc: dict = {}  # (numerator, denominator) -> (point, its dict for nest)
    for coeff, g in p:
        if not isinstance(coeff, int):
            raise ValidationError(f"presentation coefficient {coeff!r} is not an integer")
        for point, cls in _fibers(g, phi):
            at_point = acc.setdefault(point.as_integer_ratio(), (point, {}))[1]
            for atom, c in cls.terms():
                coeffs = at_point.setdefault(atom, {})
                for e, x in c.items():
                    coeffs[e] = coeffs.get(e, 0) + coeff * x
    return nest(dict(acc.values()), A1Class, MuClass, LaurentInt)


def ts_check(g_v: Generator, g_w: Generator, direct: Generator) -> dict:
    """Compare the measure of a sum-of-potentials family with the convolution.

    Returns per-base-point symbolic equality of a1_star(phi(g_v), phi(g_w))
    against phi(direct), plus the overall verdict.  A point on one side only
    is unequal, as neither side holds a zero fiber.
    """
    lhs = a1_star(phi_generator(g_v), phi_generator(g_w))
    rhs = phi_generator(direct)
    left, right = dict(lhs.support()), dict(rhs.support())
    # two runs already in point order: sorted() merges them in one linear pass
    points = sorted([*left, *(p for p in right if p not in left)])
    by_point = [{"point": point_str(p), "equal": left.get(p) == right.get(p)} for p in points]
    return {"equal": lhs == rhs, "by_point": by_point}
