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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Union

from .a1 import A1Class, a1_star, as_point, point_str
from .classes import MuClass
from .errors import DatumValidationError, ValidationError
from .laurent import ONE_MINUS_L
from .realize import chi_c

LOCUS_TAGS = ("regular", "singular")


@dataclass(frozen=True)
class Stratum:
    index_set: frozenset[str]
    base_class: MuClass
    cover_class: MuClass
    locus: str

    def __post_init__(self):
        object.__setattr__(self, "index_set", frozenset(self.index_set))


@dataclass(frozen=True)
class SNCDatum:
    components: tuple[tuple[str, int], ...]
    strata: tuple[Stratum, ...]
    fiber_regular: MuClass
    fiber_singular: MuClass

    def __post_init__(self):
        checked = []
        for i, m in self.components:
            if not isinstance(i, str) or not isinstance(m, int):
                raise ValidationError(f"component ({i!r}, {m!r}) wants a string id and integer m")
            checked.append((i, int(m)))  # int() stores a bool as the integer it stands for
        object.__setattr__(self, "components", tuple(checked))
        object.__setattr__(self, "strata", tuple(self.strata))

    def multiplicity(self, component_id: str) -> int:
        for i, m in self.components:
            if i == component_id:
                return m
        raise ValidationError(f"unknown component {component_id!r}")

    def stratum_gcd(self, stratum: Stratum) -> int:
        return math.gcd(*(self.multiplicity(i) for i in stratum.index_set))


def validate_datum(d: SNCDatum) -> list[str]:
    """All violated invariants of a datum; empty iff valid."""
    report: list[str] = []
    ids = [i for i, _ in d.components]
    if len(set(ids)) != len(ids):
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
        unknown = s.index_set.difference(ids)
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
        m_i = d.stratum_gcd(s)
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


@dataclass(frozen=True)
class Resolved:
    """A family with finitely many critical values, each carrying SNC data."""

    criticals: tuple[tuple[Fraction, SNCDatum], ...]

    def __post_init__(self):
        pts = [(as_point(p), d) for p, d in self.criticals]
        if len({p for p, _ in pts}) != len(pts):
            raise ValidationError("critical values must be pairwise distinct")
        object.__setattr__(self, "criticals", tuple(sorted(pts, key=lambda item: item[0])))


@dataclass(frozen=True)
class Constant:
    """A family sitting entirely over one value of the line."""

    value: Fraction
    fiber_class: MuClass

    def __post_init__(self):
        if not self.fiber_class.is_trivial_action():
            raise ValidationError("constant generator class carries a nontrivial action")
        object.__setattr__(self, "value", as_point(self.value))


@dataclass(frozen=True)
class SmoothProper:
    """A fiberwise smooth and proper family; contributes nothing."""


Generator = Union[Resolved, Constant, SmoothProper]

Presentation = tuple  # tuple of (int coefficient, Generator) pairs


def phi_generator(g: Generator) -> A1Class:
    """Vanishing-cycle class of one generator, as a class over the line."""
    if isinstance(g, Resolved):
        return A1Class([(p, vanishing_cycles(d)[0]) for p, d in g.criticals])
    if isinstance(g, Constant):
        return A1Class({g.value: g.fiber_class})
    if isinstance(g, SmoothProper):
        return A1Class.zero()
    raise ValidationError(f"unknown generator {g!r}")


def phi_measure(p: Presentation) -> A1Class:
    """The measure on a presentation: coefficient-weighted sum over generators."""
    terms: list[tuple[Fraction, MuClass]] = []
    for coeff, g in p:
        if not isinstance(coeff, int):
            raise ValidationError(f"presentation coefficient {coeff!r} is not an integer")
        terms += (phi_generator(g) * coeff).support()
    return A1Class._make(terms)


def ts_check(g_v: Generator, g_w: Generator, direct: Generator) -> dict:
    """Compare the measure of a sum-of-potentials family with the convolution.

    Returns per-base-point symbolic equality of a1_star(phi(g_v), phi(g_w))
    against phi(direct), plus the overall verdict.
    """
    lhs = a1_star(phi_generator(g_v), phi_generator(g_w))
    rhs = phi_generator(direct)
    points = sorted({p for p, _ in lhs.support()} | {p for p, _ in rhs.support()})
    by_point = [{"point": point_str(p), "equal": lhs.fiber(p) == rhs.fiber(p)}
                for p in points]
    return {"equal": lhs == rhs, "by_point": by_point}
