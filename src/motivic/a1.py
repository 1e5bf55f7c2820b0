"""Classes over the affine line supported on finitely many rational points.

An A1Class is a finitely supported map from exact rational base points to
MuClass values; it models the classes that arise as finite sums of
point-pushforwards.  The convolution over the line pushes the pairwise Psi
along addition of base points, its unit is the point class sitting at 0, and
epsilon_push (sum of all fibers) intertwines it with star on the point.

The two folds over the line, a1_star and vanishing.phi_measure, sum integer
coefficients atom-major, as acc[atom][slot] -> {exponent: integer}, where a
slot is a dense index per distinct output point, and _line builds both
results.  a1_star groups each side's fiber terms by atom and maps each pair
of points to the slot of p + q once per call, summed as reduced (numerator,
denominator) pairs; the line kernel, convolve._line_into, then reads each
pair of atoms' rule once.  _line sorts the distinct atoms once and appends
each slot's terms in that order, so no fiber is sorted on its own, and makes
one Fraction per output point, hashing none.  Points sort by
floor(p * 2**64), an integer that orders them as p does; only two points
within 2**-64 of each other fall back to comparing the Fractions.  One pair
of points has no rule read to share, so a1_star of two one-point classes (as
in ts_check) is star at p + q, through star's loop: convolve._psi.

Base points are exact rationals even though the theory runs over an
algebraically closed field: every computation shipped here has rational
critical values, and exactness beats generality.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd

from .classes import MuClass, sort_atoms
from .convolve import _line_into, _psi
from .errors import ValidationError, _checked
from .laurent import LaurentInt, Sparse, leaves

TYPE_CHECKING = False  # typing.TYPE_CHECKING would load typing
if TYPE_CHECKING:
    from typing import Iterable, Union

    PointLike = Union[Fraction, int, str]

_POINT_STR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_point(value: PointLike) -> Fraction:
    """Coerce an exact base point: a string [+-]?digits(/digits)? such as
    "-7/2", an int that is not a bool, or a Fraction.

    The kinds are tested in that order, strings first, as JSON writes points:
    a string is then told apart with no isinstance test against Fraction,
    whose abstract base class would run a Python-level check.
    """
    if isinstance(value, str):
        match = _POINT_STR.fullmatch(value)
        if match is not None:
            num, den = match.groups()
            try:  # int() refuses more digits than sys.get_int_max_str_digits()
                return Fraction(int(num), 1 if den is None else int(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"bad base point {value!r}") from exc
    elif isinstance(value, int):
        if not isinstance(value, bool):
            return Fraction(value)
    elif isinstance(value, Fraction):
        return value
    raise ValidationError(f"bad base point {value!r}")


def point_str(p: Fraction) -> str:
    n, d = p.as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}"


def _point_key(term):
    # floor(p * 2**64) is monotone in p; p itself breaks a tie
    n, d = term[0].as_integer_ratio()
    return (n << 64) // d, term[0]


def _checked_fiber(point: PointLike, cls: MuClass) -> tuple[Fraction, MuClass]:
    pt = as_point(point)
    if not isinstance(cls, MuClass):
        raise ValidationError(f"fiber at {point_str(pt)} is not a class")
    return pt, cls


class A1Class(Sparse):
    """Finitely supported map from base points to classes; no zero fibers."""

    __slots__ = ()

    @staticmethod
    def _sort(terms: list) -> None:
        terms.sort(key=_point_key)

    def __init__(self, support: Mapping[PointLike, MuClass] | Iterable[tuple[PointLike, MuClass]] = ()):
        items = support.items() if isinstance(support, Mapping) else support
        self._terms = self._canonical(_checked_fiber(pt, cls) for pt, cls in items)

    @classmethod
    def zero(cls) -> "A1Class":
        return cls._wrap(())

    def support(self) -> tuple[tuple[Fraction, MuClass], ...]:
        return self._terms

    def fiber(self, point: PointLike) -> MuClass:
        pt = as_point(point)
        for p, c in self._terms:
            if p == pt:
                return c
        return MuClass.zero()

    __add__ = Sparse.__add__
    __neg__ = Sparse.__neg__
    __sub__ = Sparse.__sub__

    def __mul__(self, other: Union[int, LaurentInt, MuClass]) -> "A1Class":
        if not isinstance(other, (int, LaurentInt, MuClass)):
            return NotImplemented
        return A1Class._make((p, c * other) for p, c in self._terms)

    __rmul__ = __mul__

    def pushforward(self) -> MuClass:
        """Sum of all fibers: the pushforward along the structure morphism."""
        return MuClass._make(t for _, c in self._terms for t in c.terms())

    def __str__(self) -> str:
        from .jsonio import pretty
        return pretty(self)

    def __repr__(self) -> str:
        return f"A1Class({[(point_str(p), str(c)) for p, c in self._terms]!r})"


def a1_unit() -> A1Class:
    """The unit of the line convolution: the point class at 0."""
    return A1Class({0: MuClass.one()})


def _line(acc: dict, points: list) -> A1Class:
    """The class over the line whose integer coefficients acc sums.

    acc maps atoms to dicts from slots to dicts from exponents to integers, and
    points[slot] is the reduced (numerator, denominator) pair of a slot's point.
    The atoms are sorted once and each slot's terms appended in that order;
    zeros are dropped at every level, so a point whose fiber cancels goes too.
    """
    fibers: list = [[] for _ in points]
    atoms = list(acc.items())
    sort_atoms(atoms)
    for atom, at in atoms:
        for slot, value in zip(at, leaves(at.values())):
            if value._terms:
                fibers[slot].append((atom, value))
    floors, terms = [], []
    for (n, d), fiber in zip(points, fibers):
        if fiber:
            floors.append((n << 64) // d)
            terms.append((Fraction(n, d), MuClass._wrap(tuple(fiber))))
    # floor(p * 2**64) is monotone in p, so only points with equal floors compare as Fractions
    return A1Class._wrap(tuple([term for _, term in sorted(zip(floors, terms))]))


def a1_star(f: A1Class, g: A1Class) -> A1Class:
    """Convolution over the line: Psi of fibers pushed along point addition.
    Two one-point classes take star's loop, any other shape the line kernel."""
    _checked(f, A1Class, "f")
    _checked(g, A1Class, "g")
    if len(f._terms) == 1 == len(g._terms):
        ((p, c),), ((q, d),) = f._terms, g._terms
        fiber = _psi([(c._terms, d._terms)])
        (a, b), (n, m) = p.as_integer_ratio(), q.as_integer_ratio()
        return A1Class._wrap(((Fraction(a * m + b * n, b * m), fiber),) if fiber._terms else ())
    acc: dict = {}
    slot_of: dict = {}  # reduced (numerator, denominator) of a sum -> its slot, in slot order
    qs = [q.as_integer_ratio() for q, _ in g.support()]
    slots = []
    for p, _ in f.support():
        a, b = p.as_integer_ratio()
        row = []
        for c, d in qs:
            n, m = a * d + b * c, b * d
            k = gcd(n, m)
            row.append(slot_of.setdefault((n // k, m // k), len(slot_of)))
        slots.append(row)
    _line_into(acc, _by_atom(f), _by_atom(g), slots)
    return _line(acc, list(slot_of))


def _by_atom(f: A1Class) -> dict:
    """atom -> the (point index, LaurentInt items) terms of f's fibers that carry it."""
    out: dict = {}
    for i, (_, c) in enumerate(f.support()):
        for atom, k in c.terms():
            terms = out.get(atom)
            if terms is None:
                terms = out[atom] = []
            terms.append((i, k.items()))
    return out


def epsilon_push(f: A1Class) -> MuClass:
    return _checked(f, A1Class, "f").pushforward()
