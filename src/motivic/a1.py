"""Classes over the affine line supported on finitely many rational points.

An A1Class is a finitely supported map from exact rational base points to
MuClass values; it models the classes that arise as finite sums of
point-pushforwards.  The convolution over the line pushes the pairwise Psi
along addition of base points, its unit is the point class sitting at 0, and
epsilon_push (sum of all fibers) intertwines it with star on the point.
a1_star runs the kernel of star once over all fiber pairs, summing at p + q.

The folds over the line add and hash no Fraction per fiber pair.  a1_star
reads each point as its reduced (numerator, denominator) pair once per call,
sums p + q as a reduced integer pair and keys its accumulator by that pair,
then makes one Fraction per distinct output point.  Points sort by
floor(p * 2**64), an integer that orders them as p does; only two points
within 2**-64 of each other fall back to comparing the Fractions.

Base points are exact rationals even though the theory runs over an
algebraically closed field: every computation shipped here has rational
critical values, and exactness beats generality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

from .classes import MuClass
from .convolve import _psi_into
from .errors import ValidationError
from .laurent import LaurentInt
from .sparse import Sparse, nest

PointLike = Union[Fraction, int, str]

_POINT_STR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_point(value: PointLike) -> Fraction:
    """Coerce an exact base point: a Fraction, an int that is not a bool, or a
    string [+-]?digits(/digits)? such as "-7/2"."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _POINT_STR.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad base point {value!r}") from exc
    raise ValidationError(f"bad base point {value!r}")


def point_str(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def _checked_fiber(point: PointLike, cls: MuClass) -> tuple[Fraction, MuClass]:
    pt = as_point(point)
    if not isinstance(cls, MuClass):
        raise ValidationError(f"fiber at {point_str(pt)} is not a class")
    return pt, cls


class A1Class(Sparse):
    """Finitely supported map from base points to classes; no zero fibers."""

    __slots__ = ()

    @staticmethod
    def _sort_key(term):
        # floor(p * 2**64) is monotone in p; p itself breaks a tie
        n, d = term[0].as_integer_ratio()
        return (n << 64) // d, term[0]

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


def a1_star(f: A1Class, g: A1Class) -> A1Class:
    """Convolution over the line: Psi of fibers pushed along point addition."""
    acc: dict = {}  # reduced (numerator, denominator) of p + q -> its dict for nest
    fs = [(*p.as_integer_ratio(), c.terms()) for p, c in f.support()]
    gs = [(*q.as_integer_ratio(), c.terms()) for q, c in g.support()]

    def products():
        for a, b, xs in fs:
            for c, d, ys in gs:
                n, m = a * d + b * c, b * d
                k = gcd(n, m)
                yield acc.setdefault((n // k, m // k), {}), xs, ys

    _psi_into(products())
    return nest({Fraction(n, d): sub for (n, d), sub in acc.items()}, A1Class, MuClass, LaurentInt)


def epsilon_push(f: A1Class) -> MuClass:
    return f.pushforward()
