"""Classes over the affine line supported on finitely many rational points.

An A1Class is a finitely supported map from exact rational base points to
MuClass values; it models the classes that arise as finite sums of
point-pushforwards.  The convolution over the line pushes the pairwise Psi
along addition of base points, its unit is the point class sitting at 0, and
epsilon_push (sum of all fibers) intertwines it with star on the point.

Base points are exact rationals even though the theory runs over an
algebraically closed field: every computation shipped here has rational
critical values, and exactness beats generality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .classes import MuClass
from .convolve import psi_pair, tensor
from .errors import ValidationError
from .laurent import LaurentInt
from .sparse import Sparse

PointLike = Union[Fraction, int, str]


def as_point(value: PointLike) -> Fraction:
    """Coerce an exact base point; strings use the "p/q" form."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
    return A1Class._make((p + q, psi_pair(tensor(cp, cq)))
                         for p, cp in f.support() for q, cq in g.support())


def epsilon_push(f: A1Class) -> MuClass:
    return f.pushforward()
