"""Exact Laurent polynomials over the integers: in L, and in u, v.

A LaurentInt is a finitely supported map from integer exponents (negative
allowed) to arbitrary-precision integer coefficients.  The invariant is that
no zero coefficient is ever stored, so structural equality is semantic
equality.  Instances are immutable and hashable; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .sparse import Sparse, monomial, power, signed_join

Coeffable = Union["LaurentInt", int]


class LaurentInt(Sparse):

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        checked = []
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise TypeError("LaurentInt wants integer exponents and coefficients")
            checked.append((int(exp), int(c)))  # int() stores a bool as the integer it stands for
        self._terms = self._canonical(checked)

    @classmethod
    def from_int(cls, n: int) -> "LaurentInt":
        return cls({0: n})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentInt":
        return cls({exp: coeff})

    def items(self) -> tuple[tuple[int, int], ...]:
        """Coefficients as (exponent, value) pairs, exponents ascending."""
        return self._terms

    @classmethod
    def _coerce(cls, other: Coeffable) -> "LaurentInt | None":
        if isinstance(other, LaurentInt):
            return other
        if isinstance(other, int):
            return cls._wrap(((0, int(other)),) if other else ())
        return None

    __add__ = __radd__ = Sparse.__add__
    __neg__ = Sparse.__neg__
    __sub__ = Sparse.__sub__

    def __rsub__(self, other: Coeffable) -> "LaurentInt":
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other: Coeffable) -> "LaurentInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make((e1 + e2, c1 * c2)
                          for e1, c1 in self._terms for e2, c2 in o._terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentInt":
        if not isinstance(n, int):
            # not NotImplemented: Fraction.__rpow__ would turn L ** Fraction(2) into L ** 2
            raise TypeError(f"LaurentInt ** wants an int exponent, not {type(n).__name__}")
        if n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sum_of_coefficients(self) -> int:
        """Evaluation at L = 1 (the Euler-characteristic specialization)."""
        return sum(c for _, c in self._terms)

    def evaluate(self, value: int | Fraction) -> Fraction:
        """Exact evaluation at a nonzero rational value."""
        x = Fraction(value)
        if x == 0 and any(e < 0 for e, _ in self._terms):
            raise ZeroDivisionError("negative exponent at 0")
        return sum((Fraction(c) * x ** e for e, c in self._terms), Fraction(0))

    def __str__(self) -> str:
        # leading exponent first
        return signed_join((c < 0, monomial(abs(c), power("L", e)))
                           for e, c in reversed(self._terms))

    def __repr__(self) -> str:
        return f"LaurentInt({dict(self._terms)!r})"


ZERO = LaurentInt()
ONE = LaurentInt({0: 1})
L = LaurentInt({1: 1})
L_MINUS_1 = LaurentInt({1: 1, 0: -1})
ONE_MINUS_L = LaurentInt({0: 1, 1: -1})


class EPoly(Sparse):
    """Laurent polynomial in u, v: E-polynomial values, and the form of opaque E-data."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        checked = []
        for (i, j), c in items:
            if not (isinstance(i, int) and isinstance(j, int) and isinstance(c, int)):
                raise TypeError("EPoly wants integer exponents and coefficients")
            checked.append(((int(i), int(j)), int(c)))  # a bool is stored as its integer
        self._terms = self._canonical(checked)

    @classmethod
    def constant(cls, n: int) -> "EPoly":
        return cls({(0, 0): n})

    @classmethod
    def uv_power(cls, k: int) -> "EPoly":
        return cls({(k, k): 1})

    def items(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return self._terms

    def __mul__(self, other: "EPoly") -> "EPoly":
        if not isinstance(other, EPoly):
            return NotImplemented
        return self._make(((i1 + i2, j1 + j2), c1 * c2)
                          for (i1, j1), c1 in self._terms for (i2, j2), c2 in other._terms)

    def evaluate(self, u, v):
        return sum((Fraction(c) * Fraction(u) ** i * Fraction(v) ** j
                    for (i, j), c in self._terms), Fraction(0))

    def __str__(self) -> str:
        return signed_join((c < 0, monomial(abs(c), power("u", i), power("v", j)))
                           for (i, j), c in reversed(self._terms))

    __repr__ = __str__
