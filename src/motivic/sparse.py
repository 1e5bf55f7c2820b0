"""The canonical form shared by the engine's finite integer combinations.

Laurent polynomials in L, E-polynomials, classes over the point, exterior
products and classes over the line are all finitely supported maps from keys
to nonzero coefficients.  Sparse stores one as a tuple of (key, coefficient)
pairs, equal keys summed, zero coefficients dropped and the pairs sorted by
the type's sort key, so structural equality is equality of values.  Every
sum, product and fold builds its result with one call to ``_make`` over all
of its terms, which sorts once.

The module also holds the signed infix renderer used by ``LaurentInt``,
``EPoly`` and ``jsonio.pretty``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable


class Sparse:
    """Immutable, hashable finite combination; subclasses add the algebra."""

    __slots__ = ("_terms",)

    # sort key of a (key, coefficient) pair; None sorts the pairs themselves,
    # which orders them by key because no two pairs share one
    _sort_key = None

    @classmethod
    def _canonical(cls, items: Iterable[tuple]) -> tuple:
        """Canonical terms of an iterable of (key, coefficient) pairs.

        Coefficients at one key are added; when they are themselves sparse
        combinations, their terms are joined and made canonical once.
        """
        # most keys occur once: keep their coefficient as it is, sum only repeats
        acc: dict = {}
        repeats: list = []
        for item in items:
            if item[0] in acc:
                repeats.append(item)
            else:
                acc[item[0]] = item[1]
        if repeats:
            groups: dict = {}
            for key, coeff in repeats:
                groups.setdefault(key, [acc[key]]).append(coeff)
            for key, group in groups.items():
                acc[key] = _total(group)
        terms = [term for term in acc.items() if term[1]]
        if len(terms) > 1:
            terms.sort(key=cls._sort_key)
        return tuple(terms)

    @classmethod
    def _make(cls, items: Iterable[tuple]) -> "Sparse":
        return cls._wrap(cls._canonical(items))

    @classmethod
    def _wrap(cls, terms: tuple) -> "Sparse":
        """Wrap terms that are already canonical: distinct keys, sorted, no zeros."""
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @classmethod
    def _coerce(cls, other) -> "Sparse | None":
        """other as a value of this type, or None when it is not one."""
        return other if type(other) is cls else None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        return o is not None and self._terms == o._terms

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._terms))

    # The benchmark's tracer (perfbench/tracing.py) wraps the methods it finds
    # in a class's own namespace, so the classes it traces bind these three
    # under their own names as well.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self._terms + o._terms)

    def __neg__(self):
        return self._wrap(tuple((k, -c) for k, c in self._terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self._terms + (-o)._terms)


def _total(coeffs: list):
    """Sum of the coefficients met at one key, made canonical once if they are sparse."""
    first = coeffs[0]
    if isinstance(first, Sparse):
        return first._make(chain.from_iterable(c._terms for c in coeffs))
    return sum(coeffs[1:], first)


# --- rendering ---------------------------------------------------------------------

def power(symbol: str, exp: int) -> str:
    """symbol^exp, with exponent 1 left out and exponent 0 rendered as ""."""
    if exp == 0:
        return ""
    return symbol if exp == 1 else f"{symbol}^{exp}"


def monomial(coeff: int, *factors: str) -> str:
    """coeff*f1*f2... for coeff >= 1; empty factors and a unit coefficient are left out."""
    body = "*".join(f for f in factors if f)
    if not body:
        return str(coeff)
    return body if coeff == 1 else f"{coeff}*{body}"


def signed_join(pieces: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as "a - b + c"; "0" when there are none."""
    out: list[str] = []
    for negative, body in pieces:
        if out:
            out.append(f"- {body}" if negative else f"+ {body}")
        else:
            out.append(f"-{body}" if negative else body)
    return " ".join(out) or "0"
