"""Ring homomorphisms out of the class algebra, plus a point-count oracle.

chi_c evaluates the compactly supported Euler characteristic: L goes to 1,
an orbit of size d to d, Fermat atoms (either action) to -n^r, opaque atoms
to their stored value; it is multiplicative over factors and over both
products of the engine.

The E-polynomial realization is defined on action-free classes whose atoms
are built from L-powers, points, fer(n,2) factors, and opaque factors that
carry E-data.  It sends L to uv and fer(n,2) to uv - g u - g v + 1 - 3n with
g = (n-1)(n-2)/2, the Hodge numbers of the smooth projective degree-n curve
minus its 3n boundary points.

The oracle counts points of the Fermat locus over a finite field by brute
enumeration; it exists to validate atom data independently of the rules.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Mapping

from .classes import Factor, MuClass, factor_str
from .errors import OracleBudgetError, RealizationUndefinedError, ValidationError
from .laurent import LaurentInt
from .sparse import Sparse, monomial, power, signed_join

DEFAULT_ORACLE_BUDGET = 10 ** 8
ORACLE_BUDGET_ENV = "MOTIVIC_ORACLE_BUDGET"


def factor_chi(f: Factor) -> int:
    kind = f[0]
    if kind == "orb":
        return f[1]
    if kind in ("FER", "fer"):
        return -(f[1] ** f[2])
    if kind == "opq":
        return f[2]
    raise ValidationError(f"no Euler characteristic for raw factor {f!r}")


def chi_c(c: MuClass) -> int:
    """Compactly supported Euler characteristic of a class."""
    total = 0
    for atom, coeff in c.terms():
        total += coeff.sum_of_coefficients() * math.prod(factor_chi(f) for f in atom)
    return total


def chi_of_a1(f) -> int:
    """chi_c of the pushforward to the point of a class over the affine line."""
    return chi_c(f.pushforward())


# --- E-polynomial -----------------------------------------------------------

class EPoly(Sparse):
    """Two-variable Laurent polynomial in u, v with integer coefficients."""

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
        return self._make(((i1 + i2, j1 + j2), c1 * c2)
                          for (i1, j1), c1 in self._terms for (i2, j2), c2 in other._terms)

    def evaluate(self, u, v):
        from fractions import Fraction
        return sum((Fraction(c) * Fraction(u) ** i * Fraction(v) ** j
                    for (i, j), c in self._terms), Fraction(0))

    def __str__(self) -> str:
        return signed_join((c < 0, monomial(abs(c), power("u", i), power("v", j)))
                           for (i, j), c in reversed(self._terms))

    __repr__ = __str__


def _coeff_epoly(coeff: LaurentInt) -> EPoly:
    # L^e goes to (uv)^e; exponents ascending give keys (e, e) ascending
    return EPoly._wrap(tuple(((e, e), c) for e, c in coeff.items()))


def _factor_epoly(f: Factor) -> EPoly:
    kind = f[0]
    if kind == "fer" and f[2] == 2:
        n = f[1]
        g = (n - 1) * (n - 2) // 2
        return EPoly({(1, 1): 1, (1, 0): -g, (0, 1): -g, (0, 0): 1 - 3 * n})
    if kind == "opq" and f[3] is not None:
        return EPoly(dict(f[3]))
    raise RealizationUndefinedError(factor_str(f))


def e_polynomial(c: MuClass) -> EPoly:
    """Hodge-Deligne E-polynomial of an action-free class.

    The caller is expected to forget the action first; any orbit or
    equivariant Fermat factor, any fer(n,r) with r >= 3, and any opaque
    factor without stored E-data raise RealizationUndefinedError.
    """
    terms: list = []
    for atom, coeff in c.terms():
        terms += math.prod(map(_factor_epoly, atom), start=_coeff_epoly(coeff)).items()
    return EPoly._make(terms)


# --- finite fields and the brute-force oracle --------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            return False
    return True


def _prime_power(q: int) -> tuple[int, int]:
    """Split q as p^k or raise."""
    if not isinstance(q, int) or q < 2:
        raise ValidationError(f"field size must be an integer >= 2, got {q!r}")
    p = next((d for d in range(2, int(q ** 0.5) + 1) if q % d == 0), q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1 or not _is_prime(p):
        raise ValidationError(f"{q} is not a prime power")
    return p, k


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce modulo the monic polynomial mod
    k = len(mod) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * mod[j]) % p
    out = out[:k]
    return out + [0] * (k - len(out))


def _poly_powmod(a, e, mod, p):
    k = len(mod) - 1
    out = [1] + [0] * (k - 1)
    base = list(a)
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return out


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    def deg(x):
        d = len(x) - 1
        while d >= 0 and x[d] == 0:
            d -= 1
        return d
    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[deg(b)], p - 2, p)
        while deg(a) >= deg(b) >= 0:
            shift = deg(a) - deg(b)
            c = a[deg(a)] * inv % p
            for i in range(deg(b) + 1):
                a[i + shift] = (a[i + shift] - c * b[i]) % p
        a, b = b, a
    return a


def _find_irreducible(p: int, k: int) -> list[int]:
    """Monic irreducible polynomial of degree k over F_p (coefficient list)."""
    if k == 1:
        return [0, 1]
    x = [0, 1]
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [1]
        if f[0] == 0:
            continue
        # f is irreducible iff x^(p^k) = x mod f and gcd(x^(p^i) - x, f) = 1
        # for all i <= k/2
        ok = True
        for i in range(1, k // 2 + 1):
            xpi = _poly_powmod(x, p ** i, f, p)
            diff = [(xpi[j] - x[j] if j < len(x) else xpi[j]) % p for j in range(k)]
            g = _poly_gcd(diff, f, p)
            if sum(1 for c in g if c) != 1 or g[0] == 0 or any(g[1:]):
                ok = False
                break
        if not ok:
            continue
        xq = _poly_powmod(x, p ** k, f, p)
        if xq == x + [0] * (k - len(x)):
            return f
    raise ValidationError(f"no irreducible polynomial found for GF({p}^{k})")


def _field_elements(q: int):
    """Nonzero elements, the unit, addition, and multiplication for GF(q)."""
    p, k = _prime_power(q)
    if k == 1:
        nonzero = list(range(1, p))
        one = 1
        addf = lambda a, b: (a + b) % p
        mulf = lambda a, b: (a * b) % p
        return nonzero, one, addf, mulf
    mod = _find_irreducible(p, k)
    nonzero = [tup for tup in itertools.product(range(p), repeat=k) if any(tup)]
    one = tuple([1] + [0] * (k - 1))
    addf = lambda a, b: tuple((x + y) % p for x, y in zip(a, b))
    mulf = lambda a, b: tuple(_poly_mulmod(list(a), list(b), mod, p))
    return nonzero, one, addf, mulf


def oracle_budget() -> int:
    raw = os.environ.get(ORACLE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ORACLE_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"bad {ORACLE_BUDGET_ENV} value {raw!r}") from exc


def count_fermat_points(n: int, r: int, q: int, budget: int | None = None) -> int:
    """Number of solutions of x_1^n + ... + x_r^n = 1 with all x_i nonzero in GF(q)."""
    if n < 2 or r < 1:
        raise ValidationError(f"fermat oracle wants n >= 2, r >= 1, got ({n}, {r})")
    _prime_power(q)  # raises unless q is a prime power
    if math.gcd(q, n) != 1:
        raise ValidationError(f"field size {q} is not coprime to exponent {n}")
    if budget is None:
        budget = oracle_budget()
    if (q - 1) ** r > budget:
        raise OracleBudgetError(
            f"enumeration of {(q - 1) ** r} tuples exceeds budget {budget}")
    nonzero, one, addf, mulf = _field_elements(q)

    def power(x):
        out = one
        for _ in range(n):
            out = mulf(out, x)
        return out

    powers = [power(x) for x in nonzero]
    count = 0
    for combo in itertools.product(powers, repeat=r):
        total = combo[0]
        for y in combo[1:]:
            total = addf(total, y)
        if total == one:
            count += 1
    return count


def point_count_oracle(factor: Factor, q: int, budget: int | None = None) -> int:
    """Brute-force point count for a fer(n,r) factor over GF(q)."""
    if not (isinstance(factor, tuple) and len(factor) == 3 and factor[0] == "fer"):
        raise ValidationError(f"oracle wants a fer(n,r) factor, got {factor!r}")
    return count_fermat_points(factor[1], factor[2], q, budget)
