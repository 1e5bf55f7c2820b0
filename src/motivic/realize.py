"""Ring homomorphisms out of the class algebra, plus a point-count oracle.

chi_c evaluates the compactly supported Euler characteristic: L goes to 1,
an orbit of size d to d, Fermat atoms (either action) to -n^r, opaque atoms
to their stored value; it is multiplicative over factors and over both
products of the engine.

The E-polynomial realization is defined on action-free classes whose atoms
are built from L-powers, points, fer(n,2) factors, and opaque factors that
carry E-data.  It sends L to uv and fer(n,2) to uv - g u - g v + 1 - 3n with
g = (n-1)(n-2)/2, the Hodge numbers of the smooth projective degree-n curve
minus its 3n boundary points.  Its value type EPoly lives in laurent.py.

The oracle counts points of the Fermat locus over a finite field by brute
enumeration; it exists to validate atom data independently of the rules.
GF(p^k) is F_p[x]/(f) for the first primitive polynomial f in a fixed order,
kept as the table of the powers of x, so x^n is one lookup whatever n.  The
budget counts the r entries of each of the (q-1)^r tuples, and is checked
before q is factored or any table is built.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import reduce

from .classes import TOWER_LIMIT, Factor, MuClass, factor_str
from .errors import OracleBudgetError, RealizationUndefinedError, ValidationError
from .laurent import EPoly, LaurentInt

DEFAULT_ORACLE_BUDGET = 10 ** 8
ORACLE_BUDGET_ENV = "MOTIVIC_ORACLE_BUDGET"


def factor_chi(f: Factor) -> int:
    kind = f[0]
    if kind == "orb":
        return f[1]
    if kind in ("FER", "fer"):
        if f[2] > TOWER_LIMIT:  # n^r has more than r bits: refuse before computing it
            raise ValidationError(f"chi_c of {factor_str(f)} exceeds the limit r <= {TOWER_LIMIT}")
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
        return EPoly._wrap(f[3])  # opq() stored it in EPoly's canonical form
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

_SHOWN_BITS = 7000  # larger (q-1)^r are not written out: Python prints <= 4300 digits


def _prime_power(q: int) -> tuple[int, int]:
    """Split q >= 2 as p^k or raise; p, the least divisor >= 2, is prime."""
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValidationError(f"{q} is not a prime power")
    return p, k


def _field_powers(p: int, k: int) -> list[int]:
    """x^0, ..., x^(q-2) in GF(p^k) = F_p[x]/(f), as codes whose base-p digits
    are the coefficients, for f = x^k - (t_0 + ... + t_(k-1) x^(k-1)) the first
    tail t, in code order, under which x has order q - 1.  With t_0 != 0, x is a
    unit of order at most q - 1, and order q - 1 makes every nonzero residue a
    power of x: f is irreducible and x generates the multiplicative group.
    """
    q = p ** k
    places = [p ** i for i in range(k)]

    def powers_of_x(tail: list[int]) -> list[int]:
        powers, digits = [1], [1] + [0] * (k - 1)
        while len(powers) < q - 1:
            top = digits[-1]  # x * x^(k-1) = t_0 + t_1 x + ...
            digits = [(low + top * t) % p for low, t in zip([0] + digits[:-1], tail)]
            code = sum(d * place for d, place in zip(digits, places))
            if code == 1:
                break
            powers.append(code)
        return powers

    tails = ([c // place % p for place in places] for c in range(1, q) if c % p)
    return next(powers for powers in map(powers_of_x, tails) if len(powers) == q - 1)


def oracle_budget() -> int:
    raw = os.environ.get(ORACLE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ORACLE_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"bad {ORACLE_BUDGET_ENV} value {raw!r}") from exc


def _check_budget(q: int, r: int, budget: int) -> None:
    """Refuse unless the (q-1)^r tuples, and their r entries each, fit the budget."""
    base = q - 1
    if base > 1 and r * base.bit_length() > 2 * _SHOWN_BITS and budget < 1 << _SHOWN_BITS:
        # base^r >= 2^(r*(bits-1)) > 2^_SHOWN_BITS: over budget and too long to write out
        raise OracleBudgetError(f"enumeration of {base}^{r} tuples exceeds budget {budget}")
    tuples = base ** r
    if tuples > budget:
        raise OracleBudgetError(f"enumeration of {tuples} tuples exceeds budget {budget}")
    if r * tuples > budget:
        raise OracleBudgetError(f"enumeration of {tuples} tuples of {r} entries each "
                                f"({r * tuples} entries) exceeds budget {budget}")


def count_fermat_points(n: int, r: int, q: int, budget: int | None = None) -> int:
    """Number of solutions of x_1^n + ... + x_r^n = 1 with all x_i nonzero in GF(q)."""
    if n < 2 or r < 1:
        raise ValidationError(f"fermat oracle wants n >= 2, r >= 1, got ({n}, {r})")
    if not isinstance(q, int) or q < 2:
        raise ValidationError(f"field size must be an integer >= 2, got {q!r}")
    _check_budget(q, r, oracle_budget() if budget is None else budget)
    p, k = _prime_power(q)
    if math.gcd(q, n) != 1:
        raise ValidationError(f"field size {q} is not coprime to exponent {n}")
    powers = _field_powers(p, k)
    # recode in base w: a sum of r codes then has every digit below w, so no
    # digit carries, and the sum is 1 iff digit 0 is 1 and the others 0 mod p
    w = r * (p - 1) + 1
    wide = [sum(c // p ** i % p * w ** i for i in range(k)) for c in powers]
    is_one = bytearray(w ** k)
    for digits in itertools.product(range(1, w, p), *[range(0, w, p)] * (k - 1)):
        is_one[sum(d * w ** i for i, d in enumerate(digits))] = 1
    values = [wide[n * i % (q - 1)] for i in range(q - 1)]  # x^n for x = x^i
    add = lambda a, b: a + b  # a Python-level add, not sum(): see ROADMAP, "Next change to the benchmark"
    return sum(is_one[reduce(add, combo)] for combo in itertools.product(values, repeat=r))


def point_count_oracle(factor: Factor, q: int, budget: int | None = None) -> int:
    """Brute-force point count for a fer(n,r) factor over GF(q)."""
    if not (isinstance(factor, tuple) and len(factor) == 3 and factor[0] == "fer"):
        raise ValidationError(f"oracle wants a fer(n,r) factor, got {factor!r}")
    return count_fermat_points(factor[1], factor[2], q, budget)
