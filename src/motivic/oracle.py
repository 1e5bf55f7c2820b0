"""The point-count oracle: Fermat points over a finite field, by enumeration.

The oracle counts points of the literal Fermat locus over a finite field by
brute enumeration, independently of the rules.  The locus is the atom fer(n,r)
only for r <= 2; for r >= 3 the atom is the class convolution defines
(classes).  GF(p^k) is F_p[x]/(f) for the first primitive polynomial f in a
fixed order, kept as the table of the powers of x, so x^n is one lookup
whatever n.  The budget counts the r entries of each of the (q-1)^r tuples, and
is checked before q is factored or any table is built.  Two cases need no
table: at r = 1 the count is gcd(n, q-1), the roots of x^n = 1 in the cyclic
group GF(q)^*, and at q = 2 it is r mod 2, since GF(2)^* = {1}.

The module uses the standard library alone, so the CLI's oracle requests load
none of the class layers.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import reduce

from .errors import OracleBudgetError, ValidationError

DEFAULT_ORACLE_BUDGET = 10 ** 8
ORACLE_BUDGET_ENV = "MOTIVIC_ORACLE_BUDGET"

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
    if not isinstance(n, int) or not isinstance(r, int) or n < 2 or r < 1:
        raise ValidationError(f"fermat oracle wants integers n >= 2, r >= 1, got ({n!r}, {r!r})")
    if not isinstance(q, int) or q < 2:
        raise ValidationError(f"field size must be an integer >= 2, got {q!r}")
    _check_budget(q, r, oracle_budget() if budget is None else budget)
    p, k = _prime_power(q)
    if math.gcd(q, n) != 1:
        raise ValidationError(f"field size {q} is not coprime to exponent {n}")
    if q == 2:  # the one tuple is (1, ..., 1), whose sum is r
        return r % 2
    if r == 1:
        return math.gcd(n, q - 1)
    powers = _field_powers(p, k)
    # recode in base w: a sum of r codes then has every digit below w, so no
    # digit carries, and the sum is 1 iff digit 0 is 1 and the others 0 mod p
    w = r * (p - 1) + 1
    wide = [sum(c // p ** i % p * w ** i for i in range(k)) for c in powers]
    is_one = bytearray(w ** k)
    for digits in itertools.product(range(1, w, p), *[range(0, w, p)] * (k - 1)):
        is_one[sum(d * w ** i for i, d in enumerate(digits))] = 1
    values = [wide[n * i % (q - 1)] for i in range(q - 1)]  # x^n for x = x^i
    add = lambda a, b: a + b  # not sum(): the benchmark's kernel has no C-level part (ROADMAP item 1)
    return sum(is_one[reduce(add, combo)] for combo in itertools.product(values, repeat=r))
