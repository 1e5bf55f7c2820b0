"""Independent brute-force oracles used to compute expected values.

Nothing here goes through the engine's rewrite rules: orbit structure is
counted on explicit finite sets, point counts are enumerated over explicit
finite fields, and curve invariants come from the genus formula.  Tests
freeze the numbers these oracles produce and compare the engine against them.
"""

from __future__ import annotations

import itertools
import math


def diagonal_orbit_structure(d: int, e: int) -> tuple[int, int]:
    """Orbits of the diagonal cyclic action on a product of two cyclic orbits.

    The product of free transitive orbits of sizes d and e is the set
    Z/d x Z/e; the diagonal generator adds (1, 1).  Returns
    (number of orbits, common orbit size) after checking all orbits share
    one size.
    """
    points = {(a, b) for a in range(d) for b in range(e)}
    sizes = []
    while points:
        start = min(points)
        orbit = set()
        cur = start
        while cur not in orbit:
            orbit.add(cur)
            cur = ((cur[0] + 1) % d, (cur[1] + 1) % e)
        sizes.append(len(orbit))
        points -= orbit
    assert len(set(sizes)) == 1
    return len(sizes), sizes[0]


def count_fermat_affine(n: int, r: int, q: int, target: int) -> int:
    """#{x in (F_q^*)^r : sum x_i^n = target mod q} by plain enumeration (q prime)."""
    powers = [pow(x, n, q) for x in range(1, q)]
    def rec(i, acc):
        if i == r:
            return 1 if acc % q == target % q else 0
        return sum(rec(i + 1, acc + p) for p in powers)
    return rec(0, 0)


def sum_of_powers_counts(n: int, r: int, q: int) -> list[int]:
    """#{x in F_q^r : sum x_i^n = t} for t = 0, ..., q - 1 (q prime).

    r steps of additive convolution of the value distribution of x^n over F_q,
    zero included; no tuple is enumerated.
    """
    values = [0] * q
    for x in range(q):
        values[pow(x, n, q)] += 1
    counts = [1] + [0] * (q - 1)  # r = 0: the empty sum is 0
    for _ in range(r):
        counts = [sum(k * counts[(t - v) % q] for v, k in enumerate(values) if k)
                  for t in range(q)]
    return counts


def count_fermat_gf_p2(n: int, r: int, p: int) -> int:
    """#{x in (GF(p^2)^*)^r : sum x_i^n = 1} by plain enumeration (p odd prime).

    GF(p^2) is F_p[i]/(i^2 - c) with c the least quadratic non-residue mod p
    (Euler's criterion); an element a + b i is the explicit pair (a, b).
    """
    c = next(t for t in range(2, p) if pow(t, (p - 1) // 2, p) == p - 1)

    def mul(x, y):
        (a, b), (s, t) = x, y
        return (a * s + c * b * t) % p, (a * t + b * s) % p

    def power(x):
        out = (1, 0)
        for _ in range(n):
            out = mul(out, x)
        return out

    powers = [power((a, b)) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    return sum(1 for combo in itertools.product(powers, repeat=r)
               if (sum(a for a, _ in combo) % p, sum(b for _, b in combo) % p) == (1, 0))


def circle_minus_axes_count(q: int) -> int:
    """#{x^2 + y^2 = 1, xy != 0 over F_q} from the conic parametrization.

    The smooth conic has q - eta(-1) affine points (eta the quadratic
    character); the four axis points (0, +-1), (+-1, 0) are removed.
    """
    assert q % 2 == 1
    eta_minus_one = 1 if q % 4 == 1 else -1
    return q - eta_minus_one - 4


def nth_roots_of_minus_one(n: int, q: int) -> int:
    """#{t in F_q : t^n = -1} by enumeration (q prime)."""
    return sum(1 for t in range(q) if pow(t, n, q) == (q - 1) % q)


def fermat_curve_euler_data(n: int) -> tuple[int, int]:
    """(genus, chi of the torus part) for the degree-n Fermat curve.

    The smooth projective model has genus (n-1)(n-2)/2; removing the n
    points at infinity and the 2n points on the coordinate axes leaves
    Euler characteristic 2 - 2g - 3n.
    """
    g = (n - 1) * (n - 2) // 2
    return g, 2 - 2 * g - 3 * n


def torus_fermat_chi(n: int, r: int) -> int:
    """chi_c of {sum_{i<=r} x_i^n = 1} in the r-torus, by stratification.

    Uses chi(smooth affine hypersurface A(r)) = (1-n) chi(A(r-1)) + n and
    Moebius inversion over vanishing coordinate sets; independent of the
    engine's conventions.  (Equals (-1)^(r+1) n^r.)
    """
    affine = [0] * (r + 1)
    affine[0] = 0
    if r >= 1:
        affine[1] = n
    for k in range(2, r + 1):
        affine[k] = (1 - n) * affine[k - 1] + n
    torus = [0] * (r + 1)
    for k in range(1, r + 1):
        torus[k] = affine[k] - sum(math.comb(k, j) * torus[j] for j in range(k))
    return torus[r]
