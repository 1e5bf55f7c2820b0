"""Independent brute-force oracles used to compute expected values.

Nothing here goes through the engine's rewrite rules: orbit structure is
counted on explicit finite sets, point counts are enumerated over explicit
finite fields, and curve invariants come from the genus formula.  Tests
freeze the numbers these oracles produce and compare the engine against them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction


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


def sum_of_powers_counts(n: int, r: int, q: int, k: int = 0) -> list[int]:
    """#{x in (F_q[s]/s^{k+1})^r : sum x_i^n = t s^k mod s^{k+1}} for t = 0, ..., q - 1.

    q is prime and r >= 1.  At k = 0 these are the points of F_q^r on each
    level set sum x_i^n = t; at k >= 1, the arcs of f = sum x_i^n of order k
    and angular component t, which Denef-Loeser's zeta function counts.  The value
    distribution of x^n over the q^{k+1} arcs of one variable is added to
    itself r times (additive convolution); the last step is read at the q
    targets only, and no r-tuple of arcs is enumerated.
    """
    values: Counter = Counter()
    for x in itertools.product(range(q), repeat=k + 1):
        power = (1,) + (0,) * k
        for _ in range(n):
            power = tuple(sum(power[i] * x[j - i] for i in range(j + 1)) % q
                          for j in range(k + 1))
        values[power] += 1
    sums = {(0,) * (k + 1): 1}  # the empty sum; the last of the r terms is read below
    for _ in range(r - 1):
        added: Counter = Counter()
        for u, a in sums.items():
            for v, b in values.items():
                added[tuple((x + y) % q for x, y in zip(u, v))] += a * b
        sums = added
    return [sum(a * values.get(tuple((x - y) % q for x, y in zip((0,) * k + (t,), u)), 0)
                for u, a in sums.items())
            for t in range(q)]


def zeta_coefficient(datum, nu: dict[str, int], q: int, t: int, k: int) -> Fraction:
    """The T^k coefficient of Denef-Loeser's motivic zeta function, twisted by t, over F_q.

    From a resolution datum of f and the log discrepancy nu[i] of each
    component i (multiplicity N_i),
        Z(T) = sum_{I != 0} (L - 1)^{|I| - 1} [U_I] prod_{i in I} w_i / (1 - w_i),
    w_i = L^{-nu_i} T^{N_i}, with [U_I] the cover of stratum I counted by N_t
    and L = q (q prime).  It equals sum_of_powers_counts(n, r, q, k)[t] / q^{kr}
    when the datum resolves f = sum_{i <= r} x_i^n (Denef-Loeser, J. Algebraic
    Geom. 7, 1998).
    """
    multiplicity = dict(datum.components)
    total = Fraction(0)
    for stratum in datum.strata:
        ids = sorted(stratum.index_set)
        # T^k in the product: one m_i >= 1 per component with sum N_i m_i = k
        weight = sum(Fraction(1, q ** sum(nu[i] * m for i, m in zip(ids, ms)))
                     for ms in itertools.product(range(1, k + 1), repeat=len(ids))
                     if sum(multiplicity[i] * m for i, m in zip(ids, ms)) == k)
        if weight:
            # a cover's exponents are not negative, so its count is an exact integer
            total += (q - 1) ** (len(ids) - 1) * N_t(stratum.cover_class, q, t) * weight
    return total


def N_t(cls, q: int, t: int) -> int:
    """The count of a class twisted by the torsor {s^n = t}, over F_q (q prime).

    It counts the points x with Frob(x) = zeta_t x, so it is multiplicative over
    each atom's factors (_twisted_count); L -> q (each coefficient is evaluated
    at q).  Opaque and raw factors raise.
    """
    total = 0
    for atom, coeff in cls.terms():
        value = sum(k * q ** e for e, k in coeff.items())
        for f in atom:
            value *= _twisted_count(f, q, t)
        total += value
    return total


def _twisted_count(f: tuple, q: int, t: int) -> int:
    """N_t of one factor: ORB(d) -> d if t is a d-th power in F_q^* and 0 otherwise,
    FER(n,2) -> #{x^n + y^n = t, xy != 0}, fer(n,k) with k <= 2 -> its plain count,
    and at r >= 3 by the definitions FER(n,r) = (L-1) fer(n,r-1) - ORB(n)^{*r} and
    N_t(fer(n,r)) = N_1(FER(n,r))."""
    kind, t = f[0], t % q
    if kind == "orb":
        return f[1] if any(pow(x, f[1], q) == t for x in range(1, q)) else 0
    if kind == "FER" and f[2] == 2:
        return count_fermat_affine(f[1], 2, q, t)
    if kind == "FER":
        n, r = f[1], f[2]
        return (q - 1) * _twisted_count(("fer", n, r - 1), q, 1) - _orbit_power_counts(n, r, q)[t]
    if kind == "fer" and f[2] <= 2:
        return count_fermat_affine(f[1], f[2], q, 1)
    if kind == "fer":
        return _twisted_count(("FER", f[1], f[2]), q, 1)
    raise ValueError(f"no twisted count for the factor {f!r}")


@functools.lru_cache(maxsize=None)
def _orbit_power_counts(n: int, r: int, q: int) -> tuple[int, ...]:
    """N_t(ORB(n)^{*r}) at index t of F_q^* (index 0 unused), with no engine rule.

    Each step counts A * ORB(n) by the twisted count of the convolution,
        N_t(A * B) = sum_u N_u(A) N_{-u}(B) - sum_{u != t} N_u(A) N_{t-u}(B),
    u over F_q^*: the loci {x + y = 0} and {x + y = t} of A x B (Looijenga,
    Sem. Bourbaki 874; Denef-Loeser, Duke Math. J. 99, 1999).
    """
    orbit = [0] + [_twisted_count(("orb", n), q, t) for t in range(1, q)]
    counts = orbit
    for _ in range(r - 1):
        counts = [0] + [sum(counts[u] * orbit[-u % q] for u in range(1, q))
                        - sum(counts[u] * orbit[(t - u) % q] for u in range(1, q) if u != t)
                        for t in range(1, q)]
    return tuple(counts)


# --- the equivariant Hodge realization -------------------------------------------------
#
# E sends a class to a sum of c * u^p v^q [alpha]: Hodge-Deligne numbers per
# monodromy eigenvalue exp(2 pi i alpha), alpha in [0, 1).  A value is a dict
# {(p, q, alpha): c} with no zero c; alpha is a Fraction.

def _hodge(terms) -> dict:
    """The value summing the ((p, q, alpha), c) terms."""
    acc: dict = {}
    for key, c in terms:
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def hodge_product(x: dict, y: dict) -> dict:
    """The product of two values as factors of one atom (the diagonal action):
    u, v exponents add and eigenvalues multiply, alpha + beta mod 1."""
    return _hodge(((p + s, q + t, (a + b) % 1), c * d)
                  for (p, q, a), c in x.items() for (s, t, b), d in y.items())


def hodge_star(x: dict, y: dict) -> dict:
    """The Thom-Sebastiani product of two values, the image of the convolution.

    [alpha] * [beta] is the plain product if alpha or beta is 0; otherwise it is
    v [alpha + beta] when alpha + beta < 1, u [alpha + beta - 1] when
    alpha + beta > 1 and uv [0] when alpha + beta = 1.  This is the Hodge form
    of the motivic Thom-Sebastiani theorem (Denef-Loeser, Duke Math. J. 99,
    1999; Looijenga, Sem. Bourbaki 874), whose spectrum is multiplicative.
    """
    def key(p, q, a, b):
        if a == 0 or b == 0:
            return p, q, a + b
        if a + b < 1:
            return p, q + 1, a + b
        if a + b > 1:
            return p + 1, q, a + b - 1
        return p + 1, q + 1, a + b - 1

    return _hodge((key(p + s, q + t, a, b), c * d)
                  for (p, q, a), c in x.items() for (s, t, b), d in y.items())


def hodge(cls) -> dict:
    """E of a class: L -> uv [0], and each atom the product of its factors' values.

    Opaque and raw factors raise.
    """
    total: list = []
    for atom, coeff in cls.terms():
        value = _hodge(((e, e, Fraction(0)), k) for e, k in coeff.items())
        for f in atom:
            value = hodge_product(value, hodge_factor(f))
        total += value.items()
    return _hodge(total)


@functools.lru_cache(maxsize=None)
def hodge_factor(f: tuple) -> dict:
    """E of one factor, kept, so not to be mutated: ORB(d), fer(n,1) = n, and
    FER(n,r) = (L - 1) fer(n,r-1) - ORB(n)^{*r} for r >= 2, with fer(n,r) its
    value with every alpha set to 0."""
    kind = f[0]
    if kind == "orb":
        return {(0, 0, Fraction(j, f[1])): 1 for j in range(f[1])}
    if kind == "fer" and f[2] == 1:
        return {(0, 0, Fraction(0)): f[1]}
    if kind == "fer":
        return _hodge(((p, q, Fraction(0)), c)
                      for (p, q, _), c in hodge_factor(("FER", f[1], f[2])).items())
    if kind == "FER":
        n, r = f[1], f[2]
        lower = hodge_product({(1, 1, Fraction(0)): 1, (0, 0, Fraction(0)): -1},
                              hodge_factor(("fer", n, r - 1)))
        power = orbit = hodge_factor(("orb", n))
        for _ in range(r - 1):
            power = hodge_star(power, orbit)
        return _hodge(list(lower.items()) + [(k, -c) for k, c in power.items()])
    raise ValueError(f"no Hodge realization for the factor {f!r}")


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


# --- blow-ups -----------------------------------------------------------------
#
# Resolution data of a surface family after one more point blow-up, written from
# the geometry of the blow-up: the exceptional curve is a P^1 = L + 1, and it
# meets the strict transform of each component through the point once.  Unlike
# the oracles above, these hold their values in the engine's classes and use
# their arithmetic, but none of the engine's nearby-fiber or vanishing formulas.

def blow_up_regular_point(datum, component: str, new_id: str):
    """The datum of the family blown up at a point of the regular stratum {component}.

    component has multiplicity 1, so the new curve new_id has multiplicity 1
    too; it meets component in one singular point of the new fiber and is L
    away from it.  The fiber gains L - 1 on its regular part and that point on
    its singular part: the total space changes, so its fiber does too.
    """
    from motivic import MuClass, SNCDatum, Stratum

    index_set = frozenset({component})
    old = next(s for s in datum.strata if s.index_set == index_set)
    if datum.multiplicity(component) != 1 or old.locus != "regular":
        raise ValueError(f"{component!r} is no multiplicity-one component with a regular stratum")
    one, lef = MuClass.one(), MuClass.lefschetz()
    strata = [Stratum(index_set, s.base_class - one, s.cover_class - one, s.locus)
              if s is old else s for s in datum.strata]
    strata += [Stratum({new_id}, lef, lef, "regular"),
               Stratum({component, new_id}, one, one, "singular")]
    return SNCDatum(datum.components + ((new_id, 1),), strata,
                    datum.fiber_regular + lef - one, datum.fiber_singular + one)


def blow_up(datum, index_set, new_id: str):
    """The datum of the same family with its resolution blown up once more.

    The point lies on the singular-locus stratum index_set of surface data: on
    one component (|I| = 1) or where two meet (|I| = 2).  The new curve new_id
    has multiplicity sum m_i and is P^1 minus |I| points, L + 1 - |I|.  Over it
    and over each point where it meets a component the cover is ORB(g) times
    the base, g = gcd m_i, as over the point the stratum loses.  The family is
    unchanged, and so are its fibers.
    """
    from motivic import MuClass, SNCDatum, Stratum

    index_set = frozenset(index_set)
    old = next(s for s in datum.strata if s.index_set == index_set)
    if old.locus != "singular" or len(index_set) > 2:
        raise ValueError(f"{sorted(index_set)} is no singular stratum of surface data")
    mults = [datum.multiplicity(i) for i in index_set]
    one, orbit = MuClass.one(), MuClass.orbit(math.gcd(*mults))
    base = MuClass.lefschetz() + (1 - len(index_set)) * one
    strata = [Stratum(index_set, s.base_class - one, s.cover_class - orbit, s.locus)
              if s is old else s for s in datum.strata]
    strata.append(Stratum({new_id}, base, base * orbit, "singular"))
    strata += [Stratum({i, new_id}, one, orbit, "singular") for i in sorted(index_set)]
    return SNCDatum(datum.components + ((new_id, sum(mults)),), strata,
                    datum.fiber_regular, datum.fiber_singular)
