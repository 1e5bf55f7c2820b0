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


def N_t(cls, q: int, t: int) -> int:
    """The count of a class twisted by the torsor {s^n = t}, over F_q (q prime).

    It counts the points x with Frob(x) = zeta_t x, so it is multiplicative over
    each atom's factors: L -> q (each coefficient is evaluated at q), ORB(d) -> d
    if t is a d-th power in F_q^* and 0 otherwise, FER(n,2) -> #{x^n + y^n = t,
    xy != 0} and fer(n,k) with k <= 2 -> its plain count.  Other factors raise.
    """
    total = 0
    for atom, coeff in cls.terms():
        value = sum(k * q ** e for e, k in coeff.items())
        for f in atom:
            if f[0] == "orb":
                value *= f[1] if any(pow(x, f[1], q) == t % q for x in range(1, q)) else 0
            elif f[0] == "FER" and f[2] == 2:
                value *= count_fermat_affine(f[1], 2, q, t)
            elif f[0] == "fer" and f[2] <= 2:
                value *= count_fermat_affine(f[1], f[2], q, 1)
            else:
                raise ValueError(f"no twisted count for the factor {f!r}")
        total += value
    return total


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
