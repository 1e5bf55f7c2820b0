"""Ring homomorphisms out of the class algebra, plus the point-count oracle.

chi_c evaluates the compactly supported Euler characteristic: L goes to 1,
an orbit of size d to d, Fermat atoms (either action) to -n^r, opaque atoms
to their stored value; it is multiplicative over factors and over both
products of the engine.

The E-polynomial realization is defined on action-free classes whose atoms
are built from L-powers, points, fer(n,2) factors, and opaque factors that
carry E-data.  It sends L to uv and fer(n,2) to uv - g u - g v + 1 - 3n with
g = (n-1)(n-2)/2, the Hodge numbers of the smooth projective degree-n curve
minus its 3n boundary points.  Its value type EPoly lives in laurent.py.

The point-count oracle, count_fermat_points, lives in the stdlib-only module
oracle.py, so the CLI's oracle requests load no class layer; it is re-exported
here, beside point_count_oracle, its form on a fer(n,r) factor.
"""

from __future__ import annotations

import math
from collections import Counter

from .classes import TOWER_LIMIT, Atom, Factor, MuClass, factor_str
from .errors import RealizationUndefinedError, ValidationError, _checked
from .laurent import EPoly, LaurentInt
from .oracle import count_fermat_points


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


def atom_chi(atom: Atom) -> int:
    """chi_c of one atom: one factor_chi call and one power per distinct factor,
    so the cost is linear in the atom however often a factor repeats."""
    if len(set(atom)) == len(atom):
        return math.prod(map(factor_chi, atom))
    return math.prod(factor_chi(f) ** k for f, k in Counter(atom).items())


def chi_c(c: MuClass) -> int:
    """Compactly supported Euler characteristic of a class."""
    return sum(coeff.sum_of_coefficients() * atom_chi(atom)
               for atom, coeff in _checked(c, MuClass, "c").terms())


def chi_of_a1(f) -> int:
    """chi_c of the pushforward to the point of a class over the affine line."""
    from .a1 import A1Class  # a1 imports this module
    return chi_c(_checked(f, A1Class, "f").pushforward())


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
    if kind == "opq" and len(f) > 3:
        return EPoly._wrap(f[3])  # opq() stored it in EPoly's canonical form
    raise RealizationUndefinedError(factor_str(f))


def e_polynomial(c: MuClass) -> EPoly:
    """Hodge-Deligne E-polynomial of an action-free class.

    The caller is expected to forget the action first; any orbit or
    equivariant Fermat factor, any fer(n,r) with r >= 3, and any opaque
    factor without stored E-data raise RealizationUndefinedError.
    """
    terms: list = []
    for atom, coeff in _checked(c, MuClass, "c").terms():
        terms += math.prod(map(_factor_epoly, atom), start=_coeff_epoly(coeff)).items()
    return EPoly._make(terms)


# --- the point-count oracle -------------------------------------------------

def point_count_oracle(factor: Factor, q: int, budget: int | None = None) -> int:
    """Brute-force point count for a fer(n,r) factor over GF(q)."""
    if not (isinstance(factor, tuple) and len(factor) == 3 and factor[0] == "fer"):
        raise ValidationError(f"oracle wants a fer(n,r) factor, got {factor!r}")
    return count_fermat_points(factor[1], factor[2], q, budget)
