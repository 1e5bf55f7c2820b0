"""The Fermat-loci convolution product on normalized equivariant classes.

Psi is defined on exterior products A x B and extended bilinearly.  On a pair
of atoms the rules are tried in order:

    P1  Laurent coefficients pull out (bilinearity),
    P2  if one atom has only trivial-action factors, Psi(A x B) = A * B,
    P3  trivial-action factors split off multiplicatively from either side,
    P4  Psi(ORB(n) x ORB(n))   = n (L-1) - FER(n,2),
    P5  Psi(FER(n,r) x ORB(n)) = (L-1) fer(n,r-1) ORB(n) + FER(n,r+1)
                                  - (L-1) fer(n,r),      (either order)
    P6  anything else becomes a single opaque atom whose tag records the
        pair and whose chi is the product of the factors' chi values.

The trivial-action factors are the fer atoms; opaque atoms are treated as
equivariant, so a side containing one only short-circuits through P2 when
the *other* side is trivial.  P6 tags are canonical in the unordered pair,
which keeps star exactly commutative.  The convolution is chi_c
multiplicative on all inputs by construction of P6.

The pair rules run on atoms that are already normal and emit normal terms:
P2 is one atom product, P6 one atom of the opaque factor sorted in with the
trivial factors, and only the closed forms of P4/P5 go through the rewrite
rules (their FER(2,2), fer(n,1) and fer(2,r) terms need N4/N5).  The trivial
factors split off by P3 are multiplied back with atom_mul, with no second
normalization, and psi_pair collects all pair terms in one _make.
"""

from __future__ import annotations

import math
from typing import Iterable

from .classes import FER, Atom, MuClass, atom_key, atom_mul, factor_key, factor_str, fer, orb
from .errors import ValidationError
from .laurent import L_MINUS_1, ONE, Coeffable, LaurentInt
from .realize import chi_c, factor_chi
from .sparse import Sparse


class BiClass(Sparse):
    """Finitely supported map from ordered atom pairs to LaurentInt."""

    __slots__ = ()

    _sort_key = staticmethod(lambda term: (atom_key(term[0][0]), atom_key(term[0][1])))

    def __init__(self, terms: Iterable[tuple[Atom, Atom, Coeffable]] = ()):
        self._terms = self._canonical(
            ((_normal_atom(a), _normal_atom(b)),
             c if isinstance(c, LaurentInt) else LaurentInt.from_int(c))
            for a, b, c in terms)

    def terms(self) -> tuple[tuple[tuple[Atom, Atom], LaurentInt], ...]:
        return self._terms


def _normal_atom(factors: Iterable) -> Atom:
    """The normal atom a product of factors equals; the pair rules take only those."""
    factors = tuple(factors)
    terms = MuClass([(1, factors)]).terms()
    if len(terms) != 1 or terms[0][1] != ONE:
        raise ValidationError(f"{factors!r} is not a single normal atom")
    return terms[0][0]


def tensor(a: MuClass, b: MuClass) -> BiClass:
    """Exterior product A x B of two classes."""
    # both factors are sorted by atom key with nonzero coefficients, so the
    # pairs come out distinct, nonzero and in BiClass order
    return BiClass._wrap(tuple(((a1, a2), c1 * c2)
                               for a1, c1 in a.terms() for a2, c2 in b.terms()))


def _split_trivial(atom: Atom) -> tuple[Atom, Atom]:
    triv = tuple(f for f in atom if f[0] == "fer")
    core = tuple(f for f in atom if f[0] != "fer")
    return triv, core


def _core_str(core: Atom) -> str:
    return "*".join(factor_str(f) for f in core) if core else "1"


def _psi_terms(a: Atom, b: Atom, c: LaurentInt) -> list[tuple[Atom, LaurentInt]]:
    """Normal terms of Psi(c * a x b) for two normal atoms (P1 pulls c out)."""
    triv_a, core_a = _split_trivial(a)
    triv_b, core_b = _split_trivial(b)
    if not core_a or not core_b:
        # P2: one side acts trivially, convolution degenerates to the product;
        # that side holds no orbit, so atom_mul fuses nothing
        return [(atom_mul(a, b)[0], c)]
    if len(core_a) == 1 and len(core_b) == 1:
        kinds = (core_a[0][0], core_b[0][0])
        if kinds == ("orb", "orb") and core_a == core_b:
            n = core_a[0][1]
            inner = MuClass([(n * L_MINUS_1, ()), (-1, (FER(n, 2),))])
            return _times_trivial(inner, triv_a + triv_b, c)
        if kinds in (("FER", "orb"), ("orb", "FER")):
            f_fer, f_orb = (core_a[0], core_b[0]) if kinds[0] == "FER" else (core_b[0], core_a[0])
            n, r = f_fer[1], f_fer[2]
            if f_orb[1] == n:
                inner = MuClass([
                    (L_MINUS_1, (fer(n, r - 1), orb(n))),
                    (1, (FER(n, r + 1),)),
                    (-L_MINUS_1, (fer(n, r),)),
                ])
                return _times_trivial(inner, triv_a + triv_b, c)
    # P6: the cores' orbits went into the tag, so the opaque factor and the
    # trivial factors make one normal atom with nothing to fuse
    sa, sb = sorted((_core_str(core_a), _core_str(core_b)))
    chi = math.prod(factor_chi(f) for f in core_a + core_b)
    opaque = ("opq", f"psi({sa}|{sb})", chi, None)
    return [(tuple(sorted(triv_a + triv_b + (opaque,), key=factor_key)), c)]


def _times_trivial(inner: MuClass, triv: Atom, c: LaurentInt) -> list[tuple[Atom, LaurentInt]]:
    """Normal terms of c * inner * triv, triv a product of trivial factors (P3)."""
    # triv holds no orbit, so atom_mul fuses nothing and its multiplier is 1
    return [(atom_mul(atom, triv)[0], c * k) for atom, k in inner.terms()]


def psi_pair(p: BiClass) -> MuClass:
    """Psi of an exterior product, by bilinear extension of the pair rules."""
    return MuClass._make(term for (a, b), c in p.terms() for term in _psi_terms(a, b, c))


def star(a: MuClass, b: MuClass) -> MuClass:
    """The convolution product on classes over the point."""
    return psi_pair(tensor(a, b))


def star_power(n: int, r: int) -> MuClass:
    """Closed form for the r-fold convolution power of ORB(n)."""
    if not isinstance(n, int) or n < 2 or not isinstance(r, int) or r < 1:
        raise ValidationError(f"star_power wants n >= 2 and r >= 1, got ({n!r}, {r!r})")
    if r == 1:
        return MuClass.orbit(n)
    return MuClass([(L_MINUS_1, (fer(n, r - 1),)), (-1, (FER(n, r),))])


def assoc_check(a: MuClass, b: MuClass, c: MuClass) -> dict:
    """Compare the two fold orders of star on a triple.

    Symbolic comparison is skipped when opaque atoms appear (equality of
    normal forms is then not informative either way); the chi_c comparison
    always runs and must succeed.
    """
    left = star(star(a, b), c)
    right = star(a, star(b, c))
    if left.has_opaque() or right.has_opaque():
        symbolic: bool | str = "skipped-opaque"
    else:
        symbolic = left == right
    return {"symbolic": symbolic, "chi_consistent": chi_c(left) == chi_c(right)}
