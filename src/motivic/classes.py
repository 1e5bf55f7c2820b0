"""Canonical normal forms for equivariant Grothendieck-ring classes.

The engine computes in a free model: classes are integer-Laurent ("L")
combinations of atoms, an atom being a canonically sorted product of factors

    ORB(d)     a free transitive orbit of size d (d >= 2 after rewriting),
    FER(n,r)   the degree-n Fermat locus in an r-torus, carrying the diagonal
               multiplication action (n >= 2, r >= 2),
    fer(n,r)   the same locus with trivial action,
    OPQ(...)   an opaque class carrying only realization data,

plus, in raw input only, GM(d): a one-torus with multiplication action.

Rewriting rules (applied to a fixed point; each strictly shrinks a
(factor-count, orbit-size) measure, and the system is confluent because every
factor kind has at most one applicable rule):

    N1   ORB(1)            -> 1
    N2   ORB(d) * ORB(e)   -> gcd(d,e) copies of ORB(lcm(d,e))
    N3   GM(d)             -> (L - 1)
    N4   FER(2,2)          -> (L - 1) - 2 ORB(2)
    N4'  FER(2,r), r >= 3  -> the quadratic tower expansion (see below)
    N5a  fer(n,1)          -> n
    N5b  fer(2,r), r >= 2  -> forget-the-action of the FER(2,r) expansion

Equalities certified here hold in the equivariant Grothendieck ring;
inequality of normal forms only means "not derivable from the rules".

The quadratic tower: N4 forces every FER(2,r) to leave the atom basis, since
convolution folds (see convolve.star_power) must telescope onto the closed
form (L-1) fer(2,r-1) - FER(2,r).  Expansions live in the span of 1 and
ORB(2) and are produced by the recursion

    E_2     = (L-1) - 2 ORB(2)
    E_{r+1} = Psi(E_r x ORB(2)) - (L-1) f_{r-1} ORB(2) + (L-1) f_r

with f_r the action-forgetting image of E_r (f_1 = 2).  On the span the
needed convolutions are Psi(1 x ORB(2)) = ORB(2) and Psi(ORB(2) x ORB(2)) =
(L-1) + 2 ORB(2), so the recursion stays closed.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

from .errors import ValidationError
from .laurent import L_MINUS_1, ZERO, Coeffable, LaurentInt
from .sparse import Sparse

# Factors are plain tuples so atoms stay hashable:
#   ("orb", d) | ("FER", n, r) | ("fer", n, r) | ("opq", tag, chi, epoly) | ("gm", d)
# where epoly is None or a sorted tuple of ((i, j), coeff) pairs.
Factor = tuple
Atom = tuple  # sorted tuple of factors; () is the point class 1

_KIND_RANK = {"orb": 0, "FER": 1, "fer": 2, "opq": 3}


def orb(d: int) -> Factor:
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"orbit size must be an integer >= 1, got {d!r}")
    return ("orb", d)


def FER(n: int, r: int) -> Factor:
    if not isinstance(n, int) or n < 2 or not isinstance(r, int) or r < 2:
        raise ValidationError(f"FER wants n >= 2 and r >= 2, got ({n!r}, {r!r})")
    return ("FER", n, r)


def fer(n: int, r: int) -> Factor:
    if not isinstance(n, int) or n < 2 or not isinstance(r, int) or r < 1:
        raise ValidationError(f"fer wants n >= 2 and r >= 1, got ({n!r}, {r!r})")
    return ("fer", n, r)


def gm(d: int = 1) -> Factor:
    """Raw-only factor: a one-dimensional torus with multiplication action."""
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"gm action level must be an integer >= 1, got {d!r}")
    return ("gm", d)


def opq(tag: str, chi: int, epoly=None) -> Factor:
    if not isinstance(tag, str) or not isinstance(chi, int):
        raise ValidationError("opaque factor wants a string tag and integer chi")
    if epoly is not None:
        try:
            epoly = tuple(sorted(((int(i), int(j)), int(c)) for (i, j), c in dict(epoly).items() if int(c)))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad opaque epoly data: {exc}") from exc
    return ("opq", tag, chi, epoly)


def factor_key(f: Factor):
    if f[0] == "opq":
        # None (no E-data) and a tuple of E-data do not compare: order by presence first
        return (_KIND_RANK["opq"], (f[1], f[2], f[3] is not None, f[3] or ()))
    return (_KIND_RANK[f[0]], f[1:])


def atom_key(a: Atom):
    return (len(a), tuple(factor_key(f) for f in a))


def factor_str(f: Factor) -> str:
    kind = f[0]
    if kind == "orb":
        return f"ORB({f[1]})"
    if kind in ("FER", "fer"):
        return f"{kind}({f[1]},{f[2]})"
    if kind == "opq":
        return f"OPQ[{f[1]}]"
    return f"GM({f[1]})"


def atom_mul(a: Atom, b: Atom) -> tuple[Atom, int]:
    """Product of two normal atoms: multiset union plus orbit fusion.

    Returns (atom, multiplier); the multiplier is the integer produced by
    fusing orbit factors (rule N2: a multiset of orbits of sizes d_i fuses to
    (prod d_i / lcm d_i) copies of one orbit of size lcm d_i).
    """
    orbs = [f[1] for f in a + b if f[0] == "orb"]
    rest = [f for f in a + b if f[0] != "orb"]
    if len(orbs) <= 1:
        return tuple(sorted(a + b, key=factor_key)), 1
    lcm = math.lcm(*orbs)
    mult = math.prod(orbs) // lcm
    if lcm > 1:
        rest.append(("orb", lcm))
    return tuple(sorted(rest, key=factor_key)), mult


# --- the quadratic tower ---------------------------------------------------

_tower_cache: dict[int, tuple[LaurentInt, LaurentInt, LaurentInt]] = {
    1: (ZERO, ZERO, LaurentInt.from_int(2)),  # only f_1 = 2 is meaningful
}


def _tower(r: int) -> tuple[LaurentInt, LaurentInt, LaurentInt]:
    """Expansion data for FER(2,r), r >= 2.

    Returns (c0, c1, f) with FER(2,r) = c0 * 1 + c1 * ORB(2) and
    fer(2,r) = f * 1.  Built iteratively and cached; concurrent writers can
    only race to store identical values.
    """
    if 2 not in _tower_cache:
        c0, c1 = L_MINUS_1, LaurentInt.from_int(-2)
        _tower_cache[2] = (c0, c1, c0 + 2 * c1)
    for k in range(max(_tower_cache) + 1, r + 1):
        c0, c1, f = _tower_cache[k - 1]
        f_prev = _tower_cache[k - 2][2]
        # Psi(E x ORB(2)) = c0 ORB(2) + c1 ((L-1) + 2 ORB(2)) on the span
        d0 = c1 * L_MINUS_1 + L_MINUS_1 * f
        d1 = c0 + 2 * c1 - L_MINUS_1 * f_prev
        _tower_cache[k] = (d0, d1, d0 + 2 * d1)
    return _tower_cache[r]


# --- MuClass ----------------------------------------------------------------

RawTerm = tuple[Coeffable, Iterable[Factor]]


class MuClass(Sparse):
    """A normalized class: finitely supported map from atoms to LaurentInt.

    Values are immutable, hashable, and always in normal form; equality of
    MuClass values is structural equality of normal forms.
    """

    __slots__ = ()

    _sort_key = staticmethod(lambda term: atom_key(term[0]))

    def __init__(self, raw_terms: Iterable[RawTerm] = ()):
        items: list[tuple[Atom, LaurentInt]] = []
        for coeff, factors in raw_terms:
            c = coeff if isinstance(coeff, LaurentInt) else LaurentInt.from_int(coeff)
            items += _expand_term(c, tuple(factors))
        self._terms = self._canonical(items)

    # constructors

    @classmethod
    def zero(cls) -> "MuClass":
        return cls._wrap(())

    @classmethod
    def one(cls) -> "MuClass":
        return cls([(1, ())])

    @classmethod
    def lefschetz(cls, power: int = 1) -> "MuClass":
        return cls([(LaurentInt.monomial(power), ())])

    @classmethod
    def from_coeff(cls, coeff: Coeffable) -> "MuClass":
        return cls([(coeff, ())])

    @classmethod
    def orbit(cls, d: int) -> "MuClass":
        return cls([(1, (orb(d),))])

    @classmethod
    def fermat(cls, n: int, r: int) -> "MuClass":
        """The Fermat atom with its diagonal multiplication action."""
        return cls([(1, (FER(n, r),))])

    @classmethod
    def fermat_trivial(cls, n: int, r: int) -> "MuClass":
        return cls([(1, (fer(n, r),))])

    @classmethod
    def torus(cls, d: int = 1) -> "MuClass":
        """A one-torus with multiplication action through level d (rule N3)."""
        return cls([(1, (gm(d),))])

    @classmethod
    def opaque(cls, tag: str, chi: int, epoly=None) -> "MuClass":
        return cls([(1, (opq(tag, chi, epoly),))])

    # inspection

    def terms(self) -> tuple[tuple[Atom, LaurentInt], ...]:
        return self._terms

    def coefficient(self, atom: Atom) -> LaurentInt:
        for a, c in self._terms:
            if a == atom:
                return c
        return ZERO

    def is_trivial_action(self) -> bool:
        """True when no orbit or equivariant Fermat factor occurs."""
        return all(f[0] not in ("orb", "FER") for a, _ in self._terms for f in a)

    def has_opaque(self) -> bool:
        return any(f[0] == "opq" for a, _ in self._terms for f in a)

    # ring structure

    __add__ = Sparse.__add__
    __neg__ = Sparse.__neg__
    __sub__ = Sparse.__sub__

    def __mul__(self, other: Union["MuClass", LaurentInt, int]) -> "MuClass":
        if isinstance(other, (LaurentInt, int)):
            c = other if isinstance(other, LaurentInt) else LaurentInt.from_int(other)
            if not c:
                return MuClass.zero()
            return MuClass._wrap(tuple((a, c * k) for a, k in self._terms))
        if not isinstance(other, MuClass):
            return NotImplemented
        return MuClass._make((a, c1 * c2 * m)
                             for a1, c1 in self._terms for a2, c2 in other._terms
                             for a, m in [atom_mul(a1, a2)])

    __rmul__ = __mul__

    def forget_action(self) -> "MuClass":
        """Forget the group action: ORB(d) -> d, FER -> fer; idempotent."""
        raw: list[RawTerm] = []
        for a, c in self._terms:
            factors = []
            for f in a:
                if f[0] == "orb":
                    c = c * f[1]
                elif f[0] == "FER":
                    factors.append(("fer", f[1], f[2]))
                else:
                    factors.append(f)
            raw.append((c, tuple(factors)))
        return MuClass(raw)

    def __str__(self) -> str:
        from .jsonio import pretty
        return pretty(self)

    def __repr__(self) -> str:
        return f"MuClass({[(list(a), str(c)) for a, c in self._terms]!r})"


def _expand_term(coeff: LaurentInt, factors: tuple) -> tuple[tuple[Atom, LaurentInt], ...]:
    """Rewrite one raw term to a combination of normal atoms."""
    residual: list[Factor] = []
    expansions: list[MuClass] = []
    for f in factors:
        if not isinstance(f, tuple) or not f or f[0] not in ("orb", "FER", "fer", "opq", "gm"):
            raise ValidationError(f"unknown factor {f!r}")
        kind = f[0]
        arity = {"orb": 1, "gm": 1, "FER": 2, "fer": 2}.get(kind)
        if arity is not None and len(f) != arity + 1:
            raise ValidationError(f"malformed {kind} factor {f!r}")
        if kind == "orb":
            f = orb(*f[1:])
            if f[1] > 1:
                residual.append(f)
        elif kind == "gm":
            gm(*f[1:])
            coeff = coeff * L_MINUS_1
        elif kind == "fer":
            f = fer(*f[1:])
            n, r = f[1], f[2]
            if r == 1:
                coeff = coeff * n
            elif n == 2:
                coeff = coeff * _tower(r)[2]
            else:
                residual.append(f)
        elif kind == "FER":
            f = FER(*f[1:])
            n, r = f[1], f[2]
            if n == 2:
                c0, c1, _ = _tower(r)
                expansions.append(MuClass._make([((), c0), ((("orb", 2),), c1)]))
            else:
                residual.append(f)
        else:
            if len(f) not in (3, 4):
                raise ValidationError(f"malformed opq factor {f!r}")
            residual.append(opq(*f[1:]))
    base_atom, mult = _fuse(residual)
    terms = ((base_atom, coeff * mult),)
    for expansion in expansions:
        terms = (MuClass._make(terms) * expansion).terms()
    return terms


def _fuse(factors: list[Factor]) -> tuple[Atom, int]:
    atom = tuple(sorted(factors, key=factor_key))
    return atom_mul(atom, ())


# module-level operation aliases

def normalize(raw_terms: Iterable[RawTerm]) -> MuClass:
    """Normal form of a raw combination of factor products."""
    return MuClass(raw_terms)


def add(a: MuClass, b: MuClass) -> MuClass:
    return a + b


def mul(a: MuClass, b: MuClass) -> MuClass:
    return a * b


def forget_action(c: MuClass) -> MuClass:
    return c.forget_action()
