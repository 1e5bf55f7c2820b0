"""Canonical normal forms for equivariant Grothendieck-ring classes.

The engine computes in a free model: classes are integer-Laurent ("L")
combinations of atoms, an atom being a canonically sorted product of factors

    ORB(d)     a free transitive orbit of size d (d >= 2 after rewriting),
    FER(n,r)   the degree-n Fermat curve in a 2-torus with the diagonal action
               (n >= 2); for r >= 3 the class (L-1) fer(n,r-1) - ORB(n)^{*r}
               that convolution defines, not the Fermat locus in an r-torus,
    fer(n,r)   the same with trivial action,
    OPQ(...)   an opaque class carrying only realization data,

plus, in raw input only, GM(d): a one-torus with multiplication action.

Atoms are ordered by atom_key: by factor count, then factor by factor in
factor_key order (ORB < FER < fer < OPQ, then the entries).  Every sort of
atoms goes through sort_atoms, which sorts by the cheap key atom_order and
falls back to atom_key in the one case atom_order's tuples do not compare.

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
form (L-1) fer(2,r-1) - FER(2,r).  On the span of 1 and ORB(2), where
Psi(ORB(2) x ORB(2)) = (L-1) + 2 ORB(2), convolving with ORB(2) has
eigenvalues 1 +- sqrt(L), and three identities give the expansions:

    ORB(2)^{*m} = (L-1) b_{m-1} + b_m ORB(2),   b_m = sum_k C(m, 2k+1) L^k
    fer(2,r)    = (L-1) fer(2,r-1) - b_{r+1},   fer(2,1) = 2
    FER(2,r)    = (L-1) fer(2,r-1) - ORB(2)^{*r} = fer(2,r) + 2 b_r - b_r ORB(2)
"""

from __future__ import annotations

import math
from functools import partial

from .errors import ValidationError
from .laurent import L_MINUS_1, ZERO, EPoly, LaurentInt
from .sparse import Sparse

TYPE_CHECKING = False  # typing.TYPE_CHECKING would load typing
if TYPE_CHECKING:
    from typing import Callable, Iterable, Union

    from .laurent import Coeffable

# Factors are plain tuples so atoms stay hashable:
#   ("orb", d) | ("FER", n, r) | ("fer", n, r) | ("opq", tag, chi, epoly) | ("gm", d)
# where epoly is None or the items() of an EPoly: sorted ((i, j), coeff) pairs.
Factor = tuple
Atom = tuple  # sorted tuple of factors; () is the point class 1

_KIND_RANK = {"orb": 0, "FER": 1, "fer": 2, "opq": 3}


def orb(d: int) -> Factor:
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"orbit size must be an integer >= 1, got {d!r}")
    return ("orb", int(d))  # int() stores a bool as the integer it stands for


def FER(n: int, r: int) -> Factor:
    if not isinstance(n, int) or n < 2 or not isinstance(r, int) or r < 2:
        raise ValidationError(f"FER wants n >= 2 and r >= 2, got ({n!r}, {r!r})")
    return ("FER", int(n), int(r))  # int() stores an int subclass as a plain int


def fer(n: int, r: int) -> Factor:
    if not isinstance(n, int) or n < 2 or not isinstance(r, int) or r < 1:
        raise ValidationError(f"fer wants n >= 2 and r >= 1, got ({n!r}, {r!r})")
    return ("fer", int(n), int(r))


def gm(d: int) -> Factor:
    """Raw-only factor: a one-dimensional torus with multiplication action."""
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"gm action level must be an integer >= 1, got {d!r}")
    return ("gm", int(d))


def opq(tag: str, chi: int, epoly=None) -> Factor:
    if not isinstance(tag, str) or not isinstance(chi, int):
        raise ValidationError("opaque factor wants a string tag and integer chi")
    if epoly is not None:
        try:
            epoly = EPoly(dict(epoly)).items()
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad opaque epoly data: {exc}") from exc
    return ("opq", str.__str__(tag), int(chi), epoly)  # a str subclass is stored as the plain str


def factor_key(f: Factor):
    if f[0] == "opq":
        # None (no E-data) and a tuple of E-data do not compare: order by presence first
        return (_KIND_RANK["opq"], (f[1], f[2], f[3] is not None, f[3] or ()))
    return (_KIND_RANK[f[0]], f[1:])


def atom_key(a: Atom):
    """The atom order, exact and total: by factor count, then factor by factor."""
    return (len(a), tuple(map(factor_key, a)))


def atom_order(a: Atom) -> tuple:
    """atom_key's order on normal atoms, as a key that is one cheap call to build.

    The atoms then compare as plain tuples.  That is atom_key's order: a normal
    atom holds at most one orbit factor, and first, the only kind whose rank is
    out of ASCII order; FER < fer < opq in both; two factors of one kind compare
    their entries.  Only two opaque factors of equal tag and chi, one with
    E-data and one without, do not compare: the tuple comparison raises
    TypeError where factor_key ranks the one without first.
    """
    return len(a), not (a and a[0][0] == "orb"), a


def _term_key(order: Callable, term: tuple):
    return order(term[0])


def sort_atoms(items: list, key: Callable = _term_key) -> None:
    """Sort items in place in the atom order; each sort of atoms goes through here.

    key(order, item) is an item's sort key made with the atom key order; by
    default an item is a term (atom, value).  The sort uses atom_order, and
    sorts again with atom_key when atom_order's tuples do not compare.
    """
    try:
        items.sort(key=partial(key, atom_order))
    except TypeError:
        items.sort(key=partial(key, atom_key))


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
    factors = a + b
    if len(factors) < 2:  # one factor or none: nothing to sort or fuse
        return factors, 1
    orbs = [f[1] for f in factors if f[0] == "orb"]
    if len(orbs) <= 1:
        return tuple(sorted(factors, key=factor_key)), 1
    rest = [f for f in factors if f[0] != "orb"]
    lcm = math.lcm(*orbs)
    mult = math.prod(orbs) // lcm
    if lcm > 1:
        rest.append(("orb", lcm))
    return tuple(sorted(rest, key=factor_key)), mult


# --- the quadratic tower ---------------------------------------------------

TOWER_LIMIT = 400  # largest r of a tower (Theta(r^2) bits) or of a Fermat factor's chi
_FER2_START = (LaurentInt.from_int(2), LaurentInt({1: 1, 0: -5}))  # fer(2,1), fer(2,2)


def _orb2_power(m: int) -> LaurentInt:
    """b_m, the ORB(2) coefficient of ORB(2)^{*m}; exponents ascend and no binomial is 0."""
    return LaurentInt._wrap(tuple((k, math.comb(m, 2 * k + 1)) for k in range((m + 1) // 2)))


def _fer2(r: int, fers: list) -> LaurentInt:
    """fer(2,r) for r <= TOWER_LIMIT; fers, the list fer(2,1), fer(2,2), ... so far, grows in place."""
    if r > TOWER_LIMIT:
        raise ValidationError(f"quadratic tower of depth r = {r} exceeds the limit r <= {TOWER_LIMIT}")
    for k in range(len(fers) + 1, r + 1):
        fers.append(L_MINUS_1 * fers[-1] - _orb2_power(k + 1))
    return fers[r - 1]


def _tower(r: int, fers: list) -> tuple[LaurentInt, LaurentInt, LaurentInt]:
    """(c0, c1, f) with FER(2,r) = c0 + c1 ORB(2) and fer(2,r) = f, for 2 <= r <= TOWER_LIMIT."""
    f, b = _fer2(r, fers), _orb2_power(r)
    return f + b + b, -b, f  # forgetting the action sends ORB(2) to 2


# --- MuClass ----------------------------------------------------------------

if TYPE_CHECKING:
    RawTerm = tuple[Coeffable, Iterable[Factor]]


class MuClass(Sparse):
    """A normalized class: finitely supported map from atoms to LaurentInt.

    Values are immutable, hashable, and always in normal form; equality of
    MuClass values is structural equality of normal forms.
    """

    __slots__ = ()

    _sort = staticmethod(sort_atoms)

    def __init__(self, raw_terms: Iterable[RawTerm] = ()):
        items: list[tuple[Atom, LaurentInt]] = []
        fers = list(_FER2_START)  # the quadratic tower, built once per construction
        for coeff, factors in raw_terms:
            c = coeff if isinstance(coeff, LaurentInt) else LaurentInt.from_int(coeff)
            items += _expand_term(c, tuple(factors), fers)
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
        # a normal atom has at most one orbit and no FER(2,r), so its image is normal
        terms = []
        for a, c in self._terms:
            kept = (("fer", f[1], f[2]) if f[0] == "FER" else f for f in a if f[0] != "orb")
            size = math.prod(f[1] for f in a if f[0] == "orb")
            terms.append((tuple(sorted(kept, key=factor_key)), c * size))
        return MuClass._make(terms)

    def __str__(self) -> str:
        from .jsonio import pretty
        return pretty(self)

    def __repr__(self) -> str:
        return f"MuClass({[(list(a), str(c)) for a, c in self._terms]!r})"


_CONSTRUCTORS = {"orb": orb, "FER": FER, "fer": fer, "opq": opq, "gm": gm}


def _expand_term(coeff: LaurentInt, factors: tuple,
                 fers: list) -> tuple[tuple[Atom, LaurentInt], ...]:
    """Rewrite one raw term to a combination of normal atoms; fers is the list _fer2 extends."""
    residual: list[Factor] = []
    expansions: list[MuClass] = []
    for f in factors:
        if not (isinstance(f, tuple) and f and isinstance(f[0], str) and f[0] in _CONSTRUCTORS):
            raise ValidationError(f"unknown factor {f!r}")
        try:
            f = _CONSTRUCTORS[f[0]](*f[1:])  # the constructor checks the entries
        except TypeError:  # a wrong number of entries
            raise ValidationError(f"malformed {f[0]} factor {f!r}") from None
        kind = f[0]
        if kind == "orb" and f[1] == 1:  # N1
            continue
        if kind == "gm":  # N3
            coeff = coeff * L_MINUS_1
        elif kind == "fer" and f[2] == 1:  # N5a
            coeff = coeff * f[1]
        elif kind == "fer" and f[1] == 2:  # N5b
            coeff = coeff * _fer2(f[2], fers)
        elif kind == "FER" and f[1] == 2:  # N4, N4'
            c0, c1, _ = _tower(f[2], fers)
            expansions.append(MuClass._make([((), c0), ((("orb", 2),), c1)]))
        else:
            residual.append(f)
    base_atom, mult = atom_mul(tuple(residual), ())  # N2
    terms = ((base_atom, coeff if mult == 1 else coeff * mult),)
    for expansion in expansions:
        terms = (MuClass._make(terms) * expansion).terms()
    return terms


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
