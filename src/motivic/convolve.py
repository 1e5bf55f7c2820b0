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
P2 is one atom product, P6 one atom of the trivial factors and the opaque
factor, and only the closed forms of P4/P5 go through the rewrite rules
(FER(2,2), fer(n,1) and fer(2,r) need N4/N5).  The trivial factors split off
by P3 are multiplied back with atom_mul.  star, psi_pair and a1.a1_star share
one kernel, _psi_into, which sums every term into integer coefficients by atom
and exponent (and by point over the line), P2 and P6 pairs with no
multiplication by their unit coefficient; sparse.nest builds the class once.

The kernel keeps one table, _rules, for the process, so every caller derives
a rule once per pair of atoms; _pair alone derives, sizes and keeps a rule.
A rule counts the bytes of its two key atoms and itself marshalled together,
and the table holds at most _MEMO_LIMIT (2 MiB) of them.  When full it keeps
about 3.6 MB, by tracemalloc on the benchmark's star-fold inputs.  A miss that
would pass the limit clears the table first, and neither a miss whose own size
passes it nor an exception is kept.  Writes take a lock; stored values are
shared, never mutated.
"""

from __future__ import annotations

import marshal
import threading
from typing import Iterable

from .classes import FER, Atom, Factor, MuClass, atom_key, atom_mul, factor_str, fer, orb
from .errors import ValidationError
from .laurent import L_MINUS_1, ONE, Coeffable, LaurentInt
from .realize import atom_chi, chi_c
from .sparse import Sparse, nest


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


_MEMO_LIMIT = 1 << 21  # bytes; one seed of star-fold's inputs fills 0.86-0.88 MB
_rules: dict = {}  # a -> {b: the one atom of Psi(a x b), coefficient 1, or a list of its terms}
_held = 0  # the marshalled bytes of the kept rules
_lock = threading.RLock()


def _clear() -> None:
    global _held
    with _lock:
        _rules.clear()
        _held = 0


def _pair(a: Atom, b: Atom):
    """Derive Psi(a x b), keep it in _rules and return it."""
    global _held
    # the fer factors act trivially; the core of an atom is the rest
    triv = tuple(f for f in a + b if f[0] == "fer")
    core_a, core_b = (tuple(f for f in x if f[0] != "fer") for x in (a, b))
    if not core_a or not core_b:
        # P2: one side acts trivially, convolution degenerates to the product;
        # that side holds no orbit, so atom_mul fuses nothing
        rule = atom_mul(a, b)[0]
    else:
        form = _core_form(core_a, core_b)
        if type(form) is list:
            # P3: the trivial factors hold no orbit, so atom_mul fuses nothing
            rule = [(atom_mul(atom, triv)[0], k) for atom, k in form]
        else:
            # P6: the cores' orbits went into the tag, so nothing fuses; fer factors
            # sort as plain tuples in factor_key order, and opaque ones rank last
            rule = tuple(sorted(triv)) + (form,)
    size = len(marshal.dumps((a, b, rule), 2))  # version 2 writes no back-references
    if size <= _MEMO_LIMIT:
        with _lock:
            if _held + size > _MEMO_LIMIT:
                _clear()
            row = _rules.setdefault(a, {})
            if b not in row:  # another thread may have kept it since the miss
                row[b] = rule
                _held += size
    return rule


def _psi_into(products: Iterable[tuple[dict, Iterable, Iterable]]) -> None:
    """For each (acc, xs, ys) of products, add Psi(xs x ys) into acc.

    xs and ys are (normal atom, LaurentInt) terms and acc maps atoms to dicts
    from exponents to integers.  Each pair of atoms takes its rule from _rules,
    the kernel's one table, so a rule is derived once per pair of atoms while
    it stays there; the table's bound is in bytes, as the module docstring says.
    """
    for acc, xs, ys in products:
        for a, ca in xs:
            ca = ca.items()
            row = _rules.get(a, {})  # the b of one ys are distinct, so row need not grow here
            for b, cb in ys:
                cb = cb.items()
                rule = row.get(b)
                if rule is None:
                    rule = _pair(a, b)
                if type(rule) is tuple:  # P2 and P6: add the P1 product in as it is
                    coeffs = acc.get(rule)
                    if coeffs is None:
                        coeffs = acc[rule] = {}
                    for e1, x1 in ca:
                        for e2, x2 in cb:
                            coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + x1 * x2
                    continue
                c = [(e1 + e2, x1 * x2) for e1, x1 in ca for e2, x2 in cb]  # P1
                for atom, k in rule:
                    coeffs = acc.get(atom)
                    if coeffs is None:
                        coeffs = acc[atom] = {}
                    for e1, x1 in c:
                        for e2, x2 in k:
                            coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + x1 * x2


def _core_form(core_a: Atom, core_b: Atom) -> list[tuple[Atom, tuple]] | Factor:
    """Psi of two cores: P4/P5 as (atom, LaurentInt items) terms, else the P6 opaque factor."""
    inner = None
    if len(core_a) == 1 and len(core_b) == 1:
        kinds = (core_a[0][0], core_b[0][0])
        if kinds == ("orb", "orb") and core_a == core_b:
            n = core_a[0][1]
            inner = MuClass([(n * L_MINUS_1, ()), (-1, (FER(n, 2),))])
        elif kinds in (("FER", "orb"), ("orb", "FER")):
            f_fer, f_orb = (core_a[0], core_b[0]) if kinds[0] == "FER" else (core_b[0], core_a[0])
            n, r = f_fer[1], f_fer[2]
            if f_orb[1] == n:
                inner = MuClass([
                    (L_MINUS_1, (fer(n, r - 1), orb(n))),
                    (1, (FER(n, r + 1),)),
                    (-L_MINUS_1, (fer(n, r),)),
                ])
    if inner is not None:
        return [(atom, k.items()) for atom, k in inner.terms()]
    # made only for P6: the chi of a Fermat factor past TOWER_LIMIT raises
    sa, sb = sorted("*".join(map(factor_str, core)) for core in (core_a, core_b))
    return ("opq", f"psi({sa}|{sb})", atom_chi(core_a) * atom_chi(core_b), None)


def psi_pair(p: BiClass) -> MuClass:
    """Psi of an exterior product, by bilinear extension of the pair rules."""
    acc: dict = {}
    _psi_into((acc, ((a, c),), ((b, ONE),)) for (a, b), c in p.terms())
    return nest(acc, MuClass, LaurentInt)


def star(a: MuClass, b: MuClass) -> MuClass:
    """The convolution product on classes over the point."""
    acc: dict = {}
    _psi_into([(acc, a.terms(), b.terms())])
    return nest(acc, MuClass, LaurentInt)


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
