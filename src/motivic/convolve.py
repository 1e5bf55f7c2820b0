"""The Fermat-loci convolution product on normalized equivariant classes.

Psi is defined on exterior products A x B and extended bilinearly.  On a pair
of atoms the rules are tried in order:

    P1  Laurent coefficients pull out (bilinearity),
    P2  if one atom has only trivial-action factors, Psi(A x B) = A * B,
    P3  trivial-action factors split off multiplicatively from either side,
    P4  Psi(ORB(n) x ORB(n))   = O_2,
    P5  Psi(FER(n,r) x ORB(n)) = (L-1) fer(n,r-1) ORB(n) - O_{r+1},   (either order)
    P6  anything else becomes a single opaque atom whose tag records the
        pair and whose chi is the product of the factors' chi values.

The trivial-action factors are the fer atoms; opaque atoms are treated as
equivariant, so a side containing one only short-circuits through P2 when
the *other* side is trivial.  P6 tags are canonical in the unordered pair,
which keeps star exactly commutative.  The convolution is chi_c
multiplicative on all inputs by construction of P6.  O_k is the closed form
of the k-fold convolution power ORB(n)^{*k} = (L-1) fer(n,k-1) - FER(n,k)
(star_power), so O_2 = n (L-1) - FER(n,2).

The pair rules run on atoms that are already normal and emit normal terms.
_core_form gives every rule as terms of the two cores, the factors left when
P3 splits off the trivial ones: P2 the non-empty core and P6 the opaque atom,
each with coefficient 1, and only the closed forms of P4/P5 go through the
rewrite rules (FER(2,2), fer(n,1) and fer(2,r) need N4/N5).  _pair multiplies
the trivial factors back onto each term with atom_mul, which alone orders an
atom's factors, and keeps a rule of one term with coefficient 1 as its atom.

The kernel has one table of rules and two accumulation loops, both summing
into integer coefficients and adding P2 and P6 pairs with no multiplication
by their unit coefficient.  _psi, for star, psi_pair and a1.a1_star of two
one-point classes, walks each pair of terms, sums by atom and exponent and
builds the class: the Laurent leaves in one pass (laurent.leaves), then one
sort of the atoms.  _line_into, for a1.a1_star from two pairs of points up,
is atom-major: it walks each pair of atoms once, reads its rule once and adds
the product of every pair of points that carry the two atoms, by atom, point
slot and exponent; a1._line builds the class.  They stay two loops because
each fold is slower in the other's loop: a star-fold pass of stars took 13 %
longer through _line_into with one slot, and line-measure's a1_star calls
took 23 % longer one pair of points at a time, in star's loop, than through
_line_into.  One pair of points shares nothing, and there star's loop wins:
on line-measure's seed-0 ts_check pairs (collector off, Python 3.11, 2-core
Xeon), a1_star took 6.5-6.9 against 11.2-11.7 us a call through _line_into.

The table, _rules, is a dict of rows, a -> {b: rule}, kept for the process.
_pair alone derives, sizes and keeps a rule, so every caller derives a rule
once per pair of atoms.  A rule counts the bytes of its two key atoms and
itself marshalled together; the table holds at most limit = 2 MiB of them,
2.4 times one seed of star-fold's inputs (0.86-0.88 MB), and when full keeps
about 3.6 MB by tracemalloc on those inputs.  A rule that another thread
kept since the miss is not kept again and clears nothing, a new rule that
would pass the limit clears the table whole first, a rule larger than the
limit is never kept, and a rule that raises is not kept.  Writes take the
table's lock; reads are the dict's own get, with no lock and no Python call,
and a kept rule is never mutated.
"""

from __future__ import annotations

import marshal
import threading
from collections.abc import Iterable

from .classes import (FER, Atom, Factor, MuClass, atom_mul, atom_order, factor_str, fer, orb,
                      sort_atoms)
from .errors import ValidationError, _checked
from .laurent import L_MINUS_1, ONE, Coeffable, LaurentInt, Sparse, leaves
from .realize import atom_chi, chi_c


class BiClass(Sparse):
    """Finitely supported map from ordered atom pairs to LaurentInt."""

    __slots__ = ()

    @staticmethod
    def _sort(terms: list) -> None:
        terms.sort(key=lambda term: (atom_order(term[0][0]), atom_order(term[0][1])))

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
    xs, ys = _checked(a, MuClass, "a").terms(), _checked(b, MuClass, "b").terms()
    return BiClass._wrap(tuple(((a1, a2), c1 * c2) for a1, c1 in xs for a2, c2 in ys))


class _Rules(dict):
    """The pair rules, a -> {b: rule}, held counted bytes of them, at most limit."""

    __slots__ = ("limit", "held", "lock")

    def __init__(self, limit: int):
        self.limit, self.held, self.lock = limit, 0, threading.RLock()

    def clear(self) -> None:
        with self.lock:
            super().clear()
            self.held = 0


_rules = _Rules(1 << 21)  # a -> {b: the one atom of Psi(a x b), coefficient 1, or its terms}
_UNIT = ONE.items()  # the items of the coefficient 1


def _pair(a: Atom, b: Atom):
    """Derive Psi(a x b), keep it in _rules and return it."""
    # the fer factors act trivially and hold no orbit, so multiplying them back
    # onto each term of the cores' form fuses nothing (P3); the core is the rest
    triv = tuple(f for f in a + b if f[0] == "fer")
    core_a, core_b = (tuple(f for f in x if f[0] != "fer") for x in (a, b))
    rule = [(atom_mul(atom, triv)[0], k) for atom, k in _core_form(core_a, core_b)]
    if len(rule) == 1 and rule[0][1] == _UNIT:  # P2 and P6: the loops add a bare atom in as it is
        rule = rule[0][0]
    size = len(marshal.dumps((a, b, rule), 2))  # version 2: no back-references
    if size <= _rules.limit:
        with _rules.lock:
            row = _rules.get(a)
            if row is None or b not in row:  # another thread may have kept it since the miss
                if _rules.held + size > _rules.limit:
                    _rules.clear()
                _rules.setdefault(a, {})[b] = rule
                _rules.held += size
    return rule


def _psi(products: Iterable[tuple[Iterable, Iterable]]) -> MuClass:
    """Psi of the sum of xs x ys over the (xs, ys) of products.

    xs and ys are (normal atom, LaurentInt) terms.  Each pair of atoms takes its
    rule from _rules, the kernel's one table, so a rule is derived once per pair
    while it stays.  The integer coefficients are summed into one dict per atom,
    from exponents to integers; zeros are dropped at both levels, so an atom
    whose coefficient cancels goes too.
    """
    acc: dict = {}
    for xs, ys in products:
        ys = [(b, cb.items()) for b, cb in ys]  # read once per product, not once per pair
        for a, ca in xs:
            ca = ca.items()
            row = _rules.get(a, {})  # the b of one ys are distinct, so row need not grow here
            for b, cb in ys:
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
    terms = [t for t in zip(acc, leaves(acc.values())) if t[1]._terms]
    if len(terms) > 1:
        sort_atoms(terms)
    return MuClass._wrap(tuple(terms))


def _line_into(acc: dict, xs: dict, ys: dict, slots: list) -> None:
    """Add Psi of every pair of fibers of two classes over the line into acc.

    xs and ys map each atom of one side to its (point index, LaurentInt items)
    terms, slots[i][j] is the slot of the sum of point i of xs and point j of
    ys, and acc maps atoms to dicts from slots to dicts from exponents to
    integers.  Each pair of atoms takes its rule from _rules once per call and
    adds the P1 product of every pair of points that carry them.
    """
    for a, fa in xs.items():
        row = _rules.get(a, {})  # the atoms of ys are distinct, so row need not grow here
        for b, fb in ys.items():
            rule = row.get(b)
            if rule is None:
                rule = _pair(a, b)
            if type(rule) is tuple:  # P2 and P6: add the P1 product in as it is
                at = acc.get(rule)
                if at is None:
                    at = acc[rule] = {}
                for i, ca in fa:
                    to = slots[i]
                    for j, cb in fb:
                        coeffs = at.get(to[j])
                        if coeffs is None:
                            coeffs = at[to[j]] = {}
                        for e1, x1 in ca:
                            for e2, x2 in cb:
                                coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + x1 * x2
                continue
            targets = []
            for atom, k in rule:
                at = acc.get(atom)
                if at is None:
                    at = acc[atom] = {}
                targets.append((at, k))
            for i, ca in fa:
                to = slots[i]
                for j, cb in fb:
                    c = [(e1 + e2, x1 * x2) for e1, x1 in ca for e2, x2 in cb]  # P1
                    for at, k in targets:
                        coeffs = at.get(to[j])
                        if coeffs is None:
                            coeffs = at[to[j]] = {}
                        for e1, x1 in c:
                            for e2, x2 in k:
                                coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + x1 * x2


def _power(n: int, k: int) -> list[tuple[Coeffable, tuple[Factor]]]:
    """Raw terms of O_k = ORB(n)^{*k} = (L-1) fer(n,k-1) - FER(n,k), for k >= 2."""
    return [(L_MINUS_1, (fer(n, k - 1),)), (-1, (FER(n, k),))]


def _core_form(core_a: Atom, core_b: Atom) -> list[tuple[Atom, tuple]]:
    """Psi of two cores as (atom, LaurentInt items) terms: P2 the non-empty core,
    P4 O_2, P5 (L-1) fer(n,r-1) ORB(n) - O_{r+1}, and P6 one opaque atom."""
    if not core_a or not core_b:  # P2: one side acts trivially
        return [(core_a + core_b, _UNIT)]
    if len(core_a) == 1 == len(core_b):
        f, g = core_a + core_b if core_a[0][0] <= core_b[0][0] else core_b + core_a  # "FER" < "orb"
        inner = None
        if f[0] == "orb" and f == g:
            inner = MuClass(_power(f[1], 2))
        elif f[0] == "FER" and g == orb(f[1]):
            n, r = f[1], f[2]
            inner = MuClass([(L_MINUS_1, (fer(n, r - 1), orb(n)))]
                            + [(-c, factors) for c, factors in _power(n, r + 1)])
        if inner is not None:
            return [(atom, k.items()) for atom, k in inner.terms()]
    # P6, made only here: the chi of a Fermat factor past TOWER_LIMIT raises
    sa, sb = sorted("*".join(map(factor_str, core)) for core in (core_a, core_b))
    return [((("opq", f"psi({sa}|{sb})", atom_chi(core_a) * atom_chi(core_b)),), _UNIT)]


def psi_pair(p: BiClass) -> MuClass:
    """Psi of an exterior product, by bilinear extension of the pair rules."""
    return _psi((((a, c),), ((b, ONE),)) for (a, b), c in _checked(p, BiClass, "p").terms())


def star(a: MuClass, b: MuClass) -> MuClass:
    """The convolution product on classes over the point."""
    return _psi([(_checked(a, MuClass, "a").terms(), _checked(b, MuClass, "b").terms())])


def star_power(n: int, r: int) -> MuClass:
    """Closed form for the r-fold convolution power of ORB(n)."""
    if not isinstance(n, int) or n < 2 or not isinstance(r, int) or r < 1:
        raise ValidationError(f"star_power wants n >= 2 and r >= 1, got ({n!r}, {r!r})")
    if r == 1:
        return MuClass.orbit(n)
    return MuClass(_power(n, r))


def assoc_check(a: MuClass, b: MuClass, c: MuClass) -> dict:
    """Compare the two fold orders of star on a triple.

    Symbolic comparison is skipped when opaque atoms appear (equality of
    normal forms is then not informative either way); the chi_c comparison
    always runs and must succeed.
    """
    _checked(c, MuClass, "c")  # star checks a and b before any work
    left = star(star(a, b), c)
    right = star(a, star(b, c))
    if left.has_opaque() or right.has_opaque():
        symbolic: bool | str = "skipped-opaque"
    else:
        symbolic = left == right
    return {"symbolic": symbolic, "chi_consistent": chi_c(left) == chi_c(right)}
