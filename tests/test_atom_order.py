"""The atom order: classes.sort_atoms against its exact definition, atom_key.

sort_atoms sorts by the cheap key atom_order and sorts again by atom_key when
atom_order's tuples do not compare: two opaque factors of equal tag and chi,
one with E-data and one without.  The generated atoms and the pinned class
below make that case common.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

from hypothesis import given, strategies as st

from motivic import (A1Class, BiClass, Constant, LaurentInt, MuClass, a1_star, a1_to_json,
                     class_to_json, classes, phi_measure, psi_pair, star)
from motivic.classes import atom_key, atom_order, factor_key, sort_atoms
from motivic.jsonio import dumps

from conftest import python_calls

# --- generated normal atoms -----------------------------------------------------------

# small pools, so that atoms often agree up to a pair of opaque factors of equal
# tag and chi, one with E-data and one without
_orbit = st.integers(2, 3).map(lambda d: ("orb", d))
_others = st.one_of(
    st.integers(2, 3).map(lambda r: ("FER", 3, r)),
    st.integers(3, 4).map(lambda n: ("fer", n, 2)),
    st.tuples(st.sampled_from(["t", "u"]), st.integers(0, 1),
              st.sampled_from([None, None, (((0, 0), 1),), (((1, 1), 1),)])).map(
        lambda t: ("opq", *t)),
)
# at most one orbit, first; the other factors in factor_key order, as atom_mul leaves them
normal_atoms = st.tuples(st.lists(_orbit, max_size=1), st.lists(_others, max_size=2)).map(
    lambda parts: tuple(parts[0]) + tuple(sorted(parts[1], key=factor_key)))


def _twin(a):
    """a with its opaque factors' E-data present where absent and absent where present."""
    flipped = [("opq", f[1], f[2], None if f[3] else (((0, 0), 1),)) if f[0] == "opq" else f
               for f in a]
    return tuple(sorted(flipped, key=factor_key))


@given(st.lists(normal_atoms, unique=True, max_size=12), st.randoms(use_true_random=False))
def test_sort_atoms_is_the_atom_key_order(atoms, rnd):
    atoms = list(dict.fromkeys(atoms + [_twin(a) for a in atoms]))
    rnd.shuffle(atoms)
    terms = [(a, k) for k, a in enumerate(atoms)]
    sort_atoms(terms)
    assert terms == sorted(terms, key=lambda term: atom_key(term[0]))
    pairs = [((a, b), 1) for a in atoms[:4] for b in atoms[:4]]
    rnd.shuffle(pairs)
    BiClass._sort(pairs)
    assert pairs == sorted(pairs, key=lambda t: (atom_key(t[0][0]), atom_key(t[0][1])))


@given(st.lists(normal_atoms, unique=True, min_size=1, max_size=6))
def test_the_cheap_key_agrees_with_atom_key_wherever_it_compares(atoms):
    for a, b in combinations(dict.fromkeys(atoms + [_twin(a) for a in atoms]), 2):
        try:
            cheap = atom_order(a) < atom_order(b)
        except TypeError:  # only opaque factors of equal tag and chi, with and without E-data
            assert any(f[0] == g[0] == "opq" and f[1:3] == g[1:3] and (f[3] is None) != (g[3] is None)
                       for f, g in zip(a, b))
            continue
        assert cheap == (atom_key(a) < atom_key(b))


# --- the fallback, pinned ---------------------------------------------------------------

PINS = Path(__file__).with_name("atom_order_pins.txt")


def fallback_outputs() -> dict:
    """Canonical JSON of each sort of atoms on a class whose atoms make the cheap key raise."""
    t, te, f = ("opq", "t", 3), ("opq", "t", 3, (((0, 0), 3),)), ("fer", 3, 2)
    c = MuClass([(1, [t]), (2, [te]), (-1, [t, f]), (1, [te, f])])
    triv = MuClass([(1, []), (1, [f]), (-2, [("fer", 4, 2)])])
    pairs = BiClass([(a, b, k) for a, k in c.terms() for b, _ in triv.terms()])
    return {
        "MuClass": class_to_json(c),
        "star": class_to_json(star(c, triv)),
        "star-self": class_to_json(star(c, c)),
        "BiClass": [[class_to_json(MuClass._wrap(((a, k),))), class_to_json(MuClass._wrap(((b, k),)))]
                    for (a, b), k in pairs.terms()],
        "psi_pair": class_to_json(psi_pair(pairs)),
        "a1_star": a1_to_json(a1_star(A1Class({0: c, 1: triv}), A1Class({0: triv, "1/2": c}))),
        "phi_measure": a1_to_json(phi_measure(((1, Constant(0, c)), (2, Constant(1, c)),
                                               (1, Constant(0, triv))))),
    }


def test_the_fallback_keeps_every_output_byte():
    pinned = dict(line.split(" ", 1) for line in PINS.read_text(encoding="utf-8").splitlines())
    outputs = fallback_outputs()
    assert list(outputs) == list(pinned)
    for name, value in outputs.items():
        assert dumps(value) == pinned[name], name


# --- the gain ---------------------------------------------------------------------------

# star-fold's atoms: products of at most two of its factors that are already normal
_FACTORS = ([("orb", d) for d in (2, 3, 4, 6)] + [("FER", n, r) for n in (3, 4) for r in (2, 3, 4)]
            + [("fer", n, 2) for n in (3, 4, 5)])
_POOL = [()] + [(f,) for f in _FACTORS] + [(f, g) for i, f in enumerate(_FACTORS)
                                          for g in _FACTORS[i:] if not f[0] == g[0] == "orb"]


def _star_fold_class(rng: random.Random, n_terms: int) -> MuClass:
    atoms = rng.sample(_POOL, -(-n_terms // 3))
    atoms += [rng.choice(atoms) for _ in range(n_terms - len(atoms))]
    return MuClass([(LaurentInt([(rng.randint(-1, 2), rng.choice((-3, -2, -1, 1, 2, 3)))]), a)
                    for a in atoms])


def test_star_sorts_without_atom_key(rng, monkeypatch):
    a, b = _star_fold_class(rng, 40), _star_fold_class(rng, 40)
    expected = star(a, b)  # derives the pair rules, which multiply factors with factor_key
    calls = {"atom_key": 0, "factor_key": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(classes, "atom_key", counted("atom_key", atom_key))
    monkeypatch.setattr(classes, "factor_key", counted("factor_key", factor_key))
    out, count = python_calls(lambda: star(a, b))
    assert out == expected and calls == {"atom_key": 0, "factor_key": 0}
    # two Python calls per output term to build its key (atom_key made two plus
    # one per factor), one per term of either side to read its coefficient, 50 more
    n_a, n_b, n_out = len(a.terms()), len(b.terms()), len(out.terms())
    assert n_out > 200 and count <= 2 * n_out + n_a + n_b + 50
