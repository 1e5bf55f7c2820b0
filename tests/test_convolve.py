from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from motivic import (A1Class, BiClass, Constant, MuClass, Resolved, ValidationError, a1_star,
                     assoc_check, chi_c, count_fermat_points, forget_action, mul, normalize,
                     phi_measure, psi_pair, star, star_power, tensor)
from motivic import convolve, realize
from motivic.jsonio import a1_to_json, class_to_json, dumps
from motivic.laurent import L_MINUS_1

from conftest import (GM, L, ONE, YieldingTable, _O2, _O3, _O4, _O5, _factors, _held_size,
                      _rule_size, _size_of, cross_datum, mu_classes, orb, power_datum,
                      raw_terms, run_in_threads)
from oracles import N_t, count_fermat_affine, nth_roots_of_minus_one, sum_of_powers_counts


def fold(n, r):
    out = orb(n)
    for _ in range(r - 1):
        out = star(out, orb(n))
    return out


# --- the quadratic square ----------------------------------------------------------

def test_star_of_two_point_orbits():
    assert star(orb(2), orb(2)) == GM + 2 * orb(2)


def test_unit_law():
    for c in [orb(3), MuClass.fermat(3, 2), GM + 2 * orb(2), MuClass.zero()]:
        assert star(c, ONE) == c
        assert star(ONE, c) == c


def test_lefschetz_multiples_act_as_scalars():
    a = orb(3) + MuClass.fermat(4, 2)
    assert star(a, L) == a * L
    assert star(a, MuClass.lefschetz(2)) == a * MuClass.lefschetz(2).coefficient(())


def test_orbit_orbit_rule_for_n3_against_component_oracle():
    # {x^3 + y^3 = 0} in the torus square splits into as many tori as there
    # are cube roots of -1; count them and the F_q points independently
    q = 7
    roots = nth_roots_of_minus_one(3, q)
    assert roots == 3
    assert count_fermat_affine(3, 2, q, target=0) == roots * (q - 1)
    assert star(orb(3), orb(3)) == normalize([(3 * L_MINUS_1, []), (-1, [("FER", 3, 2)])])


_SUMS_OF_POWERS = ([(2, r, q) for r in range(2, 6) for q in (17, 41, 73, 89)]
                   + [(n, 2, q) for n, primes in ((3, (7, 13, 19, 31)), (4, (17, 41, 73, 89)),
                                                  (5, (11, 31, 41, 61))) for q in primes])


@pytest.mark.parametrize("n, r, q", _SUMS_OF_POWERS)
def test_sums_of_powers_count_as_a_convolution_power(n, r, q):
    # phi of f = x_1^n + ... + x_r^n is (1 - ORB(n))^{*r} by Thom-Sebastiani; over
    # F_q with q = 1 mod 2n it counts #{f = 0} - #{f = 1} on A^r, with L = q and
    # each fer(n,2) its points
    phi = ONE
    for _ in range(r):
        phi = star(phi, ONE - orb(n))
    counted = 0
    for atom, coeff in forget_action(phi).terms():
        value = sum(k * q ** e for e, k in coeff.items())
        for f in atom:
            assert f == ("fer", n, 2)
            value *= count_fermat_points(n, 2, q)
        counted += value
    counts = sum_of_powers_counts(n, r, q)
    assert counted == counts[0] - counts[1]


def _primes_1_mod(m: int, k: int) -> list[int]:
    """The first k primes q = 1 mod m, by trial division."""
    found, q = [], 1
    while len(found) < k:
        q += m
        if all(q % p for p in range(2, math.isqrt(q) + 1)):
            found.append(q)
    return found


@pytest.mark.parametrize("n, q", [(n, q) for n in range(2, 7) for q in _primes_1_mod(2 * n, 3)])
def test_sums_of_two_powers_count_with_the_action_twisted(n, q):
    # #{x^n + y^n = 0} - #{x^n + y^n = t} on A^2 counts phi twisted by the torsor
    # {s^n = t}, which sees the mu_n-action that forget_action drops; r = 2 only,
    # since FER/fer at r >= 3 are the classes the convolution defines
    phi = star(ONE - orb(n), ONE - orb(n))
    counts = sum_of_powers_counts(n, 2, q)
    assert [counts[0] - counts[t] for t in range(1, q)] == [N_t(phi, q, t) for t in range(1, q)]


def test_trivial_coefficient_pulls_out():
    lhs = star(GM * orb(2), orb(2))
    assert lhs == GM * (GM + 2 * orb(2))


def test_star_with_trivial_action_argument_degenerates_to_product():
    assert star(orb(3), GM) == GM * orb(3)
    fer32 = MuClass.fermat_trivial(3, 2)
    assert star(orb(5), fer32) == mul(orb(5), fer32)


def test_psi_pair_of_a_built_exterior_product():
    # integer coefficients are read as Laurent constants, factors in any order
    p = BiClass([((("orb", 2),), (("orb", 2),), 3),
                 ((("fer", 3, 2), ("orb", 2)), (), 1)])
    assert psi_pair(p) == 3 * (GM + 2 * orb(2)) + mul(orb(2), MuClass.fermat_trivial(3, 2))


def test_exterior_products_take_only_normal_atoms():
    for atom in [(("orb", 2), ("orb", 2)), (("FER", 2, 2),), (("fer", 3, 1),), (("gm", 1),)]:
        with pytest.raises(ValidationError):
            BiClass([(atom, (), 1)])


# --- star_power --------------------------------------------------------------------

def test_star_power_validation():
    for n, r in [(1, 2), (2, 0), (0, 1)]:
        with pytest.raises(ValidationError):
            star_power(n, r)


def test_star_power_examples():
    assert star_power(2, 2) == GM + 2 * orb(2)
    assert star_power(4, 1) == orb(4)
    closed = normalize([(L_MINUS_1, [("fer", 2, 2)]), (-1, [("FER", 2, 3)])])
    assert star_power(2, 3) == closed == fold(2, 3)
    assert chi_c(star_power(2, 3)) == 8 == chi_c(fold(2, 3))


def test_star_power_equals_folds_up_to_four():
    # n = 2 goes further: its folds tie the tower's closed form to the kernel
    for n in range(2, 5):
        for r in range(1, 9 if n == 2 else 5):
            assert star_power(n, r) == fold(n, r)
            assert chi_c(fold(n, r)) == n ** r


# --- opaque fallback ------------------------------------------------------------------

def test_mixed_orbits_fall_back_to_an_opaque_class():
    s = star(orb(2), orb(3))
    assert s.has_opaque()
    assert chi_c(s) == 6
    assert s == star(orb(3), orb(2))


def test_fermat_times_fermat_is_opaque_with_multiplicative_chi():
    s = star(MuClass.fermat(3, 2), MuClass.fermat(3, 2))
    assert s.has_opaque()
    assert chi_c(s) == 81


def test_nested_opaque_chi_stays_multiplicative():
    s = star(star(orb(2), orb(3)), orb(5))
    assert chi_c(s) == 30


def test_p6_chi_is_linear_in_a_run_of_equal_factors(monkeypatch):
    # the opaque atom's chi takes one factor_chi call and one power per distinct
    # factor, not a product of 6000 integers of 634 bits each
    big = MuClass([(1, [("FER", 3, 400)] * 6000)])
    calls = []
    factor_chi = realize.factor_chi
    monkeypatch.setattr(realize, "factor_chi", lambda f: calls.append(f) or factor_chi(f))
    s = star(big, orb(2))
    monkeypatch.undo()
    assert sorted(calls) == [("FER", 3, 400), ("orb", 2)]
    (atom, coeff), = s.terms()
    assert coeff == 1 and len(atom) == 1 and atom[0][0] == "opq"
    assert chi_c(s) == chi_c(big) * chi_c(orb(2)) == 2 * 3 ** 2400000


# --- associativity -----------------------------------------------------------------------

def test_assoc_check_on_point_orbits():
    report = assoc_check(orb(2), orb(2), orb(2))
    assert report == {"symbolic": True, "chi_consistent": True}


def test_assoc_check_trivial_triple():
    assert assoc_check(ONE, ONE, ONE) == {"symbolic": True, "chi_consistent": True}


def test_assoc_check_skips_symbolic_comparison_on_opaque():
    report = assoc_check(orb(2), orb(3), GM)
    assert report == {"symbolic": "skipped-opaque", "chi_consistent": True}
    # the folds happen to agree structurally here: the trivial factor passes through
    assert star(star(orb(2), orb(3)), GM) == star(orb(2), star(orb(3), GM))
    assert chi_c(star(star(orb(2), orb(3)), GM)) == 0


# --- algebraic properties -----------------------------------------------------------------

@given(mu_classes(), mu_classes())
def test_star_is_commutative(a, b):
    assert star(a, b) == star(b, a)


@given(mu_classes(max_terms=2), mu_classes(max_terms=2), mu_classes(max_terms=2))
def test_star_is_bilinear(a, b, c):
    assert star(a + b, c) == star(a, c) + star(b, c)


def _orbit_span(n):
    # classes in the span of the point and one orbit: convolution folds of
    # these stay inside the closed-form rules, so associativity must be
    # symbolically exact
    from conftest import laurents
    from hypothesis import strategies as st
    return st.tuples(laurents(max_terms=2), laurents(max_terms=2)).map(
        lambda t: MuClass([(t[0], []), (t[1], [("orb", n)])]))


@given(_orbit_span(2), _orbit_span(2), _orbit_span(2))
def test_star_associative_on_the_quadratic_orbit_span(a, b, c):
    left = star(star(a, b), c)
    right = star(a, star(b, c))
    assert not left.has_opaque()
    assert left == right


@given(_orbit_span(3), _orbit_span(3), _orbit_span(3))
def test_star_associative_on_the_cubic_orbit_span(a, b, c):
    left = star(star(a, b), c)
    right = star(a, star(b, c))
    assert not left.has_opaque()
    assert left == right


@given(mu_classes())
def test_star_unit(a):
    assert star(a, ONE) == a


@given(mu_classes(), mu_classes())
def test_chi_is_multiplicative_for_star(a, b):
    assert chi_c(star(a, b)) == chi_c(a) * chi_c(b)


def test_forget_is_not_a_star_homomorphism():
    a = orb(2)
    defect = forget_action(star(a, a)) - mul(forget_action(a), forget_action(a))
    assert defect == GM
    assert defect != MuClass.zero()


def test_psi_pair_matches_star_through_tensor():
    a, b = GM + orb(2), orb(2) + MuClass.fermat(3, 2)
    assert psi_pair(tensor(a, b)) == star(a, b)


# --- the kernel's table -------------------------------------------------------------------

# P6 (orbits 2 and 3, FER(3,2) with ORB(2)), P4 (ORB(2) twice) and P5 (FER(3,2) with ORB(3))
_MIXED = (orb(2) + orb(3) + MuClass.fermat(3, 2), orb(3) + orb(2) + GM)


def test_a_second_star_of_a_pair_derives_no_rule(monkeypatch):
    first = star(*_MIXED)
    chis, forms = [], []
    factor_chi, core_form = realize.factor_chi, convolve._core_form
    monkeypatch.setattr(realize, "factor_chi", lambda f: chis.append(f) or factor_chi(f))
    monkeypatch.setattr(convolve, "_core_form",
                        lambda *cores: forms.append(cores) or core_form(*cores))
    assert star(*_MIXED) == first
    assert chis == [] and forms == []


def test_a1_star_derives_each_pair_of_atoms_once(monkeypatch):
    # the line kernel reads a rule once per pair of atoms, however many pairs
    # of points carry it, and a repeat call finds every rule in the table
    f = A1Class({0: orb(2) + orb(3), 1: orb(2) + GM, "1/2": orb(3) + MuClass.fermat(3, 2)})
    g = A1Class({-1: orb(2) + MuClass.fermat(3, 2), 2: orb(3) + orb(2), "1/3": GM})
    derived = []
    pair = convolve._pair
    monkeypatch.setattr(convolve, "_pair", lambda a, b: derived.append((a, b)) or pair(a, b))
    convolve._rules.clear()
    first = a1_star(f, g)
    atoms = [{a for _, c in h.support() for a, _ in c.terms()} for h in (f, g)]
    assert len(derived) == len(set(derived)) == len(atoms[0]) * len(atoms[1]) == 16
    assert set(derived) == set(itertools.product(*atoms))
    derived.clear()
    assert a1_star(f, g) == first
    assert derived == []


def test_a_rule_over_the_limit_is_never_kept(monkeypatch):
    monkeypatch.setattr(convolve._rules, "limit", _rule_size(_O2, _O3))
    assert _rule_size(_O2, _O2) > convolve._rules.limit  # P4 keeps two terms, P6 one atom
    kept = convolve._pair(_O2, _O3)
    for _ in range(2):
        assert convolve._pair(_O2, _O2) == [(a, c.items()) for a, c in star(orb(2), orb(2)).terms()]
        assert convolve._rules == {_O2: {_O3: kept}}
        assert convolve._rules.held == convolve._rules.limit


def test_a_rule_kept_already_keeps_its_first_value_and_size():
    first = convolve._pair(_O2, _O2)
    held = convolve._rules.held
    again = convolve._pair(_O2, _O2)  # as a thread that missed before another kept it
    assert again == first and again is not first
    assert convolve._rules[_O2][_O2] is first and convolve._rules.held == held == _held_size()


def test_a_rule_kept_already_clears_no_full_table(monkeypatch):
    # a thread that missed before another kept the same rule finds it kept
    # before it asks whether a new rule would pass the limit
    o7 = (("orb", 7),)
    first = convolve._pair(_O2, _O3)
    convolve._pair(_O5, o7)
    held = convolve._rules.held
    monkeypatch.setattr(convolve._rules, "limit", held)
    assert convolve._pair(_O2, _O3) == first
    assert set(convolve._rules) == {_O2, _O5} and convolve._rules[_O2][_O3] is first
    assert o7 in convolve._rules[_O5]
    assert convolve._rules.held == held == _held_size() == 196


def test_clear_empties_the_count_too():
    star(orb(2) + orb(3), orb(2))
    assert convolve._rules.held > 0
    limit = convolve._rules.limit
    convolve._rules.clear()
    assert convolve._rules == {} and convolve._rules.held == 0 and convolve._rules.limit == limit


def test_reads_are_the_dicts_own():
    # both loops' hit paths call get on the table: it must stay dict.get, in C
    assert convolve._Rules.get is dict.get
    assert convolve._Rules.__getitem__ is dict.__getitem__
    assert convolve._Rules.__contains__ is dict.__contains__
    assert not hasattr(convolve._rules, "__dict__")


def test_threads_keep_a_count_that_matches_the_table(monkeypatch):
    atoms = [_O2, _O3, _O4, _O5, (("fer", 3, 2),), ()]
    expected = {(a, b): convolve._pair(a, b) for a in atoms for b in atoms}
    keys = list(expected)
    # a few rules fill it: clears race the keeps
    monkeypatch.setattr(convolve, "_rules", YieldingTable(3 * max(map(_size_of, expected.items()))))
    miscounts: list = []

    def work(k):
        for _ in range(20):
            for a, b in keys[k:] + keys[:k]:
                convolve._pair(a, b)
                rules = convolve._rules
                with rules.lock:  # writers hold it, so the table and the count agree here
                    kept = [((x, y), v) for x, row in rules.items() for y, v in row.items()]
                    held = sum(map(_size_of, kept))
                    wrong = any(v != expected[xy] for xy, v in kept)
                    if wrong or not held == rules.held <= rules.limit:
                        miscounts.append((held, rules.held))

    run_in_threads(work)
    # a lost update of the count, or a rule counted twice, breaks the equality
    assert miscounts == []


def test_a_rule_that_raises_raises_on_every_call():
    # the P6 factor of FER(3,401) with ORB(2) needs the chi past TOWER_LIMIT; nothing is kept for it
    for _ in range(2):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            star(MuClass.fermat(3, 401), orb(2))
    assert convolve._rules == {}


def test_a_miss_past_the_limit_alone_is_not_kept(monkeypatch):
    a = MuClass([(1, [("orb", 2), ("FER", 3, 2)])])
    b = MuClass([(1, [("orb", 3), ("FER", 4, 2)])])
    expected = star(a, b)
    # the two keys marshal to 97 bytes, and with their P6 rule to 162
    monkeypatch.setattr(convolve._rules, "limit", 128)
    convolve._rules.clear()
    assert star(a, b) == expected
    assert convolve._rules == {}
    assert _held_size() == convolve._rules.held <= 128


def _released(pairs):
    # each input goes once its star returns, so only the kept rule holds its tags and integers
    def case():
        for i in range(50):
            star(*pairs(i))
    return case


def test_the_limit_counts_the_words_of_each_kept_chi():
    # a P6 chi grows with r log n: each FER(10^20 + i, 400) with ORB(2) keeps a chi
    # of ~26 600 bits; a P6 tag holds the tags of its cores; a P2 rule's key may
    # hold the only copy of a long tag, of a long Fermat n or of a long E-data
    # coefficient; a P4 rule's coefficients grow with its orbit size; small atoms
    # keep the most per byte
    big = MuClass([(1, [("FER", 10 ** 20 + i, 400)]) for i in range(500)])
    tagged = MuClass([(1, [("opq", f"{i}" + "t" * 10_000, 1)]) for i in range(100)])
    orbits = sum((orb(d) for d in range(2, 22)), MuClass.zero())
    fer32 = MuClass.fermat_trivial(3, 2)
    small = sum((orb(d) for d in range(2, 12)), MuClass.zero())
    cases = (lambda: star(big, orb(2)), lambda: star(tagged, orbits),
             _released(lambda i: (MuClass.opaque(f"{i}" + "t" * 100_000, 1), fer32)),
             _released(lambda i: (MuClass.fermat_trivial(10 ** 4000 + i, 2), orb(2))),
             _released(lambda i: (orb(10 ** 4000 + i),) * 2),
             _released(lambda i: (MuClass.opaque("t", 1, {(0, 0): 10 ** 4000 + i}), fer32)),
             lambda: star(small, small + MuClass.fermat(3, 2)))
    # kept bytes per counted byte: 0.50-1.24, and 2.0 on the small atoms; with
    # the rules' own bytes not counted, 61 on the first case and 4.1 on the last
    for case in cases:
        convolve._rules.clear()
        tracemalloc.start()
        case()
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert kept <= 4 * convolve._rules.held
        assert _held_size() == convolve._rules.held


def test_threads_sharing_the_tables_get_serial_results(monkeypatch):
    classes = [orb(2), orb(3), orb(2) + MuClass.fermat(3, 2), GM + orb(3), star(orb(2), orb(3))]
    pairs = [(x, y) for x in classes for y in classes]
    serial = [star(x, y) for x, y in pairs]
    # a few pairs fill it: clears race the reads
    monkeypatch.setattr(convolve, "_rules", YieldingTable(512))
    results: list = [None] * 4

    def work(k):
        order = list(range(len(pairs)))
        order = order[k:] + order[:k]
        out = [None] * len(pairs)
        for _ in range(10):
            for i in order:
                out[i] = star(*pairs[i])
        results[k] = out

    run_in_threads(work)
    assert results == [serial] * 4


def test_an_int_subclass_in_a_factor_is_kept_as_the_int():
    # an entry that renders otherwise must not put its text in a P6 label kept
    # for 3, or for the tag "t"
    class Shown(int):
        def __format__(self, spec):
            return "three"

    class Tag(str):
        def __format__(self, spec):
            return "other"

    (factor,) = MuClass.fermat(Shown(3), 2).terms()[0][0]
    assert factor == ("FER", 3, 2) and type(factor[1]) is int
    odd = dumps(class_to_json(star(MuClass.fermat(Shown(3), 2), orb(2))))
    assert odd == dumps(class_to_json(star(MuClass.fermat(3, 2), orb(2))))
    assert "three" not in odd
    (factor,) = MuClass.opaque(Tag("t"), 2).terms()[0][0]
    assert factor == ("opq", "t", 2, None) and type(factor[1]) is str
    odd = dumps(class_to_json(star(MuClass.opaque(Tag("t"), 2), orb(2))))
    assert odd == dumps(class_to_json(star(MuClass.opaque("t", 2), orb(2))))
    assert "other" not in odd


# Opaque factors with E-data and tags holding the separators of P6 tags, and
# factors given a bool entry: the constructors store True as 1, so no atom kept
# for one may come back for the other with different bytes.
_opaque_factors = st.tuples(
    st.text(alphabet="ab[]|*;:", max_size=4),
    st.integers(-3, 3),
    st.none() | st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                st.integers(-2, 2), max_size=2),
).map(lambda t: ("opq", *t))
_bool_factors = st.sampled_from([("opq", "b", True, {(0, 0): True}), ("opq", "b", 1, {(0, 0): 1}),
                                 ("fer", 3, True), ("orb", True)])
_memo_classes = raw_terms(factors=st.one_of(_factors, _opaque_factors, _bool_factors)).map(MuClass)


def _calls(a, b, k):
    f, g = A1Class({0: a, 1: b}), A1Class({-1: b, "1/2": a})
    presentation = ((k, Resolved([(0, power_datum(3)), (1, cross_datum())])),
                    (1, Constant("1/2", a.forget_action())), (-k, Constant(0, b.forget_action())))
    return [lambda: class_to_json(star(a, b)),
            lambda: class_to_json(psi_pair(tensor(a, b))),
            lambda: a1_to_json(a1_star(f, g)),
            lambda: a1_to_json(phi_measure(presentation))]


@given(st.lists(st.tuples(_memo_classes, _memo_classes, st.integers(-2, 2)),
                min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_warm_tables_give_the_bytes_of_cleared_ones(triples, rnd):
    calls = [call for a, b, k in triples for call in _calls(a, b, k)]
    cold = []
    for call in calls:
        convolve._rules.clear()
        cold.append(dumps(call()))
    order = list(range(len(calls)))
    rnd.shuffle(order)
    warm = {i: dumps(calls[i]()) for i in order}
    assert [warm[i] for i in range(len(calls))] == cold
