from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, strategies as st

from motivic import (A1Class, Constant, Resolved, ValidationError, a1, a1_star, a1_unit, chi_c,
                     chi_of_a1, convolve, epsilon_push, phi_generator, psi_pair, star, tensor)
from motivic.a1 import as_point

from conftest import L, ONE, PlainMapping, mu_classes, orb, power_datum, python_calls


def a1_classes():
    pts = st.integers(-2, 2)
    return st.lists(st.tuples(pts, mu_classes(max_terms=2)), max_size=2).map(A1Class)


def test_points_parse_exactly():
    assert as_point("3/2") == Fraction(3, 2)
    assert as_point(-4) == Fraction(-4)
    assert as_point("-7/3") + as_point("1/3") == Fraction(-2)
    assert [as_point(s) for s in ("-0", "+5", "007/21", "12345678901234567890/3")] == [
        0, 5, Fraction(1, 3), Fraction(12345678901234567890, 3)]
    with pytest.raises(ValidationError):
        as_point("1/0")
    with pytest.raises(ValidationError):
        as_point("x")


@pytest.mark.parametrize("value", ["1e3", "1e10000000", "0.5", " 1_0 ", "1_0", " 1", "1 ", "1\n",
                                   "", "+", "/2", "1/", "1/-2", "-1/+2", "1//2", "\u0661\u0662",
                                   "inf", "nan", True, False, 1.5, None, [1],
                                   pytest.param("1.5", id="str-1.5"), "1/0", "+-1",
                                   "0x1", "\u0661"])
def test_other_points_are_refused(value):
    # Fraction() alone would take "1e10000000" and spend seconds expanding it
    with pytest.raises(ValidationError, match="bad base point"):
        as_point(value)


def reference_as_point(value):
    """as_point before it read the groups of its own pattern: the string matched
    the pattern and then went to Fraction(str), which parsed it again."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad base point {value!r}") from exc
    raise ValidationError(f"bad base point {value!r}")


def _parsed(parse, value):
    try:
        out = parse(value)
    except ValidationError as exc:
        return exc.args
    assert type(out) is Fraction
    return out


# signs, leading zeros, a zero denominator, whitespace, separators of other
# number syntaxes and digits outside ASCII (Arabic-Indic one, fullwidth five)
_POINT_CHARS = "0123456789" + "00+-//" + " \t\n_.e" + "\u0661\uff15"
_point_strings = st.one_of(
    st.text(alphabet=_POINT_CHARS, max_size=8),
    st.tuples(st.sampled_from(["", "+", "-"]), st.text(alphabet="0123456789", min_size=1, max_size=6),
              st.sampled_from(["", "/"]), st.text(alphabet="0123456789", max_size=4)).map("".join),
)


@given(_point_strings)
@example("5" * 5000)  # past Python's default limit of 4300 digits for int(str)
@example("1/" + "7" * 5000)
@example("-" + "9" * 4300 + "/3")
@example("+007/000")
@example("-0/5")
@example("\uff15/2")
@example(" 3/4")
@example("3/4\n")
def test_points_parse_as_fraction_of_the_string_parsed_them(value):
    assert _parsed(as_point, value) == _parsed(reference_as_point, value)


def test_zero_fibers_are_dropped():
    f = A1Class({0: ONE - ONE, 1: L})
    assert f.support() == ((Fraction(1), L),)
    with pytest.raises(ValidationError, match="fiber at 0 is not a class"):
        A1Class({0: 5})


def test_any_mapping_is_read_as_points_to_fibers():
    expected = A1Class([("1/2", L), (-1, ONE)])
    for support in (MappingProxyType({-1: ONE, "1/2": L}), PlainMapping({"1/2": L, -1: ONE})):
        assert A1Class(support) == expected


def test_star_of_orbit_fibers_at_zero():
    f = A1Class({0: orb(2)})
    assert a1_star(f, f) == A1Class({0: star(orb(2), orb(2))})


def test_unit_fiber_translates():
    f = A1Class({1: ONE})
    g = A1Class({2: orb(3) + L})
    assert a1_star(f, g) == A1Class({3: orb(3) + L})


def test_fractional_points_add_exactly():
    f = A1Class({"1/3": ONE})
    g = A1Class({"2/3": ONE, "1/3": ONE})
    assert a1_star(f, g) == A1Class({1: ONE, "2/3": ONE})


def test_double_sum_expansion():
    # {0 -> 1, 1 -> 1} star itself, expanded by hand
    f = A1Class({0: ONE, 1: ONE})
    assert a1_star(f, f) == A1Class({0: ONE, 1: 2 * ONE, 2: ONE})


def test_unit_element():
    u = a1_unit()
    assert u.fiber(0) == ONE
    assert chi_of_a1(u) == 1
    for f in [A1Class({0: orb(2)}), A1Class({"1/2": L, -3: ONE}), A1Class.zero()]:
        assert a1_star(u, f) == f
        assert a1_star(f, u) == f


def test_epsilon_push_sums_fibers():
    f = A1Class({0: ONE, 5: L})
    assert epsilon_push(f) == ONE + L
    assert epsilon_push(A1Class({0: L})) == L  # the localizing element at 0


def test_epsilon_push_is_a_ring_morphism_on_orbit_fibers():
    f = A1Class({0: orb(2)})
    assert epsilon_push(a1_star(f, f)) == star(epsilon_push(f), epsilon_push(f))


def _ts_check_pairs():
    """The pairs of one-point classes that line-measure's ts_check operations
    convolve: phi of x^n at p with phi of y^2, or with the point class, at q."""
    p, q = Fraction(3, 7), Fraction(-5, 4)
    yield (phi_generator(Resolved([(p, power_datum(2))])),
           phi_generator(Resolved([(q, power_datum(2))])))
    for n in range(2, 7):
        yield phi_generator(Resolved([(p, power_datum(n))])), phi_generator(Constant(q, ONE))


def test_one_pair_a1_star_costs_one_star():
    for f, g in _ts_check_pairs():
        (p, c), (q, d) = f.support() + g.support()
        expected = A1Class({p + q: star(c, d)})  # warms the rules of the pair too
        out, calls = python_calls(lambda: a1_star(f, g))
        assert out == expected
        # through the line kernel these pairs take 30-34 calls (Python 3.11)
        assert calls <= min(24, python_calls(lambda: star(c, d))[1] + 3)


def test_one_pair_a1_star_skips_the_line_kernel(monkeypatch):
    calls = []
    for module, name in [(a1, "_line"), (a1, "_line_into"), (convolve, "_line_into"),
                         (a1, "_psi"), (convolve, "_psi")]:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    for f, g in _ts_check_pairs():
        (_, c), (_, d) = f.support() + g.support()
        # star, psi_pair and one-pair a1_star are each one pass of star's loop
        for call in (lambda: a1_star(f, g), lambda: star(c, d), lambda: psi_pair(tensor(c, d))):
            calls.clear()
            call()
            assert calls == ["_psi"]
    f, g = next(_ts_check_pairs())
    calls.clear()
    a1_star(f + A1Class({0: ONE}), g)  # two pairs of points take the line kernel
    assert calls == ["_line_into", "_line"]


@given(a1_classes(), a1_classes())
def test_a1_star_commutative(f, g):
    assert a1_star(f, g) == a1_star(g, f)


@given(a1_classes(), a1_classes())
def test_epsilon_push_morphism_law(f, g):
    assert epsilon_push(a1_star(f, g)) == star(epsilon_push(f), epsilon_push(g))


@given(a1_classes())
def test_lefschetz_at_zero_scales(f):
    scaled = a1_star(A1Class({0: L}), f)
    expected = A1Class([(p, c * L) for p, c in f.support()])
    assert scaled == expected


@given(a1_classes())
def test_chi_of_a1_is_chi_after_pushforward(f):
    assert chi_of_a1(f) == chi_c(epsilon_push(f))
