"""The bounded table behind the kernel's rules, convolve._rules, as convolve._pair fills it."""

from __future__ import annotations

from motivic import convolve

from conftest import _O2, _O3, _O4, _O5, _held_size, _rule_size


def test_a_keep_that_would_pass_the_limit_clears_the_table_whole(monkeypatch):
    first, second = (_O2, _O3), (_O2, _O4)
    last = _rule_size(_O4, _O5)
    # up to the limit itself nothing is cleared
    monkeypatch.setattr(convolve._rules, "limit", _rule_size(*first) + _rule_size(*second))
    rules = {ab: convolve._pair(*ab) for ab in (first, second)}
    assert convolve._rules == {_O2: {_O3: rules[first], _O4: rules[second]}}
    assert _held_size() == convolve._rules.held == convolve._rules.limit
    rule = convolve._pair(_O4, _O5)
    assert convolve._rules == {_O4: {_O5: rule}} and convolve._rules.held == last == _held_size()


def test_a_two_level_table_keeps_each_value_in_its_row(monkeypatch):
    pairs = [(_O2, _O3), (_O2, _O4), (_O3, _O2)]
    monkeypatch.setattr(convolve._rules, "limit", sum(_rule_size(*ab) for ab in pairs))
    rules = {ab: convolve._pair(*ab) for ab in pairs[:2]}
    convolve._pair(_O2, _O3)  # a key kept already keeps its row as it was
    rules[_O3, _O2] = convolve._pair(_O3, _O2)
    # each rule is kept in the row of its first atom
    assert convolve._rules == {_O2: {_O3: rules[_O2, _O3], _O4: rules[_O2, _O4]},
                               _O3: {_O2: rules[_O3, _O2]}}
    assert convolve._rules[_O2][_O3] is rules[_O2, _O3]
    assert _held_size() == convolve._rules.held == convolve._rules.limit
    rule = convolve._pair(_O4, _O5)  # past the limit: the rows go with the table
    assert convolve._rules == {_O4: {_O5: rule}} and convolve._rules.held == _held_size()
