"""The bounded table behind the kernel's rules and the datum table."""

from __future__ import annotations

from motivic.table import Table

from conftest import YieldingTable, run_in_threads


def test_a_keep_that_would_pass_the_limit_clears_the_table_whole():
    t = Table(10)
    t.keep(4, "a", 1)
    t.keep(4, "b", 2)
    assert t == {1: "a", 2: "b"} and t.held == 8
    t.keep(3, "c", 3)
    assert t == {3: "c"} and t.held == 3
    t.keep(7, "d", 4)  # up to the limit itself, nothing is cleared
    assert t == {3: "c", 4: "d"} and t.held == 10


def test_an_entry_over_the_limit_is_never_kept():
    t = Table(10)
    t.keep(4, "a", 1)
    for _ in range(2):
        t.keep(11, "b", 2)
        assert t == {1: "a"} and t.held == 4


def test_a_key_kept_already_keeps_its_first_value_and_size():
    t = Table(10)
    t.keep(4, "a", 1)
    t.keep(5, "b", 1)
    assert t == {1: "a"} and t.held == 4


def test_a_two_level_table_keeps_each_value_in_its_row():
    t = Table(20)
    t.keep(5, "ab", "a", "b")
    t.keep(6, "ac", "a", "c")
    t.keep(7, "ba", "b", "a")
    t.keep(1, "again", "a", "b")
    assert t == {"a": {"b": "ab", "c": "ac"}, "b": {"a": "ba"}} and t.held == 18
    t.keep(3, "cd", "c", "d")
    assert t == {"c": {"d": "cd"}} and t.held == 3
    t.keep(21, "ce", "c", "e")
    assert t == {"c": {"d": "cd"}} and t.held == 3


def test_clear_empties_the_count_too():
    t = Table(10)
    t.keep(4, "a", 1)
    t.clear()
    assert t == {} and t.held == 0 and t.limit == 10


def test_reads_are_the_dicts_own():
    # both tables' hit paths call get on a Table: it must stay dict.get, in C
    assert Table.get is dict.get
    assert Table.__getitem__ is dict.__getitem__ and Table.__contains__ is dict.__contains__
    assert not hasattr(Table(1), "__dict__")


def test_threads_keep_a_count_that_matches_the_table():
    t = YieldingTable(60)  # a few rows fill it: clears race the keeps
    keys = [(a, b) for a in range(6) for b in range(8)]
    miscounts: list = []

    def work(k):
        for _ in range(20):
            for a, b in keys[k:] + keys[:k]:
                t.keep(1 + (a + b) % 5, (a, b), a, b)
                with t.lock:  # writers hold it, so the table and the count agree here
                    kept = [(x, y, v) for x, row in t.items() for y, v in row.items()]
                    held = sum(1 + (x + y) % 5 for x, y, _ in kept)
                    if not held == t.held <= t.limit or any(v != (x, y) for x, y, v in kept):
                        miscounts.append((held, t.held))

    run_in_threads(work)
    # a lost update of the count, or a key counted twice, breaks the equality
    assert miscounts == []
