"""The package namespace: every public name, loaded on first use."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import motivic

from conftest import run_in_threads


def test_every_public_name_is_its_home_modules_object():
    for name in motivic.__all__:
        value = getattr(motivic, name)
        assert value.__module__ == f"motivic.{motivic._HOME[name]}", name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_re_exports_are_the_leaf_modules_objects():
    # a tracer wraps these by their names on jsonio and realize, and rebinds
    # every module that holds the same object, the CLI's leaves included
    from motivic import canonical, cli, jsonio, oracle, realize
    assert jsonio.dumps is canonical.dumps is cli.dumps
    assert realize.count_fermat_points is oracle.count_fermat_points


def test_the_table_names_every_submodule():
    files = Path(motivic.__file__).parent.glob("*.py")
    assert set(motivic._MODULES) == {p.stem for p in files if not p.stem.startswith("__")}


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from motivic import *", namespace)
    assert {name: namespace[name] for name in motivic.__all__} == \
        {name: getattr(motivic, name) for name in motivic.__all__}


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(motivic)
    assert "__all__" in listed and "__version__" in listed
    assert set(motivic.__all__) <= set(listed)
    assert {"cli", "jsonio", "oracle", "canonical"} <= set(listed)


@pytest.mark.parametrize("value", [5, []], ids=["int", "list"])
@pytest.mark.parametrize("entry, leading", [
    ("star", 1), ("tensor", 1), ("psi_pair", 0), ("assoc_check", 2), ("chi_c", 0),
    ("e_polynomial", 0), ("forget_action", 0), ("a1_star", 1), ("epsilon_push", 0),
    ("chi_of_a1", 0), ("vanishing_cycles", 0), ("nearby_fiber", 0), ("validate_datum", 0)])
def test_an_entry_refuses_a_value_of_the_wrong_type(entry, leading, value):
    # the value comes last, after valid classes; a1_star's first class has two
    # points, so the value reaches the line kernel's route, not star's
    one = motivic.MuClass.one()
    first = motivic.A1Class({0: one, 1: one}) if entry == "a1_star" else one
    with pytest.raises(motivic.ValidationError, match=r"must be a \w+, got "):
        getattr(motivic, entry)(*[first] * leading, value)


_WRONG_TYPE = {
    "add": "b must be a MuClass, got 5",
    "normalize": "raw_terms must be iterable, got 5",
    "phi_measure": "p must be iterable, got 5",
    "class_to_json": "c must be a MuClass, got 5",
    "a1_to_json": "f must be a A1Class, got 5",
    "datum_to_json": "d must be a SNCDatum, got 5",
    "generator_to_json": "unknown generator 5",
    "presentation_to_json": "p must be iterable, got 5",
}


@pytest.mark.parametrize("entry", _WRONG_TYPE)
def test_a_sum_fold_or_writer_names_the_argument_of_the_wrong_type(entry):
    # each checks its argument once, at entry, and names it
    leading = [motivic.MuClass.one()] if entry == "add" else []
    with pytest.raises(motivic.ValidationError) as info:
        getattr(motivic, entry)(*leading, 5)
    assert str(info.value) == _WRONG_TYPE[entry]


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(motivic, "nope")
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        motivic.nope  # noqa: B018


@pytest.fixture
def fresh_package():
    """A second copy of the package with no submodule loaded; the first is put back after."""
    saved = {k: v for k, v in sys.modules.items() if k == "motivic" or k.startswith("motivic.")}
    for k in saved:
        del sys.modules[k]
    try:
        yield importlib.import_module("motivic")
    finally:
        for k in [k for k in sys.modules if k == "motivic" or k.startswith("motivic.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def test_a_fresh_package_has_loaded_no_submodule(fresh_package):
    assert [k for k in sys.modules if k.startswith("motivic.")] == []
    # the first read of a submodule loads it
    assert fresh_package.oracle is sys.modules["motivic.oracle"]
    assert "star" not in vars(fresh_package)
    # loading a submodule binds none of its names; the first read binds its own object
    importlib.import_module("motivic.convolve")
    assert "star" not in vars(fresh_package)
    assert fresh_package.star is sys.modules["motivic.convolve"].star
    assert vars(fresh_package)["star"] is sys.modules["motivic.convolve"].star


def test_a_stand_in_read_first_is_returned_but_never_bound(fresh_package, monkeypatch):
    # a tracer's wrapper or a test's stand-in comes from another module, so
    # the package must not keep it past its uninstall or monkeypatch
    convolve = importlib.import_module("motivic.convolve")
    star = convolve.star

    def stand_in(a, b):
        return star(a, b)

    monkeypatch.setattr(convolve, "star", stand_in)
    assert fresh_package.star is stand_in
    assert "star" not in vars(fresh_package)
    monkeypatch.undo()
    assert fresh_package.star is star
    assert vars(fresh_package)["star"] is star


def test_threads_resolving_names_first_get_the_same_objects(fresh_package):
    names = list(motivic.__all__)
    seen: list = [None] * 4

    def work(k):
        # each thread starts at a different name, so they load modules in different orders
        order = names[k * len(names) // 4:] + names[:k * len(names) // 4]
        seen[k] = {name: getattr(fresh_package, name) for name in order}

    run_in_threads(work)
    homes = {name: getattr(sys.modules[f"motivic.{fresh_package._HOME[name]}"], name)
             for name in names}
    for found in seen:
        assert found.keys() == homes.keys()
        assert all(found[name] is homes[name] for name in names)
    assert all(vars(fresh_package)[name] is homes[name] for name in names)
