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
    assert "star" not in vars(fresh_package)
    # a submodule's public names are bound as the submodule loads, whoever loads it
    importlib.import_module("motivic.convolve")
    assert vars(fresh_package)["star"] is sys.modules["motivic.convolve"].star


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
