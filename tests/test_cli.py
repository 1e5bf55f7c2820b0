from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import motivic
from motivic import MuClass, class_to_json, datum_to_json, generator_to_json
from motivic.cli import run

from conftest import GM, ONE, cross_datum, orb, power_datum, python_calls


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_normalize_roundtrip(tmp_path, capsys):
    raw = {"terms": [{"coeff": {"0": 1}, "factors": [{"FER": [2, 2]}]},
                     {"coeff": {"0": 1}, "factors": [{"gm": 1}]}]}
    code, out = run_cli(capsys, "normalize", write(tmp_path, "c.json", raw))
    assert code == 0
    expected = MuClass.fermat(2, 2) + MuClass.torus()
    assert json.loads(out) == class_to_json(expected)


def test_normalize_validation_error(tmp_path, capsys):
    raw = {"terms": [{"coeff": {"0": 1}, "factors": [{"orb": 0}]}]}
    code, out = run_cli(capsys, "normalize", write(tmp_path, "bad.json", raw))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "validation"


def test_parse_errors_exit_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    code, out = run_cli(capsys, "normalize", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "parse"
    code, out = run_cli(capsys, "normalize", str(tmp_path / "missing.json"))
    assert code == 2
    code, out = run_cli(capsys, "bogus-command")
    assert code == 2
    presentation = {"terms": [{"coeff": 1, "generator": {"bogus": {}}}]}
    code, out = run_cli(capsys, "measure", write(tmp_path, "p.json", presentation))
    assert (code, json.loads(out)) == (2, {"error": "parse",
                                           "detail": "unknown generator kind 'bogus'"})


def test_a_locus_that_is_not_a_string_exits_two(tmp_path, capsys):
    datum = datum_to_json(power_datum(2))
    datum["strata"][0]["locus"] = ["singular"]
    presentation = {"terms": [{"coeff": 1, "generator": {
        "resolved": {"criticals": [{"point": 0, "datum": datum}]}}}]}
    code, out = run_cli(capsys, "measure", write(tmp_path, "p.json", presentation))
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "parse", "detail": "stratum locus must be a string"}


def test_an_opaque_tag_that_is_not_a_string_exits_two(tmp_path, capsys):
    doc = {"terms": [{"coeff": {"0": 1}, "factors": [{"opq": {"tag": 5, "chi": 1}}]}]}
    code, out = run_cli(capsys, "normalize", write(tmp_path, "c.json", doc))
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "parse", "detail": "opq tag must be a string, got 5"}


def test_convolve(tmp_path, capsys):
    a = write(tmp_path, "a.json", class_to_json(orb(2)))
    code, out = run_cli(capsys, "convolve", a, a)
    assert code == 0
    expected = GM + 2 * orb(2)
    assert json.loads(out) == class_to_json(expected)


def test_convolve_pretty(tmp_path, capsys):
    a = write(tmp_path, "a.json", class_to_json(orb(2)))
    code, out = run_cli(capsys, "convolve", a, a, "--pretty")
    assert code == 0
    assert out.strip() == "(L - 1) + 2*[mu_2]"


def test_star_a1_and_measure(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"support": [
        {"point": "0", "class": class_to_json(ONE)},
        {"point": "1", "class": class_to_json(ONE)}]})
    code, out = run_cli(capsys, "star-a1", f, f)
    assert code == 0
    support = json.loads(out)["support"]
    assert [entry["point"] for entry in support] == ["0", "1", "2"]
    assert support[1]["class"] == class_to_json(2 * ONE)

    pres = write(tmp_path, "p.json", {"terms": [
        {"coeff": 1, "generator": generator_to_json(
            motivic.Resolved([(0, power_datum(2))]))}]})
    code, out = run_cli(capsys, "measure", pres)
    assert code == 0
    assert json.loads(out)["support"][0]["class"] == class_to_json(ONE - orb(2))


def test_assoc_check(tmp_path, capsys):
    a = write(tmp_path, "a.json", class_to_json(orb(2)))
    code, out = run_cli(capsys, "assoc-check", a, a, a)
    assert code == 0
    assert json.loads(out) == {"chi_consistent": True, "symbolic": True}


def test_vanishing_and_realize_pipeline(tmp_path, capsys):
    datum = write(tmp_path, "xy.json", datum_to_json(cross_datum()))
    code, out = run_cli(capsys, "vanishing", datum)
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == class_to_json(MuClass.lefschetz())
    assert payload["phi_regular"] == {"terms": []}

    datum3 = write(tmp_path, "a3.json", datum_to_json(power_datum(3)))
    code, out = run_cli(capsys, "vanishing", datum3)
    assert code == 0
    phi3 = write(tmp_path, "phi3.json", json.loads(out))
    code, out = run_cli(capsys, "realize", "--chi-c", phi3)
    assert code == 0
    assert out.strip() == "-2"


def test_vanishing_pretty(tmp_path, capsys):
    datum = write(tmp_path, "xy.json", datum_to_json(cross_datum()))
    code, out = run_cli(capsys, "vanishing", datum, "--pretty")
    assert code == 0
    assert out == "phi: L\nphi_regular: 0\n"


def test_vanishing_invalid_datum(tmp_path, capsys):
    obj = datum_to_json(cross_datum())
    obj["strata"][2]["locus"] = "regular"
    code, out = run_cli(capsys, "vanishing", write(tmp_path, "bad.json", obj))
    assert code == 1
    assert json.loads(out)["error"] == "validation"


def test_ts_check_cli(tmp_path, capsys):
    g = write(tmp_path, "v.json", generator_to_json(motivic.Resolved([(0, power_datum(2))])))
    d = write(tmp_path, "d.json", generator_to_json(motivic.Resolved([(0, cross_datum())])))
    code, out = run_cli(capsys, "ts-check", g, g, d)
    assert code == 0
    assert json.loads(out) == {"by_point": [{"equal": True, "point": "0"}], "equal": True}


def test_realize_chi_and_epoly(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", class_to_json(MuClass.torus()))
    code, out = run_cli(capsys, "realize", "--chi-c", gm)
    assert code == 0 and out.strip() == "0"
    code, out = run_cli(capsys, "realize", "--e-poly", gm)
    assert code == 0
    assert json.loads(out) == {"epoly": {"(0,0)": -1, "(1,1)": 1}}


def test_realize_undefined_epoly(tmp_path, capsys):
    path = write(tmp_path, "f.json", class_to_json(MuClass.fermat(3, 2)))
    code, out = run_cli(capsys, "realize", "--e-poly", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "realization"
    assert "FER(3,2)" in payload["detail"]


def test_realize_a1_payload(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"support": [
        {"point": "0", "class": class_to_json(ONE - orb(4))}]})
    code, out = run_cli(capsys, "realize", "--chi-c", path)
    assert code == 0 and out.strip() == "-3"
    code, out = run_cli(capsys, "realize", "--e-poly", path)
    assert code == 1


def test_oracle_cli(capsys):
    code, out = run_cli(capsys, "oracle", "--fer", "2", "2", "--q", "13")
    assert code == 0 and out.strip() == "8"


def test_oracle_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("MOTIVIC_ORACLE_BUDGET", "3")
    code, out = run_cli(capsys, "oracle", "--fer", "2", "2", "--q", "13")
    assert code == 1
    assert json.loads(out)["error"] == "budget"
    monkeypatch.setenv("MOTIVIC_ORACLE_BUDGET", "abc")
    code, out = run_cli(capsys, "oracle", "--fer", "2", "2", "--q", "13")
    assert (code, json.loads(out)) == (1, {"error": "validation",
                                           "detail": "bad MOTIVIC_ORACLE_BUDGET value 'abc'"})


def test_out_flag_writes_file(tmp_path, capsys):
    a = write(tmp_path, "a.json", class_to_json(orb(2)))
    target = tmp_path / "result.json"
    code, out = run_cli(capsys, "convolve", a, a, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == class_to_json(GM + 2 * orb(2))


def test_unwritable_out_path_is_a_parse_error(tmp_path, capsys):
    a = write(tmp_path, "a.json", class_to_json(orb(2)))
    target = tmp_path / "missing" / "x.json"
    code, out = run_cli(capsys, "normalize", a, "--out", str(target))
    assert code == 2 and len(out.splitlines()) == 1
    payload = json.loads(out)
    assert payload["error"] == "parse"
    assert payload["detail"].startswith(f"cannot write {target}: ")


def test_oracle_budget_error_for_a_count_too_long_to_print(capsys):
    # 100^5000 has 10001 digits, past what Python writes out as a decimal
    code, out = run_cli(capsys, "oracle", "--fer", "2", "5000", "--q", "101")
    assert code == 1
    assert json.loads(out) == {"error": "budget",
                               "detail": "enumeration of 100^5000 tuples exceeds budget 100000000"}


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    a = write(tmp_path, "a.json", class_to_json(orb(3) + MuClass.fermat(4, 2)))
    first = run_cli(capsys, "convolve", a, a)
    second = run_cli(capsys, "convolve", a, a)
    assert first == second


def test_outputs_are_byte_identical_across_processes(tmp_path):
    a = write(tmp_path, "a.json", class_to_json(orb(3) + MuClass.fermat(4, 2)))
    runs = [subprocess.run([sys.executable, "-m", "motivic", "convolve", a, a],
                           capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1] and runs[0].strip()


def _engine_env() -> dict:
    """This environment with the engine's sources first on PYTHONPATH."""
    src = str(Path(motivic.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a request pays for every module its import loads; these two cost ~6 ms of start-up
    code = "import motivic.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_engine_env()).stdout
    assert out == "[]\n"


_CLASS_LAYERS = ["motivic.classes", "motivic.convolve", "motivic.a1", "motivic.vanishing"]
_LINE_LAYERS = ["motivic.a1", "motivic.vanishing", "fractions"]


@pytest.mark.parametrize("argv, exit_code, absent", [
    (["oracle", "--fer", "2", "2", "--q", "13"], 0, _CLASS_LAYERS),
    (["no-such-command"], 2, _CLASS_LAYERS),
    (["normalize", "class.json"], 0, _LINE_LAYERS),
    (["realize", "--chi-c", "class.json"], 0, _LINE_LAYERS),
])
def test_each_request_loads_only_the_modules_it_runs(tmp_path, argv, exit_code, absent):
    # the package loads its submodules on first use, so a request that needs
    # no class, or no class over the line, compiles none of their modules
    write(tmp_path, "class.json", class_to_json(orb(3) + MuClass.fermat(4, 2)))
    code = ("import json, sys\nfrom motivic.cli import run\ncode = run(sys.argv[1:])\n"
            "sys.stderr.write(json.dumps([code, sorted(sys.modules)]))")
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          cwd=tmp_path, env=_engine_env())
    code, loaded = json.loads(done.stderr)
    assert code == exit_code, done.stdout
    assert len(done.stdout.splitlines()) == 1
    assert [m for m in absent if m in loaded] == []


_EVERY_COMMAND = ["normalize", "convolve", "star-a1", "assoc-check", "vanishing", "measure",
                  "ts-check", "realize", "oracle"]


@pytest.mark.parametrize("argv, built", [
    (["oracle", "--fer", "2", "2", "--q", "13"], ["oracle"]),
    (["realize", "--chi-c"], ["realize"]),
    (["normalize", "class.json"], ["normalize"]),
    (["no-such-command"], _EVERY_COMMAND),  # its error message lists every command
    ([], _EVERY_COMMAND),
])
def test_a_request_naming_a_command_builds_its_subparser_alone(tmp_path, monkeypatch, capsys,
                                                                argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "class.json", class_to_json(orb(3)))
    run_cli(capsys, *argv)
    assert names == built


def test_opaque_atoms_differing_only_in_e_data(tmp_path, capsys):
    same_tag = write(tmp_path, "same_tag.json", {"terms": [
        {"coeff": {"0": 1}, "factors": [{"opq": {"tag": "t", "chi": 2}}]},
        {"coeff": {"0": 1}, "factors": [{"opq": {"tag": "t", "chi": 2,
                                                 "epoly": {"(0,0)": 2}}}]}]})
    code, out = run_cli(capsys, "normalize", same_tag)
    assert code == 0 and len(out.splitlines()) == 1
    # the atom without E-data sorts first
    assert [t["factors"][0]["opq"].get("epoly") for t in json.loads(out)["terms"]] == \
        [None, {"(0,0)": 2}]
    code, out = run_cli(capsys, "convolve", same_tag,
                        write(tmp_path, "orb.json", class_to_json(orb(2))))
    assert code == 0 and len(out.splitlines()) == 1


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    code, out = run_cli(capsys, "convolve", str(path), str(path))
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "parse"


def test_unexpected_engine_failure_is_one_internal_error_line(tmp_path, capsys, monkeypatch):
    def broken(a, b):
        raise RuntimeError("pair table\nis missing")

    monkeypatch.setattr(motivic.convolve, "star", broken)
    a = write(tmp_path, "a.json", class_to_json(orb(2)))
    code, out = run_cli(capsys, "convolve", a, a)
    assert code == 3 and len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "internal", "detail": "RuntimeError: pair table\nis missing"}


def test_quadratic_tower_beyond_the_limit_is_one_error_line_at_once(tmp_path, capsys):
    raw = {"terms": [{"coeff": {"0": 1}, "factors": [{"FER": [2, 2000]}]}]}
    path = write(tmp_path, "tower.json", raw)
    # building the tower first took millions of calls; the request makes ~2 500
    code, out = python_calls(lambda: run_cli(capsys, "normalize", path), limit=10_000)[0]
    assert code == 1 and len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "validation",
                               "detail": "quadratic tower of depth r = 2000 exceeds the limit r <= 400"}


def test_a_point_outside_the_grammar_is_refused_at_once(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"support": [{"point": "1e10000000", "class": {"terms": []}}]})
    # parsed as a Fraction it is 10**10000000, one C-level power no call count sees
    start = time.process_time()
    code, out = run_cli(capsys, "star-a1", f, f)
    assert time.process_time() - start < 1.0
    assert code == 1 and json.loads(out) == {"error": "validation",
                                             "detail": "bad base point '1e10000000'"}


def test_input_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json.load raises a plain ValueError here, and a UnicodeDecodeError on bytes that are not UTF-8
    long_int = tmp_path / "long.json"
    long_int.write_text('{"terms": [{"coeff": {"0": ' + "7" * 5000 + '}}]}', encoding="utf-8")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"terms": [], "note": "\xe9"}')
    for path in (long_int, not_utf8):
        code, out = run_cli(capsys, "normalize", str(path))
        assert code == 2 and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert payload["error"] == "parse"
        assert payload["detail"].startswith(f"cannot read {path}: ")


def test_output_integer_past_the_digit_limit_is_one_validation_line(tmp_path, capsys):
    too_long = ("result is too long to write: Exceeds the limit (4300 digits) for integer "
                "string conversion; use sys.set_int_max_str_digits() to increase the limit")
    # two coprime orbits of 3001 digits fuse into one of 6001 digits
    fused = write(tmp_path, "fused.json", {"terms": [{"coeff": {"0": 1}, "factors": [
        {"orb": 10 ** 3000 + 1}, {"orb": 10 ** 3000 + 3}]}]})
    # chi = (-10^400)^11 has 4401 digits
    chi = write(tmp_path, "chi.json", {"terms": [{"coeff": {"0": 1},
                                                  "factors": [{"fer": [10, 400]}] * 11}]})
    for argv in (["normalize", fused], ["normalize", fused, "--pretty"], ["realize", "--chi-c", chi]):
        code, out = run_cli(capsys, *argv)
        assert (code, out) == (1, json.dumps({"detail": too_long, "error": "validation"},
                                             separators=(",", ":")) + "\n")


@pytest.mark.parametrize("argv, factor", [
    (["realize", "--chi-c", {"fer": [10, 5000]}], "fer(10,5000)"),
    (["realize", "--chi-c", {"fer": [3, 10 ** 9]}], "fer(3,1000000000)"),
    (["convolve", {"FER": [3, 10 ** 7]}, {"orb": 5}], "FER(3,10000000)"),
    (["convolve", {"FER": [3, 10 ** 8]}, {"orb": 5}], "FER(3,100000000)"),
], ids=["realize-r5000", "realize-r1e9", "convolve-r1e7", "convolve-r1e8"])
def test_chi_of_a_fermat_factor_past_the_limit_is_refused_at_once(tmp_path, capsys, argv, factor):
    argv = [write(tmp_path, f"{k}.json", {"terms": [{"coeff": {"0": 1}, "factors": [a]}]})
            if isinstance(a, dict) else a for k, a in enumerate(argv)]
    # n**r is one C-level power no call count sees
    start = time.process_time()
    code, out = run_cli(capsys, *argv)
    assert time.process_time() - start < 1.0
    assert code == 1 and json.loads(out) == {
        "error": "validation", "detail": f"chi_c of {factor} exceeds the limit r <= 400"}


# --- fuzz: every subcommand on recursive JSON and on mutated pinned inputs --------------

INPUTS = Path(__file__).resolve().parent / "cli_outputs" / "inputs"

# each file-taking subcommand with the pinned inputs it reads in tests/test_cli_outputs.py
FUZZ_REQUESTS = [
    (["normalize"], ["raw.json"]),
    (["convolve"], ["orb2.json", "mixed.json"]),
    (["star-a1"], ["line_f.json", "line_g.json"]),
    (["assoc-check"], ["orb2.json", "mixed.json", "trivial.json"]),
    (["vanishing"], ["datum_cross.json"]),
    (["measure"], ["presentation.json"]),
    (["ts-check"], ["gen_v.json", "gen_w.json", "gen_direct.json"]),
    (["realize", "--chi-c"], ["line_g.json"]),
    (["realize", "--chi-c"], ["phi_a3.json"]),
    (["realize", "--e-poly"], ["trivial.json"]),
    (["realize", "--e-poly"], ["phi_a3.json"]),
]
PINNED = {name: json.loads((INPUTS / name).read_text(encoding="utf-8"))
          for _, names in FUZZ_REQUESTS for name in names}


def _strings(doc):
    """Every key and string value in doc."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)
    elif isinstance(doc, str):
        yield doc


def _leaves(doc, path=()):
    """The path to every scalar and every empty list or object in doc."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    children = list(children)
    for key, value in children:
        yield from _leaves(value, path + (key,))
    if not children:
        yield path


_WORDS = sorted({s for doc in PINNED.values() for s in _strings(doc)})
_text = st.sampled_from(_WORDS) | st.text(max_size=4)
_scalar = st.none() | st.booleans() | st.integers(-3, 9) | st.integers() | st.floats() | _text
_json = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=10)


@st.composite
def _mutated(draw, doc):
    """doc with 1-3 leaves set to new JSON, wrapped in a list or an object, or deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_leaves(doc))))
        if not path:
            return draw(_json)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(["set", "wrap", "delete"]))
        if edit == "set":
            parent[path[-1]] = draw(_scalar | _json)
        elif edit == "wrap":
            leaf = parent[path[-1]]
            parent[path[-1]] = [leaf] if draw(st.booleans()) else {draw(_text): leaf}
        else:
            del parent[path[-1]]
    return doc


@st.composite
def _fuzz_requests(draw):
    """argv for one request, and the texts of the files it names."""
    if draw(st.integers(0, len(FUZZ_REQUESTS))) == len(FUZZ_REQUESTS):
        small = st.integers(-2, 7).map(str) | _text
        return ["oracle", "--fer", draw(small), draw(small), "--q", draw(small)], {}
    argv, names = draw(st.sampled_from(FUZZ_REQUESTS))
    docs = [PINNED[name] for name in names]
    k = draw(st.integers(0, len(docs) - 1))
    # one file changed, the others as pinned; one time in four by a new document
    docs[k] = draw(_json if draw(st.integers(0, 3)) == 0 else _mutated(docs[k]))
    files = {f"{i}.json": json.dumps(doc) for i, doc in enumerate(docs)}
    return argv + list(files), files


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(_fuzz_requests())
def test_every_request_ends_in_one_line_and_a_known_exit_code(monkeypatch, request_and_files):
    # the files are served from memory, so an example costs the request alone
    argv, files = request_and_files

    def open_in_memory(path, mode="r", encoding=None):
        if path not in files:
            raise FileNotFoundError(2, "No such file or directory", path)
        return io.StringIO(files[path])

    monkeypatch.setattr(motivic.cli, "open", open_in_memory, raising=False)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        # the largest request drawn can be oracle --fer 2 7 --q 7, ~2 million
        # Python calls; a loop that runs away is stopped
        code = python_calls(lambda: run(argv), limit=10 ** 7)[0]
    out = stdout.getvalue()
    assert code in (0, 1, 2), out
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert code == 0 or set(payload) == {"error", "detail"}
