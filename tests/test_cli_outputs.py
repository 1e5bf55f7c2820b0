"""Each CLI request prints exactly the output recorded in tests/cli_outputs.

Every request runs in-process from tests/cli_outputs/inputs, so file names in
error details are the relative names below.  A recording is "exit <code>"
on its first line, then the request's stdout byte for byte.  The requests
cover every subcommand with and without --pretty, realize on each payload it
accepts, the oracle, the blow-up datum of x^3 + y^3 (vanishing and ts-check),
and each argument error argparse reports; the detail
texts of JSON shape errors are tested in test_jsonio.py instead.  A change
that means to alter an output records the files anew with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

from motivic.cli import run

CASES = Path(__file__).resolve().parent / "cli_outputs"
INPUTS = CASES / "inputs"

REQUESTS = {
    "normalize": "normalize raw.json",
    "normalize-pretty": "normalize raw.json --pretty",
    "convolve": "convolve orb2.json mixed.json",
    "convolve-pretty": "convolve orb2.json mixed.json --pretty",
    "star-a1": "star-a1 line_f.json line_g.json",
    "star-a1-pretty": "star-a1 line_f.json line_g.json --pretty",
    "assoc-check": "assoc-check orb2.json mixed.json trivial.json",
    "vanishing": "vanishing datum_cross.json",
    "vanishing-pretty": "vanishing datum_a3.json --pretty",
    "measure": "measure presentation.json",
    "measure-pretty": "measure presentation.json --pretty",
    "ts-check": "ts-check gen_v.json gen_v.json gen_direct.json",
    "ts-check-unequal": "ts-check gen_v.json gen_w.json gen_direct.json",
    "vanishing-blowup": "vanishing datum_blowup3.json",
    "ts-check-blowup": "ts-check gen_x3.json gen_x3.json gen_blowup3.json",
    "realize-chi-class": "realize --chi-c mixed.json",
    "realize-epoly-class": "realize --e-poly trivial.json",
    "realize-epoly-undefined": "realize --e-poly mixed.json",
    "realize-chi-line": "realize --chi-c line_g.json",
    "realize-epoly-line": "realize --e-poly line_g.json",
    "realize-chi-vanishing": "realize --chi-c phi_a3.json",
    "realize-epoly-vanishing": "realize --e-poly phi_a3.json",
    "oracle": "oracle --fer 2 3 --q 11",
    "validation-error": "normalize bad_orb.json",
    "invalid-json": "normalize garbage.json",
    "missing-file": "convolve orb2.json missing.json",
    "no-command": "",
    "unknown-command": "bogus raw.json",
    "missing-file-argument": "convolve orb2.json",
    "extra-file-argument": "normalize raw.json raw.json",
    "pretty-on-assoc-check": "assoc-check orb2.json orb2.json orb2.json --pretty",
    "pretty-on-ts-check": "ts-check gen_v.json gen_v.json gen_v.json --pretty",
    "pretty-on-realize": "realize --chi-c raw.json --pretty",
    "realize-without-mode": "realize raw.json",
    "realize-without-file": "realize --chi-c",
    "realize-with-both-modes": "realize --chi-c --e-poly raw.json",
    "oracle-without-q": "oracle --fer 2 2",
    "oracle-bad-integer": "oracle --fer 2 x --q 7",
    "help": "--help",
    "normalize-help": "normalize --help",
    "realize-help": "realize --help",
    "oracle-help": "oracle --help",
}


def request_output(argv: list[str]) -> bytes:
    """'exit <code>' and the stdout of one request, run from the inputs directory."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(INPUTS)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help text to the terminal width
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            try:
                code = run(argv)
            except SystemExit as exc:  # --help prints, then exits
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return f"exit {code}\n{stdout.getvalue()}".encode()


def test_every_request_has_a_recorded_output():
    assert sorted(REQUESTS) == sorted(p.stem for p in CASES.glob("*.txt"))


@pytest.mark.parametrize("name", REQUESTS)
def test_request_output_is_unchanged(name):
    expected = (CASES / f"{name}.txt").read_bytes()
    assert request_output(REQUESTS[name].split()) == expected


if __name__ == "__main__":
    for name, request in REQUESTS.items():
        (CASES / f"{name}.txt").write_bytes(request_output(request.split()))
