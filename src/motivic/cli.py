"""Command-line front end.

Exit codes: 0 success (JSON on stdout), 1 validation/realization/budget
failure (structured {"error": kind, "detail": message} object on stdout),
2 parse errors (unreadable files, malformed JSON, bad argument syntax,
an unwritable --out path),
3 any other failure inside the engine ({"error": "internal", "detail":
"<exception type>: <message>"}), reported instead of a traceback.
Output is canonical: identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import json
import sys
from importlib import import_module

from .canonical import dumps
from .errors import MotivicError, ParseError, ValidationError


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past Python's digit limit
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} is nested too deeply to read") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def _same(value):
    return value


def _phi_json(phis) -> dict:
    from .jsonio import class_to_json
    return {"phi": class_to_json(phis[0]), "phi_regular": class_to_json(phis[1])}


def _phi_pretty(phis) -> str:
    from .jsonio import pretty
    return f"phi: {pretty(phis[0])}\nphi_regular: {pretty(phis[1])}"


# name: (reader, file arguments, computation, JSON form, pretty form or None).
# An engine function is written "module:attribute", and _function reads it from
# its module once argparse has picked the command, so a request loads only the
# modules it runs and calls what the module holds then (rebound by a test or a
# tracer).
_COMMANDS = {
    "normalize": ("jsonio:class_from_json", ("class_file",), _same,
                  "jsonio:class_to_json", "jsonio:pretty"),
    "convolve": ("jsonio:class_from_json", ("a_file", "b_file"), "convolve:star",
                 "jsonio:class_to_json", "jsonio:pretty"),
    "star-a1": ("jsonio:a1_from_json", ("f_file", "g_file"), "a1:a1_star",
                "jsonio:a1_to_json", "jsonio:pretty"),
    "assoc-check": ("jsonio:class_from_json", ("a_file", "b_file", "c_file"),
                    "convolve:assoc_check", _same, None),
    "vanishing": ("jsonio:datum_from_json", ("datum_file",), "vanishing:vanishing_cycles",
                  _phi_json, _phi_pretty),
    "measure": ("jsonio:presentation_from_json", ("presentation_file",),
                "vanishing:phi_measure", "jsonio:a1_to_json", "jsonio:pretty"),
    "ts-check": ("jsonio:generator_from_json", ("v_file", "w_file", "direct_file"),
                 "vanishing:ts_check", _same, None),
}


def _function(entry):
    """A table entry's function: for "module:attribute", read from its module now."""
    if not isinstance(entry, str):
        return entry
    module, _, attr = entry.partition(":")
    return getattr(import_module(f"{__package__}.{module}"), attr)


def _build_parser(command: str | None = None):
    """The parser of every command, or of command alone when one is named.

    A subcommand's help and error messages name no other subcommand, so only
    the top-level help and an unknown or missing command need all of them.
    """
    import argparse  # after the engine modules that run() loads first

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse exits 2 on its own; keep the payload structured
            raise ParseError(message)

    parser = Parser(prog="motivic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, paths, _, _, to_pretty) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name)
            for arg in paths:
                p.add_argument(arg)
            p.add_argument("--out", default=None)
            if to_pretty:
                p.add_argument("--pretty", action="store_true")

    if command in (None, "realize"):
        realize = sub.add_parser("realize")
        mode = realize.add_mutually_exclusive_group(required=True)
        mode.add_argument("--chi-c", action="store_true")
        mode.add_argument("--e-poly", action="store_true")
        realize.add_argument("class_file")
        realize.add_argument("--out", default=None)  # after the modes, as --help has always shown

    if command in (None, "oracle"):
        oracle = sub.add_parser("oracle")
        oracle.add_argument("--fer", nargs=2, type=int, metavar=("N", "R"), required=True)
        oracle.add_argument("--q", type=int, required=True)
        oracle.add_argument("--out", default=None)
    return parser


def _realize(obj, chi: bool):
    """(value, form) of a class, a line class or a `vanishing` output (its phi)."""
    from .jsonio import _epoly_to_json, a1_from_json, class_from_json
    from .realize import chi_c, chi_of_a1, e_polynomial
    if isinstance(obj, dict) and "support" in obj:
        f = a1_from_json(obj)
        if not chi:
            raise ValidationError("--e-poly is undefined for line classes")
        return chi_of_a1(f), str
    c = class_from_json(obj["phi"] if isinstance(obj, dict) and "phi" in obj else obj)
    if chi:
        return chi_c(c), str
    return e_polynomial(c), lambda e: dumps({"epoly": _epoly_to_json(e)})


def run(argv: list[str]) -> int:
    try:
        command = argv[0] if argv and argv[0] in (*_COMMANDS, "realize", "oracle") else None
        if command in _COMMANDS:
            # load the command's engine modules before argparse and the parser
            # exist: compiled on the smaller heap, they raise the request's peak
            # RSS ~0.4 MB less, as when the package loaded the whole engine first
            for entry in _COMMANDS[command]:
                _function(entry)
        args = _build_parser(command).parse_args(argv)
        if args.command == "realize":
            value, form = _realize(_load(args.class_file), args.chi_c)
        elif args.command == "oracle":
            from .oracle import count_fermat_points
            value, form = count_fermat_points(*args.fer, args.q), str
        else:
            read, paths, compute, to_json, to_pretty = map(_function, _COMMANDS[args.command])
            value = compute(*(read(_load(getattr(args, path))) for path in paths))
            form = to_pretty if getattr(args, "pretty", False) else lambda v: dumps(to_json(v))
        try:
            text = form(value)
        except ValueError as exc:  # an int with more digits than Python converts to text
            raise ValidationError(f"result is too long to write: {exc}") from exc
        _emit(text, args.out)
        return 0
    except MotivicError as exc:  # a ParseError exits 2, any other engine error 1
        sys.stdout.write(dumps({"error": exc.kind, "detail": str(exc)}) + "\n")
        return 2 if isinstance(exc, ParseError) else 1
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        sys.stdout.write(dumps({"error": "internal", "detail": detail}) + "\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
