"""Command-line front end.

Exit codes: 0 success (JSON on stdout), 1 validation/realization/budget
failure (structured {"error": kind, "detail": message} object on stdout),
2 parse errors (unreadable files, malformed JSON, bad argument syntax).
Output is canonical: identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .a1 import a1_star
from .convolve import assoc_check, star
from .errors import MotivicError, ParseError, ValidationError
from .realize import chi_c, chi_of_a1, count_fermat_points, e_polynomial
from .vanishing import phi_measure, ts_check, vanishing_cycles


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 on its own; keep the payload structured
        raise ParseError(message)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} is nested too deeply to read") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="motivic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, *paths, pretty=False):
        p = sub.add_parser(name)
        for arg in paths:
            p.add_argument(arg)
        p.add_argument("--out", default=None)
        if pretty:
            p.add_argument("--pretty", action="store_true")
        return p

    cmd("normalize", "class_file", pretty=True)
    cmd("convolve", "a_file", "b_file", pretty=True)
    cmd("star-a1", "f_file", "g_file", pretty=True)
    cmd("assoc-check", "a_file", "b_file", "c_file")
    cmd("vanishing", "datum_file", pretty=True)
    cmd("measure", "presentation_file", pretty=True)
    cmd("ts-check", "v_file", "w_file", "direct_file")

    realize = sub.add_parser("realize")
    mode = realize.add_mutually_exclusive_group(required=True)
    mode.add_argument("--chi-c", action="store_true")
    mode.add_argument("--e-poly", action="store_true")
    realize.add_argument("class_file")
    realize.add_argument("--out", default=None)

    oracle = sub.add_parser("oracle")
    oracle.add_argument("--fer", nargs=2, type=int, metavar=("N", "R"), required=True)
    oracle.add_argument("--q", type=int, required=True)
    oracle.add_argument("--out", default=None)
    return parser


def _realize_payload(obj):
    """Accept a class, a line class, or a `vanishing` output (uses its phi)."""
    if isinstance(obj, dict) and "support" in obj:
        return jsonio.a1_from_json(obj)
    if isinstance(obj, dict) and "phi" in obj:
        return jsonio.class_from_json(obj["phi"])
    return jsonio.class_from_json(obj)


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        out = getattr(args, "out", None)
        pretty_flag = getattr(args, "pretty", False)

        if args.command == "normalize":
            c = jsonio.class_from_json(_load(args.class_file))
            _emit(jsonio.pretty(c) if pretty_flag else jsonio.dumps(jsonio.class_to_json(c)), out)
        elif args.command == "convolve":
            c = star(jsonio.class_from_json(_load(args.a_file)),
                     jsonio.class_from_json(_load(args.b_file)))
            _emit(jsonio.pretty(c) if pretty_flag else jsonio.dumps(jsonio.class_to_json(c)), out)
        elif args.command == "star-a1":
            f = a1_star(jsonio.a1_from_json(_load(args.f_file)),
                        jsonio.a1_from_json(_load(args.g_file)))
            _emit(jsonio.pretty(f) if pretty_flag else jsonio.dumps(jsonio.a1_to_json(f)), out)
        elif args.command == "assoc-check":
            report = assoc_check(jsonio.class_from_json(_load(args.a_file)),
                                 jsonio.class_from_json(_load(args.b_file)),
                                 jsonio.class_from_json(_load(args.c_file)))
            _emit(jsonio.dumps(report), out)
        elif args.command == "vanishing":
            phi, phi_regular = vanishing_cycles(jsonio.datum_from_json(_load(args.datum_file)))
            if pretty_flag:
                _emit(f"phi: {jsonio.pretty(phi)}\nphi_regular: {jsonio.pretty(phi_regular)}", out)
            else:
                _emit(jsonio.dumps({"phi": jsonio.class_to_json(phi),
                                    "phi_regular": jsonio.class_to_json(phi_regular)}), out)
        elif args.command == "measure":
            f = phi_measure(jsonio.presentation_from_json(_load(args.presentation_file)))
            _emit(jsonio.pretty(f) if pretty_flag else jsonio.dumps(jsonio.a1_to_json(f)), out)
        elif args.command == "ts-check":
            report = ts_check(jsonio.generator_from_json(_load(args.v_file)),
                              jsonio.generator_from_json(_load(args.w_file)),
                              jsonio.generator_from_json(_load(args.direct_file)))
            _emit(jsonio.dumps(report), out)
        elif args.command == "realize":
            payload = _realize_payload(_load(args.class_file))
            if args.chi_c:
                value = chi_of_a1(payload) if hasattr(payload, "pushforward") else chi_c(payload)
                _emit(str(value), out)
            else:
                if hasattr(payload, "pushforward"):
                    raise ValidationError("--e-poly is undefined for line classes")
                epoly = e_polynomial(payload)
                _emit(jsonio.dumps({"epoly": jsonio._epoly_to_json(epoly)}), out)
        elif args.command == "oracle":
            n, r = args.fer
            _emit(str(count_fermat_points(n, r, args.q)), out)
        return 0
    except ParseError as exc:
        sys.stdout.write(jsonio.dumps({"error": exc.kind, "detail": str(exc)}) + "\n")
        return 2
    except MotivicError as exc:
        sys.stdout.write(jsonio.dumps({"error": exc.kind, "detail": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
