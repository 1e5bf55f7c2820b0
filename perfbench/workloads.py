"""Seeded inputs, operation lists and output checks for the four workloads.

Each workload turns a seed into a *spec*: plain JSON-able data, so the same
seed gives byte-identical inputs (``json.dumps(spec, sort_keys=True)``).  The
engine never sees the seed; it only receives objects built from the spec
through the library, or, for ``cli-batch``, the files written from it.

A workload provides:

* ``spec(seed)``           the inputs, as plain data;
* ``build(m, spec)``       library objects for every operation, where ``m``
                           is the imported ``motivic`` package;
* ``bind(m, built)``       callables for the timed loop, looked up on the
                           package at bind time so a tracer's wrappers are
                           picked up;
* ``canonical(m, op, out)`` the canonical text of one output (digest input);
* ``check(m, op, out)``    the law check for one output, run outside the
                           timed region.

Operations are ``(kind, args)`` pairs; ``bind`` returns ``(fn, args)``.

Inputs left out only to keep a run short (later changes that make them cheap
can add them): ``assoc_check`` on 20-term triples took 1.45 s, the oracle at
q = 243 took 54 s, and ``{"FER": [2, 2000]}`` takes about 15 s.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

# --- shared builders -----------------------------------------------------------

# Factors of the star-fold classes: ORB(2,3,4,6), FER(n,r) with n, r in {2,3,4},
# and fer(n,2) with n in {3,4,5}.
STAR_FACTORS = ([["orb", d] for d in (2, 3, 4, 6)]
                + [["FER", n, r] for n in (2, 3, 4) for r in (2, 3, 4)]
                + [["fer", n, 2] for n in (3, 4, 5)])


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def raw_class(rng: random.Random, n_terms: int, factors=STAR_FACTORS, max_factors: int = 2) -> list:
    """A raw class spec: ``[[[exp, coeff], ...], [factor, ...]]`` per term."""
    return [[_coeff(rng), [rng.choice(factors) for _ in range(rng.randint(0, max_factors))]]
            for _ in range(n_terms)]


def _coeff(rng: random.Random) -> list:
    return [[rng.randint(-1, 2), rng.choice((-3, -2, -1, 1, 2, 3))]
            for _ in range(rng.randint(1, 2))]


def _atom_pool() -> list:
    """Products of at most two star-fold factors that are already normal atoms.

    FER(2,r) is left out (it rewrites into the span of 1 and ORB(2)), and so
    are orbit pairs (they fuse), so distinct products are distinct atoms.
    """
    singles = [f for f in STAR_FACTORS if f[:2] != ["FER", 2]]
    pool = [[]] + [[f] for f in singles]
    for i, f in enumerate(singles):
        for g in singles[i:]:
            if not (f[0] == g[0] == "orb"):
                pool.append([f, g])
    return pool


ATOM_POOL = _atom_pool()


def atom_class(rng: random.Random, n_terms: int) -> list:
    """A raw class of ``n_terms`` terms over ``ceil(n_terms / 3)`` distinct normal atoms.

    Repeating atoms matches how raw random products collapse, while fixing
    the normalized size keeps the cost of an operation close across seeds.
    """
    atoms = rng.sample(ATOM_POOL, -(-n_terms // 3))
    atoms += [rng.choice(atoms) for _ in range(n_terms - len(atoms))]
    return [[_coeff(rng), atom] for atom in atoms]


def build_class(m, spec: list):
    return m.MuClass([(m.LaurentInt([tuple(p) for p in coeff]), tuple(tuple(f) for f in factors))
                      for coeff, factors in spec])


def power_datum(m, n: int):
    """x^n at 0: one component of multiplicity n over a point fiber."""
    one = m.MuClass.one()
    cover = one if n == 1 else m.MuClass.orbit(n)
    return m.SNCDatum([("E1", n)], [m.Stratum({"E1"}, one, cover, "singular")],
                      m.MuClass.zero(), one)


def cross_datum(m):
    """xy at 0: two multiplicity-one components crossing."""
    gm = m.MuClass.torus()
    one = m.MuClass.one()
    return m.SNCDatum([("E1", 1), ("E2", 1)],
                      [m.Stratum({"E1"}, gm, gm, "regular"),
                       m.Stratum({"E2"}, gm, gm, "regular"),
                       m.Stratum({"E1", "E2"}, one, one, "singular")],
                      gm + gm, one)


def build_datum(m, spec):
    return cross_datum(m) if spec == "cross" else power_datum(m, spec)


def build_generator(m, spec, data: dict | None = None):
    """A generator; ``data`` shares one immutable datum per datum spec."""
    kind = spec[0]
    if kind == "smooth":
        return m.SmoothProper()
    if kind == "constant":
        return m.Constant(spec[1], build_class(m, spec[2]))
    data = {} if data is None else data
    for _, d in spec[1]:
        if d not in data:
            data[d] = build_datum(m, d)
    return m.Resolved([(p, data[d]) for p, d in spec[1]])


def point_pool(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct exact rational points, as "p/q" strings."""
    pts: set[Fraction] = set()
    while len(pts) < size:
        pts.add(Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 4, 5))))
    return [str(p) for p in sorted(pts)]


def class_json(m, c) -> str:
    return m.jsonio.dumps(m.class_to_json(c))


# --- star-fold -------------------------------------------------------------------

class StarFold:
    """Point convolution: star on 5-40-term classes, assoc_check, and folds."""

    name = "star-fold"
    # Sizes in raw terms, each with its count per pass.  Each percentile falls
    # inside a group of operations of about the same cost rather than on the
    # edge between two groups: the 15-term stars with the 4-6-term assoc
    # checks (2-5 ms) hold the middle fifth of the 108 operations, so
    # latency_p50_ms falls among them, and 35-40-term stars are over a fifth,
    # so latency_p90_ms falls among those.
    STAR_SIZES = {5: 8, 10: 8, 15: 18, 20: 6, 25: 6, 30: 6, 35: 12, 40: 12}
    ASSOC_SIZES = (2, 3, 4, 5, 6, 7, 8, 8)
    FOLD_BASES = ([[[[0, 1]], [["orb", 2]]]], [[[[0, 1]], [["orb", 3]]]],
                  [[[[0, 1]], [["orb", 4]]]],
                  [[[[0, 1]], [["orb", 2]]], [[[0, 1]], [["orb", 3]]]])
    FOLD_POWERS = (2, 3, 4, 5, 6, 7)

    def spec(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        ops = [{"kind": "star", "a": atom_class(rng, k), "b": atom_class(rng, k)}
               for k, count in self.STAR_SIZES.items() for _ in range(count)]
        ops += [{"kind": "assoc", "a": atom_class(rng, k), "b": atom_class(rng, k),
                 "c": atom_class(rng, k)} for k in self.ASSOC_SIZES]
        ops += [{"kind": "fold", "base": base, "k": k}
                for base in self.FOLD_BASES for k in self.FOLD_POWERS]
        rng.shuffle(ops)
        warmup = [{"kind": "star", "a": atom_class(rng, 5), "b": atom_class(rng, 5)},
                  {"kind": "assoc", "a": atom_class(rng, 2), "b": atom_class(rng, 2),
                   "c": atom_class(rng, 2)},
                  {"kind": "fold", "base": self.FOLD_BASES[0], "k": 2}]
        return {"ops": ops, "warmup": warmup}

    def build(self, m, ops: list) -> list:
        built = []
        for op in ops:
            kind = op["kind"]
            if kind == "star":
                built.append((kind, (build_class(m, op["a"]), build_class(m, op["b"]))))
            elif kind == "assoc":
                built.append((kind, tuple(build_class(m, op[x]) for x in "abc")))
            else:
                built.append((kind, (build_class(m, op["base"]), op["k"])))
        return built

    def bind(self, m, built: list) -> list:
        star = m.star
        fns = {"star": star, "assoc": m.assoc_check, "fold": lambda base, k: _fold(star, base, k)}
        return [(fns[kind], args) for kind, args in built]

    def canonical(self, m, op, out) -> str:
        return m.jsonio.dumps(out) if op[0] == "assoc" else class_json(m, out)

    def check(self, m, op, out) -> bool:
        kind, args = op
        if kind == "star":
            a, b = args
            return m.chi_c(out) == m.chi_c(a) * m.chi_c(b) and m.star(b, a) == out
        if kind == "assoc":
            return out["chi_consistent"] is True and out["symbolic"] in (True, "skipped-opaque")
        base, k = args
        if m.chi_c(out) != m.chi_c(base) ** k:
            return False
        terms = base.terms()
        if out.has_opaque() or len(terms) != 1 or terms[0][0][0][0] != "orb":
            return True
        return out == m.star_power(terms[0][0][0][1], k)


def _fold(star, base, k):
    acc = base
    for _ in range(k - 1):
        acc = star(acc, base)
    return acc


# --- line-measure ------------------------------------------------------------------

# Trivial-action fibers for Constant generators: 1, 2, L, L - 1, fer(3,2), fer(4,2).
CONSTANT_CLASSES = ([[[[0, 1]], []]], [[[[0, 2]], []]], [[[[1, 1]], []]],
                    [[[[1, 1], [0, -1]], []]], [[[[0, 1]], [["fer", 3, 2]]]],
                    [[[[0, 1]], [["fer", 4, 2]]]])
# Fibers of the a1_star line classes: closed-form pairs (P2, P4, P5) and
# opaque ones (P6) both occur.
FIBER_FACTORS = [["orb", 2], ["orb", 3], ["FER", 3, 2], ["fer", 3, 2]]


class LineMeasure:
    """The measure on presentations, line convolution, and Thom-Sebastiani checks."""

    name = "line-measure"
    # Sizes with their counts per pass.  The ts_check cases are well over
    # half of the operations, so latency_p50_ms falls inside that group, and
    # latency_p90_ms falls inside the group of 400-generator measures and
    # 25-point line convolutions, which cost about the same.
    PRESENTATION_SIZES = {50: 4, 100: 4, 200: 4, 400: 12, 800: 2}
    A1_SIZES = {5: 4, 10: 4, 15: 4, 20: 4, 25: 2, 30: 2}
    TS_CASES = [("cross", 2)] * 30 + [("translate", n) for n in (2, 3, 4, 5, 6)] * 6

    def spec(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        ops = [{"kind": "measure", "terms": self._presentation(rng, n)}
               for n, count in self.PRESENTATION_SIZES.items() for _ in range(count)]
        ops += [{"kind": "a1_star", "f": self._line_class(rng, k), "g": self._line_class(rng, k)}
                for k, count in self.A1_SIZES.items() for _ in range(count)]
        ops += [self._ts_case(rng, case, n) for case, n in self.TS_CASES]
        rng.shuffle(ops)
        warmup = [{"kind": "measure", "terms": self._presentation(rng, 10)},
                  {"kind": "a1_star", "f": self._line_class(rng, 3), "g": self._line_class(rng, 3)},
                  self._ts_case(rng, "cross", 2)]
        return {"ops": ops, "warmup": warmup}

    @staticmethod
    def _presentation(rng: random.Random, n: int) -> list:
        # The point pool grows with the presentation, so the support does too.
        pool = point_pool(rng, max(3, round(2 * math.sqrt(n))))
        terms = []
        for _ in range(n):
            coeff = rng.choice((-3, -2, -1, 1, 1, 2, 3))
            roll = rng.random()
            if roll < 0.7:
                pts = rng.sample(pool, rng.randint(1, 3))
                gen = ["resolved", [[p, rng.choice(("cross", 2, 3, 4, 5, 6))] for p in pts]]
            elif roll < 0.9:
                gen = ["constant", rng.choice(pool), rng.choice(CONSTANT_CLASSES)]
            else:
                gen = ["smooth"]
            terms.append([coeff, gen])
        return terms

    @staticmethod
    def _line_class(rng: random.Random, k: int) -> list:
        return [[p, raw_class(rng, rng.randint(1, 3), FIBER_FACTORS, max_factors=1)]
                for p in point_pool(rng, k)]

    @staticmethod
    def _ts_case(rng: random.Random, case: str, n: int) -> dict:
        p, q = point_pool(rng, 2)
        return {"kind": "ts", "case": case, "p": p, "q": q, "n": n}

    def build(self, m, ops: list) -> list:
        built, data = [], {}
        for op in ops:
            kind = op["kind"]
            if kind == "measure":
                built.append((kind, (tuple((c, build_generator(m, g, data))
                                           for c, g in op["terms"]),)))
            elif kind == "a1_star":
                built.append((kind, tuple(m.A1Class([(p, build_class(m, c)) for p, c in op[x]])
                                          for x in "fg")))
            else:
                p, q = Fraction(op["p"]), Fraction(op["q"])
                g_v = m.Resolved([(p, power_datum(m, op["n"]))])
                if op["case"] == "cross":
                    g_w = m.Resolved([(q, power_datum(m, 2))])
                    direct = m.Resolved([(p + q, cross_datum(m))])
                else:
                    g_w = m.Constant(q, m.MuClass.one())
                    direct = m.Resolved([(p + q, power_datum(m, op["n"]))])
                built.append((kind, (g_v, g_w, direct)))
        return built

    def bind(self, m, built: list) -> list:
        fns = {"measure": m.phi_measure, "a1_star": m.a1_star, "ts": m.ts_check}
        return [(fns[kind], args) for kind, args in built]

    def canonical(self, m, op, out) -> str:
        return m.jsonio.dumps(out if op[0] == "ts" else m.a1_to_json(out))

    def check(self, m, op, out) -> bool:
        kind, args = op
        if kind == "measure":
            expected = sum(c * m.chi_of_a1(m.phi_generator(g)) for c, g in args[0])
            return m.chi_of_a1(out) == expected
        if kind == "a1_star":
            f, g = args
            return m.chi_of_a1(out) == m.chi_of_a1(f) * m.chi_of_a1(g)
        return out["equal"] is True


# --- oracle-grid -------------------------------------------------------------------

PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
PRIME_POWERS = (9, 25, 27, 49, 81, 121, 125)
MAX_TUPLES = 120_000


def oracle_grid() -> list[tuple[int, int, int]]:
    """Every (n, r, q) of the grid: at most MAX_TUPLES tuples each, r <= 3 for q = p^k."""
    grid = []
    for q in PRIMES + PRIME_POWERS:
        for n in (2, 3, 4):
            if math.gcd(n, q) != 1:
                continue
            for r in range(1, 5 if q in PRIMES else 4):
                if (q - 1) ** r <= MAX_TUPLES:
                    grid.append((n, r, q))
    return grid


class OracleGrid:
    """count_fermat_points over a fixed grid of prime and prime-power fields."""

    name = "oracle-grid"

    def spec(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        ops = [{"kind": "oracle", "n": n, "r": r, "q": q} for n, r, q in oracle_grid()]
        rng.shuffle(ops)
        warmup = [{"kind": "oracle", "n": 2, "r": 1, "q": 7},
                  {"kind": "oracle", "n": 2, "r": 1, "q": 9}]
        return {"ops": ops, "warmup": warmup}

    def build(self, m, ops: list) -> list:
        return [("oracle", (op["n"], op["r"], op["q"])) for op in ops]

    def bind(self, m, built: list) -> list:
        return [(m.count_fermat_points, args) for _, args in built]

    def canonical(self, m, op, out) -> str:
        return str(out)

    def check(self, m, op, out) -> bool:
        n, r, q = op[1]
        if q in PRIMES and out != reference_oracles().count_fermat_affine(n, r, q, 1):
            return False
        if (n, r) == (2, 2) and out != reference_oracles().circle_minus_axes_count(q):
            return False
        return True


def reference_oracles():
    """The independent oracles of the test suite (``tests/oracles.py``)."""
    if "perfbench_oracles" not in sys.modules:
        import importlib.util
        path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
        spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules["perfbench_oracles"] = module
    return sys.modules["perfbench_oracles"]


# --- cli-batch -------------------------------------------------------------------------

class CliBatch:
    """One ``python -m motivic`` process per request, small and mid-size files.

    Outcomes: ``ok`` (exit 0, stdout equals the library result), ``exit1`` and
    ``exit2`` (a structured error of the named kind), and ``defect``: the two
    confirmed defects (opaque atoms with equal tag and chi, one with E-data;
    deeply nested JSON), which today end in a traceback.  A defect request
    passes once it ends in exit 0, 1 or 2 with one JSON line on stdout.

    Requests run from a directory of files written by ``write_files``; the
    runner binds them to a spawned process or to an in-process replay, and
    ``check`` takes the library's serialized result from ``expected``.
    """

    name = "cli-batch"
    SMALL_ROUNDS = 3
    NEST_DEPTH = 5000

    def spec(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        files: dict[str, object] = {}
        ops: list[dict] = []

        def add(kind, argv, expect="ok", error=None):
            ops.append({"kind": kind, "argv": argv, "expect": expect, "error": error})

        def cls(name, n_terms, factors=STAR_FACTORS):
            files[name] = {"raw": raw_class(rng, n_terms, factors)}
            return name

        for i in range(self.SMALL_ROUNDS):
            add("normalize", ["normalize", cls(f"n{i}.json", rng.randint(3, 8))])
            add("convolve", ["convolve", cls(f"ca{i}.json", rng.randint(2, 5)),
                             cls(f"cb{i}.json", rng.randint(2, 5))])
            for x in "fg":
                files[f"{x}{i}.json"] = {"line": LineMeasure._line_class(rng, rng.randint(2, 4))}
            add("star-a1", ["star-a1", f"f{i}.json", f"g{i}.json"])
            add("assoc-check", ["assoc-check"] + [cls(f"t{i}{x}.json", rng.randint(1, 3))
                                                  for x in "abc"])
            files[f"d{i}.json"] = {"datum": rng.choice(("cross", 2, 3, 4, 5))}
            add("vanishing", ["vanishing", f"d{i}.json"])
            files[f"p{i}.json"] = {"presentation": LineMeasure._presentation(rng, rng.randint(1, 2))}
            add("measure", ["measure", f"p{i}.json"])
            p, q = point_pool(rng, 2)
            files[f"v{i}.json"] = {"generator": ["resolved", [[p, 2]]]}
            files[f"w{i}.json"] = {"generator": ["resolved", [[q, 2]]]}
            files[f"x{i}.json"] = {"generator": ["resolved", [[str(Fraction(p) + Fraction(q)), "cross"]]]}
            add("ts-check", ["ts-check", f"v{i}.json", f"w{i}.json", f"x{i}.json"])
            add("realize-chi", ["realize", "--chi-c", cls(f"r{i}.json", rng.randint(2, 6))])
            trivial = [["fer", n, 2] for n in (3, 4, 5)]
            add("realize-epoly", ["realize", "--e-poly", cls(f"e{i}.json", rng.randint(2, 6), trivial)])
            n, r, q = rng.choice([g for g in oracle_grid() if (g[2] - 1) ** g[1] <= 2000])
            add("oracle", ["oracle", "--fer", str(n), str(r), "--q", str(q)])

        # mid-size inputs: a fold output with long opaque tags, a 200-generator
        # presentation and a quadratic-tower atom with a large output
        files["fold.json"] = {"fold": 8}
        files["big_p.json"] = {"presentation": LineMeasure._presentation(rng, 200)}
        r = rng.choice((140, 150, 160))
        files["tower.json"] = {"raw_json": {"terms": [{"coeff": {"0": 1}, "factors": [{"FER": [2, r]}]}]}}
        files["tower_nf.json"] = {"raw": [[[[0, 1]], [["FER", 2, r]]]]}
        add("normalize", ["normalize", "fold.json"])
        add("convolve", ["convolve", "fold.json", cls("small.json", 3)])
        add("realize-chi", ["realize", "--chi-c", "fold.json"])
        add("measure", ["measure", "big_p.json"])
        add("realize-chi", ["realize", "--chi-c", "big_p_measure.json"])
        files["big_p_measure.json"] = {"measure_of": "big_p.json"}
        add("normalize", ["normalize", "tower.json"])
        add("realize-chi", ["realize", "--chi-c", "tower_nf.json"])

        # requests whose correct outcome is a structured error
        files["bad_orb.json"] = {"raw_json": {"terms": [{"coeff": {"0": 1}, "factors": [{"orb": 0}]}]}}
        add("normalize", ["normalize", "bad_orb.json"], "exit1", error="validation")
        files["orbit.json"] = {"raw_json": {"terms": [{"coeff": {"0": 1}, "factors": [{"orb": 2}]}]}}
        add("realize-epoly", ["realize", "--e-poly", "orbit.json"], "exit1", error="realization")
        add("oracle", ["oracle", "--fer", "2", "9", "--q", "101"], "exit1", error="budget")
        files["broken.json"] = {"text": '{"terms": [{"coeff": '}
        add("normalize", ["normalize", "broken.json"], "exit2", error="parse")
        add("bogus", ["bogus-command"], "exit2", error="parse")

        # the two confirmed defects, as they stand
        files["same_tag.json"] = {"raw_json": {"terms": [
            {"coeff": {"0": 1}, "factors": [{"opq": {"tag": "t", "chi": 2}}]},
            {"coeff": {"0": 1}, "factors": [{"opq": {"tag": "t", "chi": 2, "epoly": {"(0,0)": 2}}}]}]}}
        add("normalize", ["normalize", "same_tag.json"], "defect")
        files["nested.json"] = {"text": "[" * self.NEST_DEPTH + "]" * self.NEST_DEPTH}
        add("convolve", ["convolve", "nested.json", "nested.json"], "defect")

        rng.shuffle(ops)
        warmup = [{"kind": "normalize", "argv": ["normalize", "n0.json"], "expect": "ok",
                   "error": None}]
        return {"ops": ops, "warmup": warmup, "files": files}

    def write_files(self, m, spec: dict, workdir: Path) -> dict[str, int]:
        """Render every input file through the library; returns sizes in bytes."""
        workdir.mkdir(parents=True, exist_ok=True)
        texts: dict[str, str] = {}
        for name, entry in spec["files"].items():
            (kind, value), = entry.items()
            if kind == "raw":
                text = class_json(m, build_class(m, value))
            elif kind == "raw_json":
                text = json.dumps(value, sort_keys=True)
            elif kind == "text":
                text = value
            elif kind == "line":
                text = m.jsonio.dumps(m.a1_to_json(m.A1Class(
                    [(p, build_class(m, c)) for p, c in value])))
            elif kind == "datum":
                text = m.jsonio.dumps(m.datum_to_json(build_datum(m, value)))
            elif kind == "presentation":
                text = m.jsonio.dumps(m.presentation_to_json(
                    tuple((c, build_generator(m, g)) for c, g in value)))
            elif kind == "generator":
                text = m.jsonio.dumps(m.generator_to_json(build_generator(m, value)))
            elif kind == "fold":
                base = m.MuClass.orbit(2) + m.MuClass.orbit(3)
                text = class_json(m, _fold(m.star, base, value))
            else:  # measure_of: a line class output of an earlier input
                pres = spec["files"][value]["presentation"]
                text = m.jsonio.dumps(m.a1_to_json(m.phi_measure(
                    tuple((c, build_generator(m, g)) for c, g in pres))))
            texts[name] = text
        for name, text in texts.items():
            (workdir / name).write_text(text, encoding="utf-8")
        return {name: len(text.encode()) for name, text in texts.items()}

    def build(self, m, ops: list) -> list:
        return [(op["kind"], (op["argv"], op["expect"], op["error"])) for op in ops]

    def canonical(self, m, op, out) -> str:
        return out[1]

    def expected(self, m, op, workdir: Path) -> str | None:
        """Library result, serialized as the CLI must print it, for an ``ok`` request."""
        argv = op[1][0]
        cmd, paths = argv[0], [str(workdir / a) for a in argv[1:] if a.endswith(".json")]
        load = lambda i: json.loads(Path(paths[i]).read_text(encoding="utf-8"))
        j = m.jsonio
        if cmd == "normalize":
            return class_json(m, j.class_from_json(load(0)))
        if cmd == "convolve":
            return class_json(m, m.star(j.class_from_json(load(0)), j.class_from_json(load(1))))
        if cmd == "star-a1":
            return j.dumps(j.a1_to_json(m.a1_star(j.a1_from_json(load(0)), j.a1_from_json(load(1)))))
        if cmd == "assoc-check":
            return j.dumps(m.assoc_check(*(j.class_from_json(load(i)) for i in range(3))))
        if cmd == "vanishing":
            phi, phi_regular = m.vanishing_cycles(j.datum_from_json(load(0)))
            return j.dumps({"phi": j.class_to_json(phi), "phi_regular": j.class_to_json(phi_regular)})
        if cmd == "measure":
            return j.dumps(j.a1_to_json(m.phi_measure(j.presentation_from_json(load(0)))))
        if cmd == "ts-check":
            return j.dumps(m.ts_check(*(j.generator_from_json(load(i)) for i in range(3))))
        if cmd == "realize" and argv[1] == "--chi-c":
            obj = load(0)
            if "support" in obj:
                return str(m.chi_of_a1(j.a1_from_json(obj)))
            return str(m.chi_c(j.class_from_json(obj)))
        if cmd == "realize":
            return j.dumps({"epoly": j._epoly_to_json(m.e_polynomial(j.class_from_json(load(0))))})
        n, r, q = int(argv[2]), int(argv[3]), int(argv[5])
        return str(m.count_fermat_points(n, r, q))

    def check(self, m, op, out, expected: str | None = None) -> bool:
        code, stdout = out
        argv, expect, error = op[1]
        lines = stdout.splitlines()
        if len(lines) != 1 or not stdout.endswith("\n"):
            return False
        try:
            payload = json.loads(lines[0])
        except ValueError:
            return False
        if expect == "ok":
            return code == 0 and lines[0] == expected
        if expect == "defect":
            return code in (0, 1, 2)
        return (code == int(expect[-1]) and isinstance(payload, dict)
                and payload.get("error") == error)


WORKLOADS = {w.name: w for w in (StarFold(), LineMeasure(), CliBatch(), OracleGrid())}
