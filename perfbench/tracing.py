"""Per-layer tracing of the engine, from outside it.

The layers are the modules of ``src/motivic``: laurent, classes, convolve, a1,
vanishing, realize, jsonio and cli (``errors`` holds only exception types).
``Tracer.install`` wraps each layer's public entry points at run time:
module-level functions are rebound in every ``motivic.*`` namespace that holds
them (the modules import each other with ``from .x import y``), and methods
are wrapped on their class.  ``uninstall`` puts the originals back, so the
untraced run never sees a wrapper.

Every wrapped call is counted.  A call that crosses into another layer also
records a span ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``op`` the index of the
operation being run.  Calls inside one layer only count, which keeps the
span list to the layer boundaries.  Spans stay in memory until ``write``.
A span's self time is its duration minus the time its children cover; a
layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("laurent", "classes", "convolve", "a1", "vanishing", "realize", "jsonio", "cli")

# Public module-level functions per layer.  Left out are helpers that run once
# per comparison or per element (factor_key, factor_str, as_point, point_str):
# wrapping them would mostly time the wrapper; their cost stays with the caller.
FUNCTIONS = {
    "laurent": (),
    "classes": ("orb", "FER", "fer", "gm", "opq", "atom_mul", "normalize", "add", "mul",
                "forget_action"),
    "convolve": ("tensor", "psi_pair", "star", "star_power", "assoc_check"),
    "a1": ("a1_unit", "a1_star", "epsilon_push"),
    "vanishing": ("validate_datum", "nearby_fiber", "vanishing_cycles", "phi_generator",
                  "phi_measure", "ts_check"),
    "realize": ("factor_chi", "chi_c", "chi_of_a1", "e_polynomial", "count_fermat_points",
                "point_count_oracle"),
    "jsonio": ("dumps", "class_to_json", "class_from_json", "a1_to_json", "a1_from_json",
               "datum_to_json", "datum_from_json", "generator_to_json", "generator_from_json",
               "presentation_to_json", "presentation_from_json", "pretty"),
    "cli": ("run",),
}

# Public methods per class, accessors (terms, items, support, __eq__, ...) left out.
METHODS = {
    "laurent": {"LaurentInt": ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                               "__neg__", "__mul__", "__rmul__", "__pow__",
                               "sum_of_coefficients", "evaluate")},
    "classes": {"MuClass": ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                            "forget_action", "has_opaque", "is_trivial_action")},
    "convolve": {"BiClass": ("__init__",)},
    "a1": {"A1Class": ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                       "pushforward", "fiber")},
    "vanishing": {"Stratum": ("__init__",), "SNCDatum": ("__init__",),
                  "Resolved": ("__init__",), "Constant": ("__init__",)},
}

# Calls that get a span even inside their own layer, because a metric times them.
NESTED_SPANS = {"vanishing.validate_datum"}


def self_times(spans: list[tuple]) -> list[int]:
    """Self time of every span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[tuple[str, int]] = [("", -1)]
        self._undo: list[tuple[object, str, object]] = []
        self._pairs: set = set()
        self._hooks = {
            "classes.MuClass.__init__": self._count_terms_self,
            "classes.MuClass.__add__": self._count_terms_out,
            "convolve.psi_pair": self._count_pairs,
            "a1.a1_star": self._count_fiber_pairs,
            "a1.A1Class.__init__": self._count_support,
            "realize.count_fermat_points": self._count_tuples,
        }

    # --- counters at the boundaries -----------------------------------------------------

    def _count_terms_self(self, args, out):
        self.counts["classes.sorted_terms"] += len(args[0].terms())

    def _count_terms_out(self, args, out):
        if out is not NotImplemented:
            self.counts["classes.sorted_terms"] += len(out.terms())

    def _count_pairs(self, args, out):
        keys = [key for key, _ in args[0].terms()]
        self.counts["convolve.pairs"] += len(keys)
        self._pairs.update(keys)
        terms = out.terms()
        self.counts["convolve.output_terms"] += len(terms)
        self.counts["convolve.opaque_terms"] += sum(
            1 for atom, _ in terms if any(f[0] == "opq" for f in atom))

    def _count_fiber_pairs(self, args, out):
        self.counts["a1.fiber_pairs"] += len(args[0].support()) * len(args[1].support())

    def _count_support(self, args, out):
        self.counts["a1.support_points"] += len(args[0].support())

    def _count_tuples(self, args, out):
        n, r, q = args[:3]
        self.counts["realize.oracle_tuples"] += (q - 1) ** r

    # --- wrapping -------------------------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        key = f"{layer}.{qualname}"
        hook = self._hooks.get(key)
        nested = key in NESTED_SPANS
        stack, spans, counts, clock = self._stack, self.spans, self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack[-1][0] == layer and not nested:
                out = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                stack.append((layer, idx))
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (key, start, end, stack[-1][1], self.op_id)
            if hook is not None:
                hook(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{self.package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if mod is not None and (name == self.package.__name__
                                              or name.startswith(self.package.__name__ + "."))]
        for layer, mod in modules.items():
            for fname in FUNCTIONS[layer]:
                orig = getattr(mod, fname)
                wrapper = self._wrap(layer, fname, orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._undo.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)
            for cname, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cname)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(layer, f"{cname}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # --- results --------------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        selfs = self_times(self.spans)
        layer_self: Counter = Counter()
        inclusive: Counter = Counter()
        for (name, start, end, _, _), own in zip(self.spans, selfs):
            layer_self[name.split(".", 1)[0]] += own
            inclusive[name] += end - start
        c = self.counts

        def secs(*names):
            return sum(inclusive[n] for n in names) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        jsonio_names = [n for n in inclusive if n.startswith("jsonio.")]
        pairs = c["convolve.pairs"]
        oracle_s = secs("realize.count_fermat_points", "realize.point_count_oracle")
        return {
            "laurent.ops": (c["laurent.LaurentInt.__init__"], "count"),
            "laurent.self_s": (layer_self["laurent"] / 1e9, "s"),
            "classes.construct_calls": (c["classes.MuClass.__init__"], "count"),
            "classes.add_calls": (c["classes.MuClass.__add__"], "count"),
            "classes.sorted_terms": (c["classes.sorted_terms"], "count"),
            "classes.self_s": (layer_self["classes"] / 1e9, "s"),
            "convolve.star_calls": (c["convolve.star"], "count"),
            "convolve.pairs": (pairs, "count"),
            "convolve.pairs_distinct_ratio": (ratio(len(self._pairs), pairs), "ratio"),
            "convolve.opaque_share": (ratio(c["convolve.opaque_terms"], c["convolve.output_terms"]),
                                      "ratio"),
            "convolve.self_s": (layer_self["convolve"] / 1e9, "s"),
            "a1.star_calls": (c["a1.a1_star"], "count"),
            "a1.fiber_pairs": (c["a1.fiber_pairs"], "count"),
            "a1.add_calls": (c["a1.A1Class.__add__"], "count"),
            "a1.support_points": (c["a1.support_points"], "count"),
            "a1.self_s": (layer_self["a1"] / 1e9, "s"),
            "vanishing.generators": (c["vanishing.phi_generator"], "count"),
            "vanishing.validate_calls": (c["vanishing.validate_datum"], "count"),
            "vanishing.validate_s": (secs("vanishing.validate_datum"), "s"),
            "vanishing.self_s": (layer_self["vanishing"] / 1e9, "s"),
            "realize.chi_calls": (c["realize.chi_c"], "count"),
            "realize.chi_s": (secs("realize.chi_c", "realize.chi_of_a1"), "s"),
            "realize.epoly_s": (secs("realize.e_polynomial"), "s"),
            "realize.oracle_tuples": (c["realize.oracle_tuples"], "count"),
            "realize.oracle_tuples_per_s": (ratio(c["realize.oracle_tuples"], oracle_s), "1/s"),
            "realize.oracle_s": (oracle_s, "s"),
            "jsonio.parse_s": (secs(*[n for n in jsonio_names if n.endswith("_from_json")]), "s"),
            "jsonio.serialize_s": (secs(*[n for n in jsonio_names
                                          if not n.endswith("_from_json")]), "s"),
            "jsonio.bytes_in": (c["jsonio.bytes_in"], "B"),
            "jsonio.bytes_out": (c["jsonio.bytes_out"], "B"),
            "cli.run_self_s": (layer_self["cli"] / 1e9, "s"),
        }

    def write(self, path: Path) -> Path:
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
        return path


def process_costs(env: dict, repeats: int = 5) -> dict[str, tuple[float, str]]:
    """Wall time of a bare interpreter, and what importing the engine adds to it."""
    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0

    bare, imported = [], []
    for _ in range(repeats):
        bare.append(wall("pass"))
        imported.append(wall("import motivic"))
    b, i = statistics.median(bare), statistics.median(imported)
    return {"cli.interpreter_ms": (b * 1e3, "ms"), "cli.import_ms": ((i - b) * 1e3, "ms")}
