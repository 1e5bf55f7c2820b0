"""Symbolic engine for equivariant Grothendieck-ring classes.

Exact normal forms for classes with roots-of-unity actions, the Fermat-loci
convolution products on the point and on the affine line, nearby-fiber and
vanishing-cycle classes from simple-normal-crossing resolution data, the
vanishing-cycles measure on generator presentations, and realizations through
the compactly supported Euler characteristic and the Hodge-Deligne
E-polynomial.

The package loads its submodules on first use (PEP 562): ``import motivic``
runs no engine code, and the first read of a public name, or of a submodule,
imports the module that defines it.  That first read is the one place a name
is bound in the package, and only if the value is its home module's own
object, so each later read is a plain attribute read of that object.  A CLI
request thus loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# every submodule, with the public names it defines
_MODULES = {
    "errors": ("MotivicError", "ValidationError", "DatumValidationError",
               "RealizationUndefinedError", "OracleBudgetError", "ParseError"),
    "laurent": ("LaurentInt", "EPoly"),
    "classes": ("MuClass", "normalize", "add", "mul", "forget_action"),
    "oracle": ("count_fermat_points",),
    "realize": ("chi_c", "chi_of_a1", "e_polynomial", "point_count_oracle"),
    "convolve": ("BiClass", "tensor", "psi_pair", "star", "star_power", "assoc_check"),
    "a1": ("A1Class", "a1_unit", "a1_star", "epsilon_push"),
    "vanishing": ("Stratum", "SNCDatum", "Resolved", "Constant", "SmoothProper",
                  "validate_datum", "nearby_fiber", "vanishing_cycles",
                  "phi_generator", "phi_measure", "ts_check"),
    "canonical": (),
    "jsonio": ("class_to_json", "class_from_json", "a1_to_json", "a1_from_json",
               "datum_to_json", "datum_from_json", "generator_to_json",
               "generator_from_json", "presentation_to_json", "presentation_from_json",
               "pretty"),
    "cli": (),
}

_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = name if name in _MODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    if module == name:
        return loaded
    value = getattr(loaded, name)
    # kept only if it is the home module's own object, as every public name is
    # (tests/test_package.py): so each real name is read through here once,
    # and a tracer's wrapper or a test's stand-in, which comes from another
    # module, is returned but never outlives its uninstall or monkeypatch
    if getattr(value, "__module__", None) == loaded.__name__:
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULES) | set(__all__))
