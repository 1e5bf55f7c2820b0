"""Symbolic engine for equivariant Grothendieck-ring classes.

Exact normal forms for classes with roots-of-unity actions, the Fermat-loci
convolution products on the point and on the affine line, nearby-fiber and
vanishing-cycle classes from simple-normal-crossing resolution data, the
vanishing-cycles measure on generator presentations, and realizations through
the compactly supported Euler characteristic and the Hodge-Deligne
E-polynomial.

The package loads its submodules on first use (PEP 562): ``import motivic``
runs no engine code, and the first read of a public name, or of a submodule,
imports the module that defines it.  A submodule's public names are bound in
the package as the import system binds the submodule itself, whoever imports
it, so each later read is a plain attribute read of the module's own object.
A CLI request thus loads only the modules its subcommand runs.
"""

import importlib
import sys
import types

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


class _Package(types.ModuleType):
    """The package's type: binding a submodule here binds its public names too.

    The import system binds each submodule on the package as it finishes
    loading, whoever imports it.  The package then holds the module's own
    objects from that moment, so a tracer that later rebinds a name in every
    loaded module, this one included, puts the originals back here as well.
    """

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, types.ModuleType) and value.__name__ == f"{__name__}.{name}":
            for public in _MODULES.get(name, ()):
                super().__setattr__(public, getattr(value, public))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    module = name if name in _MODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    # bound already, unless another thread is between loading the module and binding it
    return globals().setdefault(name, loaded if module == name else getattr(loaded, name))


def __dir__():
    return sorted(set(globals()) | set(_MODULES) | set(__all__))
