"""Exception types shared across the engine.

The CLI maps these onto its exit-code contract: ParseError -> exit 2,
everything else here -> exit 1 with a structured error object.  _checked is
the one argument type check of the library entries and record constructors.
"""


class MotivicError(Exception):
    """Base class for engine errors."""

    kind = "error"


class ValidationError(MotivicError):
    """Malformed descriptors or data violating a stated invariant."""

    kind = "validation"


class DatumValidationError(ValidationError):
    """A simple-normal-crossing datum failed validation; carries the report."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class RealizationUndefinedError(MotivicError):
    """A realization was requested for a factor it is not defined on."""

    kind = "realization"

    def __init__(self, factor_description: str):
        self.factor_description = factor_description
        super().__init__(f"realization undefined for factor {factor_description}")


class OracleBudgetError(MotivicError):
    """The point-count enumeration would exceed the configured budget."""

    kind = "budget"


class ParseError(MotivicError):
    """Input could not be decoded into the expected JSON shape."""

    kind = "parse"


def _checked(value, kind: type, field: str):
    """value, if it is a kind; else a ValidationError that names the field."""
    if not isinstance(value, kind):
        raise ValidationError(f"{field} must be a {kind.__name__}, got {value!r}")
    return value


def _iterated(value, field: str):
    """iter(value), if value is iterable; else a ValidationError that names the field."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{field} must be iterable, got {value!r}") from None
