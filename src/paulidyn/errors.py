"""Exception hierarchy shared by all paulidyn modules."""


class PaulidynError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PaulidynError, ValueError):
    """Malformed input: non-finite entries, wrong vector length, bad flag value."""


class DimensionError(InvalidInputError):
    """Matrix/vector dimensions are inconsistent or below the supported minimum."""


class UnsupportedDimensionError(DimensionError):
    """The requested dimension is outside the implemented construction (non-prime d)."""


class NonHermitianError(InvalidInputError):
    """An operation requiring a Hermitian operator received one that is not."""


class ParseError(PaulidynError, ValueError):
    """Rate-expression syntax error.  Carries the 0-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(PaulidynError, ArithmeticError):
    """Domain violation while evaluating a rate expression (ln of nonpositive, overflow, ...)."""


class QuadratureError(PaulidynError, ArithmeticError):
    """Adaptive quadrature failed to converge; message carries the offending interval."""


class GridResolutionError(PaulidynError):
    """The time grid does not resolve the rates: between two grid times the evolution does
    what the rates at the grid times rule out.  More grid steps resolve it."""


class InternalConsistencyError(PaulidynError):
    """Two results that must agree by construction disagree.  Always a bug."""
