"""Exception taxonomy shared across the package.

Validation problems (bad parameters, mismatched grids) and numerical
failures (divergence, instability, non-finite geometry) are kept in
separate branches so the CLI can map them to distinct exit codes.
"""


class CornerflowError(Exception):
    """Base class for all package errors."""


class ValidationError(CornerflowError):
    """A precondition on inputs or configuration is violated."""


class ConfigError(ValidationError):
    """Invalid numeric configuration (grid sizes, node counts, caps)."""


class GridMismatch(ValidationError):
    """Two grid functions that must share a grid do not."""


class InvalidTime(ValidationError):
    """A semigroup or reconstruction time t <= 0 was requested."""


class UnsupportedFarField(ValidationError):
    """Operation requires constant far fields (slope-type data only)."""


class NumericalFailure(CornerflowError):
    """Base class for runtime numerical breakdowns."""


class NonFiniteGeometry(NumericalFailure):
    """Curve geometry produced NaN or Inf."""


class PicardFailure(NumericalFailure):
    """A fixed-point iteration failed; history holds its residuals."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


class PicardDivergence(PicardFailure):
    """Fixed-point updates grew for several consecutive iterations."""


class NoConvergence(PicardFailure):
    """Fixed-point iteration hit the iteration cap before tolerance."""


class StaleProfile(NumericalFailure):
    """A reconstruction was requested from a non-converged profile."""


class OracleInstability(NumericalFailure):
    """Time march blew up (sup-norm jump or non-finite values)."""
