"""Exception types shared across the package.

Validation problems (bad parameters, degenerate rate configurations) are
``ValueError`` subclasses; failures of a numerical procedure at runtime
(overflow, lost brackets) derive from ``NumericalFailure``.  The CLI maps
the two families to distinct exit codes.
"""


class DegenerateRateError(ValueError):
    """A rate or parameter combination lands inside a forbidden tolerance band.

    Raised when an exponential rate is too close to zero to integrate, or when
    the risk-adjusted spread equilibrium collides with a multiple of the
    mean-reversion speed (which would blow up expansion denominators).
    """


class NumericalFailure(RuntimeError):
    """A numerical computation produced a non-finite or unusable result."""


class BracketingError(NumericalFailure):
    """No sign change could be found for a root after widening the bracket."""
