"""Exception types shared across the package.

Validation problems (bad parameters, degenerate rate configurations) are
``ValueError`` subclasses; failures of a numerical procedure at runtime
(overflow, lost brackets) derive from ``NumericalFailure``.  The CLI maps
the two families to distinct exit codes.
"""


class DegenerateRateError(ValueError):
    """The risk-adjusted spread equilibrium lies inside the genericity band
    around zero or around a multiple of the mean-reversion speed, where
    expansion denominators would blow up.
    """


class NumericalFailure(RuntimeError):
    """A numerical computation produced a non-finite or unusable result."""


class BracketingError(NumericalFailure):
    """No sign change could be found for a root after widening the bracket."""
