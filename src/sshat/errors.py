"""Exception types shared across the package.

Validation problems (bad parameters, degenerate rate configurations) are
``ValueError`` subclasses; failures of a numerical procedure at runtime
(overflow, lost brackets) derive from ``NumericalFailure``.  The CLI maps
the two families to distinct exit codes.
"""


class DegenerateRateError(ValueError):
    """The closed form of the expansion (``EllExpansion.alpha`` and ``.beta``)
    divides by ``mu_hat - k m``, and ``mu_hat`` lies within
    ``1e-8 max(|mu_hat|, m)`` of such a rate ``k m``, 0 included.
    """


class NumericalFailure(RuntimeError):
    """A numerical computation produced a non-finite or unusable result."""


class BracketingError(NumericalFailure):
    """No sign change could be found for a root after widening the bracket."""
