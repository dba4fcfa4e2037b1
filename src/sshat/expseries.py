"""Finite sums of ``coeff * t**power * exp(-rate * t)``: the type of every
expansion coefficient, which :func:`sshat.perturbation.build_expansion` writes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailure

__all__ = ["ExpPolyTerm", "ExpPolySeries"]


@dataclass(frozen=True)
class ExpPolyTerm:
    """One term ``coeff * t**power * exp(-rate * t)``."""

    coeff: float
    power: int
    rate: float

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ValueError(f"term coefficient must be finite, got {self.coeff!r}")
        if not math.isfinite(self.rate):
            raise ValueError(f"term rate must be finite, got {self.rate!r}")
        if not isinstance(self.power, int) or self.power < 0:
            raise ValueError(f"term power must be a non-negative integer, got {self.power!r}")


@dataclass(frozen=True)
class ExpPolySeries:
    """An immutable sum of terms, kept in the order given."""

    terms: tuple[ExpPolyTerm, ...]

    def evaluate(self, t: float) -> float:
        """Sum of ``coeff * t**power * exp(-rate * t)`` over all terms.

        Uses exact compensated summation so that structurally-cancelling
        series (an integral near zero, a coefficient with c_k(0) = 0) come
        out at the rounding floor.  Raises NumericalFailure on overflow,
        which can happen for strongly negative ``rate * t``.
        """
        if not math.isfinite(t):
            raise ValueError(f"evaluation point must be finite, got {t!r}")
        try:
            return math.fsum(
                term.coeff * t**term.power * math.exp(-term.rate * t) for term in self.terms
            )
        except OverflowError as exc:
            raise NumericalFailure(f"series evaluation overflowed at t={t!r}") from exc
