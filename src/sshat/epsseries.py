"""The order-by-order solve for the effective spread constant.

At a fixed maturity the defining equation for ``s_hat``, divided through by
``s_hat^2``, reads ``F(s_hat) = tau*lbar`` with the deflated left side

    F(s) = tau * integral_0^1 (l0 + sigma2 tau (1-u)) exp(-s tau u) du
         = l0 tau phi1(s tau) - sigma2 tau^2 phi2(s tau).

F is one fixed scalar function; eps enters only through the right-hand side
``sum_k L_k(tau) eps^k``.  So ``s_hat(eps) = k_0 + delta(eps)`` is a series
reversion (Brent & Kung 1978, JACM 25): with the Taylor coefficients f_j of F
at ``k_0 = mu_hat``,

    sum_j f_j delta^j = sum_k L_k eps^k.

The zeroth order holds by the closed form of L_0, and order n >= 1 is linear
in k_n with the slope f_1:

    k_n = (L_n - [sum_{j>=2} f_j delta^j]_n) / f_1.

The f_j are moments of a positive weight,

    f_j = tau (-tau)^j / j! * integral_0^1 u^j (l0 + sigma2 tau (1-u)) exp(-k_0 tau u) du,

summed from series of positive terms, so ``f_1 < 0`` for every admissible
parameter set and no order amplifies the rounding error of the orders below.
The first-order closed form ``k_1 = L_1 / f_1`` is kept as an independent
cross-check, written as in the cleared equation: ``k_1 * bracket = L_1 k_0^2``
with ``bracket = k_0^2 f_1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .params import ModelParams
from .perturbation import EllExpansion, tau_lbar_terms

__all__ = [
    "ShatExpansion",
    "solve_shat_series",
    "rhs1_printed",
]


def _moments(x: float, n: int) -> np.ndarray:
    """I_j(x) = integral_0^1 u^j exp(-x u) du for j = 0..n.

    Every series term is positive: for x <= 0 the exponential's Maclaurin
    series gives sum_i (-x)^i / (i! (i+j+1)); for x > 0 the incomplete-gamma
    series gives exp(-x) j! sum_i x^i / (i+j+1)!.  Terms past i = 3|x| + 40
    are below 1e-25 of the sum.  Overflow (|x| beyond about 700) leaves a
    non-finite entry.
    """
    i = np.arange(int(3 * abs(x)) + 40)
    j = np.arange(n + 1)
    if x <= 0:
        steps = -x / np.maximum(i, 1)
        steps[0] = 1.0
        return np.cumprod(steps) @ (1.0 / np.add.outer(i, j + 1))
    # Term i over term i-1 is x / (i+j+1); term 0 is 1 / (j+1).
    steps = x / np.add.outer(i, j + 1.0)
    steps[0] = 1.0 / (j + 1)
    return math.exp(-x) * np.cumprod(steps, axis=0).sum(axis=0)


def _taylor_coefficients(k0: float, tau: float, l0: float, sigma2: float, n: int) -> np.ndarray:
    """f_0..f_n, the Taylor coefficients of F at k0.

    The weight l0 + sigma2 tau (1-u) enters as (l0 + sigma2 tau) I_j - sigma2 tau I_(j+1);
    since I_(j+1) < I_j, that subtraction loses at most a factor
    1 + 2 sigma2 tau / l0 of relative precision.
    """
    steps = np.full(n + 1, -tau) / np.maximum(np.arange(n + 1), 1)
    steps[0] = tau
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _moments(k0 * tau, n + 1)
        weighted = (l0 + sigma2 * tau) * moments[:-1] - sigma2 * tau * moments[1:]
        f = np.cumprod(steps) * weighted
    if not np.all(np.isfinite(f)):
        raise NumericalFailure(f"Taylor coefficients of F overflowed at k0*tau={k0 * tau!r}")
    return f


def _compose(f: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Coefficients of sum_j f_j delta^j, truncated to len(delta), by Horner.

    ``delta`` has no constant term, so f_j for j >= len(delta) cannot
    contribute and is skipped.
    """
    n = len(delta)
    out = np.zeros(n)
    for fj in f[n - 1 :: -1]:
        out = np.convolve(out, delta)[:n]
        out[0] += fj
    return out


@dataclass(frozen=True)
class ShatExpansion:
    """Solved coefficients k_0..k_N of the effective spread constant at one maturity.

    ``bracket`` is ``k_0^2 F'(k_0)``, the slope that k_1 multiplies in the
    cleared equation.  ``residuals`` holds, per order n, the absolute
    difference between coefficient n of ``F(sum_n k_n eps^n)`` and L_n.
    """

    tau: float
    k: tuple[float, ...]
    bracket: float
    residuals: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.k) - 1

    def value(self, eps, order: int | None = None):
        """Partial sum k_0 + k_1 eps + ... up to ``order`` (default: all).

        ``eps`` is a float or an ndarray of them; an ndarray gives an ndarray
        of its shape.  The sum runs in increasing powers, so each element has
        the bits of the float call at that element.
        """
        upto = self.order if order is None else order
        if not 0 <= upto <= self.order:
            raise ValueError(f"order must be in [0, {self.order}], got {order}")
        total = 0.0
        power = np.ones_like(eps, dtype=float) if isinstance(eps, np.ndarray) else 1.0
        for n in range(upto + 1):
            total += self.k[n] * power
            power *= eps
        return total


def solve_shat_series(
    expansion: EllExpansion,
    tau: float,
    l0: float,
    params: ModelParams,
    order: int,
) -> ShatExpansion:
    """Solve F(s_hat(eps)) = sum_k L_k(tau) eps^k order by order up to ``order``.

    k_0 equals mu_hat; each k_n for n >= 1 is read off its own order with
    the slope f_1 = F'(mu_hat), which is strictly negative for l0 > 0.
    Raises NumericalFailure when the Taylor coefficients of F overflow.
    """
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
    if not 0 <= order <= expansion.order:
        raise ValueError(f"order must be in [0, {expansion.order}], got {order}")
    k0 = params.mu_hat
    f = _taylor_coefficients(k0, tau, l0, params.sigma2, max(order, 1))
    L = np.array(tau_lbar_terms(expansion, tau)[: order + 1])
    delta = np.zeros(order + 1)
    for n in range(1, order + 1):
        delta[n] = (L[n] - _compose(f, delta[: n + 1])[n]) / f[1]
    residuals = np.abs(_compose(f, delta) - L)
    return ShatExpansion(
        tau=tau,
        k=(k0,) + tuple(delta[1:].tolist()),
        bracket=k0 * k0 * float(f[1]),
        residuals=tuple(residuals.tolist()),
    )


def rhs1_printed(expansion: EllExpansion, tau: float, l0: float, params: ModelParams) -> float:
    """First-order right-hand side in closed form: L_1(tau) * k_0^2.

    Kept as an independent cross-check of the generic order-by-order solve;
    ``k_1`` must equal this value divided by the bracket.
    """
    if expansion.order < 1:
        raise ValueError("expansion must carry at least order 1")
    L1 = expansion.L[1].evaluate(tau)
    k0 = params.mu_hat
    return L1 * k0 * k0
