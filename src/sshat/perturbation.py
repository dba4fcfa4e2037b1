"""Closed-form expansion of the consol-rate path and of its running integral.

The deterministic consol rate solves ``dl/dt = sigma2 - s(t) l`` with
``s(t) = mu_hat + eps exp(-m t)``.  Writing ``l(t) = sum_k c_k(t) eps^k`` and
collecting powers of ``eps`` gives

    c_0(t) = c01 + c02 exp(-mu_hat t),  c01 = sigma2/mu_hat,  c02 = l0 - c01,
    c_k(t) = -exp(-mu_hat t) * integral_0^t exp((mu_hat - m) u) c_{k-1}(u) du,

so every coefficient is a finite exponential sum, produced here exactly by
the series algebra (shift, antidifferentiate, shift, negate).  The running
integral ``tau * lbar(tau) = sum_k L_k(tau) eps^k`` uses
``L_k = integrate_from_zero(c_k)``.

An :class:`EllExpansion` is built once per (params, l0, order) and then reused
for evaluation at any number of (eps, t) or (eps, tau) pairs; that reuse is
the entire point of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expseries import ExpPolySeries, ExpPolyTerm
from .params import ModelParams, N_MAX, _require_finite

__all__ = [
    "EllExpansion",
    "build_expansion",
    "tau_lbar_terms",
]


@dataclass(frozen=True)
class EllExpansion:
    """Expansion coefficients c_0..c_N of l(t) and L_0..L_N of tau*lbar(tau).

    Immutable; safe to share across threads and evaluate concurrently.
    """

    order: int
    c: tuple[ExpPolySeries, ...]
    L: tuple[ExpPolySeries, ...]
    params: ModelParams
    l0: float


def build_expansion(params: ModelParams, l0: float, order: int) -> EllExpansion:
    """Build all coefficients c_0..c_order and their integrals L_0..L_order.

    c_0 solves the eps-free dynamics dl/dt = sigma2 - mu_hat l, l(0) = l0.
    Each recursion step implements
    -exp(-mu_hat t) * integral_0^t exp((mu_hat - m) u) c_prev(u) du as: raise
    all rates by (m - mu_hat), antidifferentiate from zero, raise rates by
    mu_hat, negate.  So c_k(0) = 0 for k >= 1 by construction.  The
    genericity condition on the parameters guarantees that no shifted rate
    falls inside the degenerate band around zero.
    """
    if not 0 <= order <= N_MAX:
        raise ValueError(f"expansion order must be in [0, {N_MAX}], got {order}")
    _require_finite(l0, "l0")
    if l0 <= 0:
        raise ValueError(f"initial consol rate l0 must be > 0, got {l0}")
    tol = params.delta_gen
    c01 = params.sigma2 / params.mu_hat
    c = [ExpPolySeries.from_terms([ExpPolyTerm(c01, 0, 0.0), ExpPolyTerm(l0 - c01, 0, params.mu_hat)], rate_tol=tol)]
    for _ in range(order):
        shifted = c[-1].multiply_by_exp(params.m - params.mu_hat, rate_tol=tol)
        integral = shifted.integrate_from_zero(rate_tol=tol)
        c.append(integral.multiply_by_exp(params.mu_hat, rate_tol=tol).scaled(-1.0, rate_tol=tol))
    L = [ck.integrate_from_zero(rate_tol=tol) for ck in c]
    return EllExpansion(order=order, c=tuple(c), L=tuple(L), params=params, l0=l0)


def tau_lbar_terms(expansion: EllExpansion, tau: float) -> list[float]:
    """The scalar values L_k(tau) for k = 0..order (per-order building blocks)."""
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
    return [Lk.evaluate(tau) for Lk in expansion.L]
