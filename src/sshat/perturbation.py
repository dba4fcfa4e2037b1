"""Closed-form expansion of the consol-rate path and of its running integral.

The deterministic consol rate solves ``dl/dt = sigma2 - s(t) l`` with
``s(t) = mu_hat + eps exp(-m t)``.  Writing ``l(t) = sum_k c_k(t) eps^k``
gives ``c_k' = -mu_hat c_k - exp(-m t) c_{k-1}`` with ``c_k(0) = 0`` for
k >= 1, and c_0 the eps-free path from l0.  Each c_k uses two families of rates,

    c_k(t) = alpha_k exp(-k m t) + sum_{j=0..k} beta_{k,j} exp(-(mu_hat + j m) t),

    alpha_0 = c01 = sigma2/mu_hat,    beta_{0,0} = l0 - c01,
    alpha_k = -alpha_{k-1} / (mu_hat - k m),
    beta_{k,j} = beta_{k-1,j-1} / (j m)             for 1 <= j <= k,
    beta_{k,0} = -(alpha_k + sum_{j>=1} beta_{k,j})  so that c_k(0) = 0.

The running integral ``tau * lbar(tau) = sum_k L_k(tau) eps^k`` has
``L_k(t) = sum a/r (1 - exp(-r t))`` over the terms ``a exp(-r t)`` of c_k;
the rate-zero term of c_0 gives the slope ``c01 t`` instead.  The genericity
band of :class:`ModelParams` keeps every denominator, ``mu_hat - k m``,
``j m`` and ``mu_hat + j m``, away from zero.

An :class:`EllExpansion` is built once per (params, l0, order) and then reused
for evaluation at any number of (eps, t) or (eps, tau) pairs.
"""

from __future__ import annotations

import math
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


def _series(terms) -> ExpPolySeries:
    """The series of ``(coeff, power, rate)`` triples, without exact-zero coefficients."""
    return ExpPolySeries(tuple(ExpPolyTerm(a, p, r) for a, p, r in terms if a != 0.0))


def _integral(pairs) -> list[tuple[float, int, float]]:
    """Terms of the integral from 0 to t of sum a exp(-r u) over ``(a, r)`` pairs."""
    slopes = [(a, 1, 0.0) for a, r in pairs if r == 0.0]
    ratios = [(a / r, r) for a, r in pairs if r != 0.0]
    return slopes + [(-q, 0, r) for q, r in ratios] + [(math.fsum(q for q, _ in ratios), 0, 0.0)]


def build_expansion(params: ModelParams, l0: float, order: int) -> EllExpansion:
    """Build c_0..c_order and L_0..L_order by the two-family recursion above."""
    if not 0 <= order <= N_MAX:
        raise ValueError(f"expansion order must be in [0, {N_MAX}], got {order}")
    _require_finite(l0, "l0")
    if l0 <= 0:
        raise ValueError(f"initial consol rate l0 must be > 0, got {l0}")
    mu_hat, m = params.mu_hat, params.m
    alpha = params.sigma2 / mu_hat
    beta = [l0 - alpha]
    c, L = [], []
    for k in range(order + 1):
        if k:
            alpha = -alpha / (mu_hat - k * m)
            beta = [b / (j * m) for j, b in enumerate(beta, start=1)]
            beta.insert(0, -math.fsum([alpha] + beta))
        pairs = [(alpha, k * m)] + [(b, mu_hat + j * m) for j, b in enumerate(beta)]
        c.append(_series((a, 0, r) for a, r in pairs))
        L.append(_series(_integral(pairs)))
    return EllExpansion(order=order, c=tuple(c), L=tuple(L), params=params, l0=l0)


def tau_lbar_terms(expansion: EllExpansion, tau: float) -> list[float]:
    """The scalar values L_k(tau) for k = 0..order (per-order building blocks)."""
    _require_finite(tau, "maturity tau")
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
    return [Lk.evaluate(tau) for Lk in expansion.L]
