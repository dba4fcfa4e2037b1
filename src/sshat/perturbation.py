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
import operator
from dataclasses import dataclass, field

from .errors import NumericalFailure
from .expseries import ExpPolySeries, ExpPolyTerm
from .params import ModelParams, N_MAX, _require_consol_rate, _require_maturity

__all__ = [
    "EllExpansion",
    "build_expansion",
    "tau_lbar_terms",
]


@dataclass(frozen=True)
class EllExpansion:
    """Expansion of l(t) and tau*lbar(tau) to ``order`` at one (params, l0).

    Holds the l0-free ``_lbar_table`` that the solve and ``tau_lbar_terms``
    read; the term tables ``c`` (c_0..c_N) and ``L`` (L_0..L_N) are written on
    each read.  Immutable; safe to share across threads and evaluate concurrently.
    """

    order: int
    params: ModelParams
    l0: float
    _table: tuple = field(compare=False, repr=False)

    def _pairs(self):
        """Per k, the ``(coeff, rate)`` pairs of c_k's terms ``coeff exp(-rate t)``."""
        mu_hat, m = self.params.mu_hat, self.params.m
        alpha0 = self.params.sigma2 / mu_hat
        for k, (alpha, beta) in enumerate(_recursion(self.params, alpha0, self.l0 - alpha0, self.order)):
            yield [(alpha, k * m)] + [(b, mu_hat + j * m) for j, b in enumerate(beta)]

    @property
    def c(self) -> tuple[ExpPolySeries, ...]:
        return tuple(_series((a, 0, r) for a, r in pairs) for pairs in self._pairs())

    @property
    def L(self) -> tuple[ExpPolySeries, ...]:
        return tuple(_series(_integral(pairs)) for pairs in self._pairs())


def _series(terms) -> ExpPolySeries:
    """The series of ``(coeff, power, rate)`` triples, without exact-zero coefficients."""
    return ExpPolySeries(tuple(ExpPolyTerm(a, p, r) for a, p, r in terms if a != 0.0))


def _integral(pairs) -> list[tuple[float, int, float]]:
    """Terms of the integral from 0 to t of sum a exp(-r u) over ``(a, r)`` pairs."""
    slopes = [(a, 1, 0.0) for a, r in pairs if r == 0.0]
    ratios = [(a / r, r) for a, r in pairs if r != 0.0]
    return slopes + [(-q, 0, r) for q, r in ratios] + [(math.fsum(q for q, _ in ratios), 0, 0.0)]


def _recursion(params: ModelParams, alpha: float, beta: float, order: int):
    """Yield ``(alpha_k, [beta_k0, ..., beta_kk])`` for k = 0..order by the recursion above.

    Starts from ``alpha_0 = alpha`` and ``beta_00 = beta``; the recursion is
    linear in the two.
    """
    mu_hat, m = params.mu_hat, params.m
    jm = [j * m for j in range(1, order + 1)]
    beta = [beta]
    yield alpha, beta
    for k in range(1, order + 1):
        alpha = -alpha / (mu_hat - k * m)
        beta = list(map(operator.truediv, beta, jm))
        beta.insert(0, -math.fsum([alpha] + beta))
        yield alpha, beta


def build_expansion(params: ModelParams, l0: float, order: int) -> EllExpansion:
    """The expansion to ``order`` at (params, l0), with its l0-free table."""
    table = _lbar_table(params, order)
    _require_consol_rate(l0)
    return EllExpansion(order=order, params=params, l0=l0, _table=table)


def _lbar_table(params: ModelParams, order: int):
    """The l0-free table of L_0..L_order, built once per expansion (or sweep).

    Every beta_{k,j} is u_{k,j} + l0 v_{k,j}, since the recursion is linear:
    u starts from ``beta_00 = -alpha_0``, v from ``alpha_0 = 0, beta_00 = 1``.
    So ``L_k(tau) = A_k(tau) + l0 B_k(tau)``, where each of A_k and B_k sums
    ``a/r (1 - exp(-r tau))`` over its terms (the slope ``alpha_0 tau`` for
    the rate zero of A_0).  Returns the rates ``k m`` (k = 1..order), the
    rates ``mu_hat + j m`` (j = 0..order), the alpha coefficients of A (the
    slope, then a/r per k) and, per k, the beta coefficients a/r of A and of B.
    """
    if not 0 <= order <= N_MAX:
        raise ValueError(f"expansion order must be in [0, {N_MAX}], got {order}")
    mu_hat, m = params.mu_hat, params.m
    alpha_rates = [k * m for k in range(1, order + 1)]
    beta_rates = [mu_hat + j * m for j in range(order + 1)]
    alpha0 = params.sigma2 / mu_hat
    u_rows, v_rows, alphas = [], [], []
    u_family = _recursion(params, alpha0, -alpha0, order)
    v_family = _recursion(params, 0.0, 1.0, order)
    for (alpha, u), (_, v) in zip(u_family, v_family):
        alphas.append(alpha)
        u_rows.append(tuple(map(operator.truediv, u, beta_rates)))
        v_rows.append(tuple(map(operator.truediv, v, beta_rates)))
    alphas[1:] = map(operator.truediv, alphas[1:], alpha_rates)
    return tuple(alpha_rates), tuple(beta_rates), tuple(alphas), tuple(u_rows), tuple(v_rows)


def _lbar_columns(table, tau: float) -> tuple[list[float], list[float]]:
    """A_k(tau) and B_k(tau) for k = 0..order, each summed exactly by ``math.fsum``."""
    alpha_rates, beta_rates, alphas, u_rows, v_rows = table
    try:
        alpha_basis = [tau] + [-math.expm1(-r * tau) for r in alpha_rates]
        beta_basis = [-math.expm1(-r * tau) for r in beta_rates]
    except OverflowError as exc:
        raise NumericalFailure(f"series evaluation overflowed at t={tau!r}") from exc
    A = [
        math.fsum([a * x, *map(operator.mul, row, beta_basis)])
        for a, x, row in zip(alphas, alpha_basis, u_rows)
    ]
    B = [math.fsum(map(operator.mul, row, beta_basis)) for row in v_rows]
    return A, B


def tau_lbar_terms(expansion: EllExpansion, tau: float) -> list[float]:
    """The scalar values L_k(tau) = A_k(tau) + l0 B_k(tau) for k = 0..order.

    The same values the series solve reads at (l0, tau).
    """
    tau = _require_maturity(tau)
    A, B = _lbar_columns(expansion._table, tau)
    return [a + expansion.l0 * b for a, b in zip(A, B)]
