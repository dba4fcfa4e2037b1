"""The expansion of the consol-rate path and of its running integral.

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
``j m`` and ``mu_hat + j m``, away from zero.  These closed forms are the
term tables ``EllExpansion.c`` and ``.L``.  Their alternating sums lose
relative accuracy at high orders and short maturities, so the L_k(tau) that
the solve reads come from a quadrature of integrands of one sign instead.

An :class:`EllExpansion` holds (params, l0, order) and is reused for
evaluation at any number of (eps, t) or (eps, tau) pairs.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .expseries import ExpPolySeries, ExpPolyTerm
from .params import ModelParams, N_MAX, _require_consol_rate, _require_maturity, _require_order

__all__ = [
    "EllExpansion",
    "build_expansion",
    "tau_lbar_terms",
]


@dataclass(frozen=True)
class EllExpansion:
    """Expansion of l(t) and tau*lbar(tau) to ``order`` at one (params, l0).

    The term tables ``c`` (c_0..c_N) and ``L`` (L_0..L_N) are written on
    each read.  Immutable; safe to share across threads and evaluate concurrently.
    """

    order: int
    params: ModelParams
    l0: float

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
    """The expansion to ``order`` at (params, l0); validates and stores the three."""
    _require_order(order)
    _require_consol_rate(l0)
    return EllExpansion(order=order, params=params, l0=l0)


# The 16-point Gauss-Legendre rule on [-1, 1], symmetric: its positive nodes,
# then their weights, rounded from 60-digit roots of P_16 (numpy's leggauss
# has the weights only to 7e-15 relative).
_GAUSS_HALF = np.array([
    (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438),
    (0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
    (0.1894506104550685, 0.18260341504492358, 0.16915651939500254, 0.14959598881657674),
    (0.12462897125553388, 0.09515851168249279, 0.062253523938647894, 0.027152459411754096),
]).reshape(2, 8)
_GAUSS_NODES = np.concatenate((-_GAUSS_HALF[0, ::-1], _GAUSS_HALF[0]))
_GAUSS_WEIGHTS = np.concatenate((_GAUSS_HALF[1, ::-1], _GAUSS_HALF[1]))
_SIGNED_FACTORIALS = np.array([(-1) ** k * math.factorial(k) for k in range(N_MAX + 2)], dtype=float)  # exact
# exp(x) overflows above this x, and exp(-x) is below 1e-308.
_EXP_LIMIT = math.log(sys.float_info.max)


def _nodes(params: ModelParams, tau: float):
    """Nodes ``v``, distances ``tau - v`` and weights of the composite rule on [0, tau].

    16-point panels, graded towards both ends: the end panels are
    ``1/(16 m)`` wide (the boundary layer of ``h_k`` at k = N_MAX), every
    further one is at most half as wide as its distance from the nearer end
    and at most ``4/|mu_hat|`` wide.  The rule stops where ``|mu_hat| v``
    reaches ``_EXP_LIMIT`` (``exp(-mu_hat v)`` under- or overflows), so it
    has fewer than 5000 nodes, laid out from (params, tau) alone.  One half
    mirrors the other: the distance from either end is exact near it.
    """
    mu_hat = params.mu_hat
    end = min(tau, _EXP_LIMIT / abs(mu_hat))
    half = 0.5 * end
    widest = 4.0 / abs(mu_hat)
    first = 1.0 / (16.0 * params.m)
    # Edges from one end to the middle: they grow by half their distance
    # from the end up to 2 * widest, then step evenly by at most widest.
    graded = min(half, 2.0 * widest)
    grown = math.ceil(math.log(graded / first, 1.5)) if graded > first else 0
    even = math.ceil((half - graded) / widest)
    edges = [0.0, *(first * 1.5**i for i in range(grown))]
    edges = np.array([*edges, *(graded + (half - graded) * i / even for i in range(even)), half])
    radius = 0.5 * (edges[1:] - edges[:-1])[:, None]
    x = ((edges[:-1, None] + radius) + radius * _GAUSS_NODES).ravel()
    w = (radius * _GAUSS_WEIGHTS).ravel()
    return np.concatenate((x, end - x)), np.concatenate((tau - x, (tau - end) + x)), np.concatenate((w, w))


def _quadrature(params: ModelParams, tau: float, n: int, order: int) -> np.ndarray:
    """The l0-free parts and l0 slopes of f_0..f_n and L_0..L_order at one maturity.

    Returns ``[[a_0..a_n, A_0..A_order], [b_0..b_n, B_0..B_order]]`` for n
    and order up to N_MAX + 1, with ``f_j = a_j + l0 b_j`` the Taylor
    coefficients of F (see :mod:`sshat.epsseries`) and
    ``L_k = A_k + l0 B_k``.  With ``e(v) = exp(-mu_hat v)``,
    ``g(v) = -expm1(-m v)/m`` and ``h_k(w) = -expm1(-k m w)/(k m)``,
    ``h_0(w) = w``, integrated over [0, tau] by ``_nodes``:

        (-1)^k k! B_k = integral e(v) g(v)^k dv,
        (-1)^k k! A_k = sigma2 integral e(v) g(v)^k h_k(tau - v) dv,

    and b_j and a_j are the same with m -> 0: g(v) = v and h_j(w) = w.
    Every integrand has one sign, so each coefficient has a small relative
    error at every order and maturity; each is a row-wise ``np.sum`` over
    the nodes, so its bits depend on neither n nor order.  Raises
    NumericalFailure when ``exp(-mu_hat v)`` or a coefficient overflows.
    """
    mu_hat, m = params.mu_hat, params.m
    if -mu_hat * tau <= _EXP_LIMIT:
        v, u, w = _nodes(params, tau)
        top = max(n, order)
        rates = -m * np.arange(1.0, top + 1)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            # integrands[1, k] = e(v) (v^k, g(v)^k) times the weights, and
            # integrands[0, k] the same times (tau - v, h_k(tau - v)).
            integrands = np.empty((2, top + 1, 2, v.size))
            powers, weighted = integrands[1], integrands[0]
            powers[0] = w * np.exp(-mu_hat * v)
            base = np.array([v, np.expm1(-m * v) / -m])
            for k in range(1, top + 1):
                np.multiply(powers[k - 1], base, out=powers[k])
            weighted[...] = u
            weighted[1:, 1] = np.expm1(rates * u) / rates
            weighted *= powers
            terms = np.sum(integrands, axis=3) / _SIGNED_FACTORIALS[: top + 1, None]
            terms[0] *= params.sigma2
        if np.isfinite(terms).all():
            return np.concatenate((terms[:, : n + 1, 0], terms[:, : order + 1, 1]), axis=1)
    raise NumericalFailure(f"Taylor coefficients of F overflowed at k0*tau={mu_hat * tau!r}")


def tau_lbar_terms(expansion: EllExpansion, tau: float) -> list[float]:
    """The scalar values L_k(tau) = A_k(tau) + l0 B_k(tau) for k = 0..order.

    From ``_quadrature``: the same values the series solve reads at (l0, tau).
    """
    tau = _require_maturity(tau)
    A, B = _quadrature(expansion.params, tau, 0, expansion.order)[:, 1:]
    return (A + expansion.l0 * B).tolist()
