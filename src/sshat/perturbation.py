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
the rate-zero term of c_0 gives the slope ``c01 t`` instead.
``EllExpansion.alpha`` and ``.beta`` hold this closed form; its only
denominators are ``mu_hat - k m`` and ``j m``, and it is undefined where
``mu_hat`` meets a rate ``k m``, 0 included.  Its alternating sums lose relative
accuracy at high orders and short maturities, so every value the package
computes, c_k(t) for ``path`` and L_k(tau) for the solve, comes from one
quadrature of integrands of one sign instead (``_quadrature``, ``_ell_terms``).

An :class:`EllExpansion` holds (params, l0, order) and is reused for
evaluation at any number of (eps, t) or (eps, tau) pairs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRateError, NumericalFailure
from .params import ModelParams, N_MAX, _require_consol_rate, _require_maturity, _require_order

__all__ = [
    "EllExpansion",
    "build_expansion",
    "tau_lbar_terms",
]


@dataclass(frozen=True)
class EllExpansion:
    """Expansion of l(t) and tau*lbar(tau) to ``order`` at one (params, l0).

    The closed form, ``alpha`` with shape (N+1,) and lower-triangular
    ``beta`` with shape (N+1, N+1), is written on each read as read-only
    arrays.  Construction validates ``order`` and ``l0`` and stores ``l0``
    as a float.  Immutable; safe to share across threads and evaluate
    concurrently.
    """

    order: int
    params: ModelParams
    l0: float

    def __post_init__(self):
        _require_order(self.order)
        object.__setattr__(self, "l0", _require_consol_rate(self.l0))

    @property
    def alpha(self) -> np.ndarray:
        return _closed_form(self.params, self.l0, self.order)[0]

    @property
    def beta(self) -> np.ndarray:
        return _closed_form(self.params, self.l0, self.order)[1]


def _closed_form(params: ModelParams, l0: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(alpha, beta)`` of c_0..c_order by the recursion above.

    Raises DegenerateRateError when ``mu_hat`` is within
    ``1e-8 max(|mu_hat|, m)`` of some ``k m``, k = 0..order.
    """
    mu_hat, m = params.mu_hat, params.m
    gap = min(abs(mu_hat - k * m) for k in range(order + 1))
    if gap < 1e-8 * max(abs(mu_hat), m):
        raise DegenerateRateError(f"mu_hat={mu_hat!r} is within {gap!r} of some k*m, k <= {order}")
    alpha = np.empty(order + 1)
    beta = np.zeros((order + 1, order + 1))
    alpha[0] = params.sigma2 / mu_hat
    beta[0, 0] = l0 - alpha[0]
    for k in range(1, order + 1):
        alpha[k] = -alpha[k - 1] / (mu_hat - k * m)
        beta[k, 1 : k + 1] = beta[k - 1, :k] / (np.arange(1, k + 1) * m)
        beta[k, 0] = -math.fsum([alpha[k], *beta[k, 1 : k + 1].tolist()])
    alpha.flags.writeable = beta.flags.writeable = False
    return alpha, beta


def build_expansion(params: ModelParams, l0: float, order: int) -> EllExpansion:
    """The expansion to ``order`` at (params, l0); validates and stores the three."""
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
    reaches ``_EXP_LIMIT`` (``exp(-mu_hat v)`` under- or overflows); at
    ``mu_hat = 0`` neither the width nor the range is bounded.  So it has
    fewer than 5000 nodes up to ``m tau = 1e6``, and at most 32 more per
    factor 1.5 of ``m tau`` beyond, laid out from (params, tau) alone.  One
    half mirrors the other: the distance from either end is exact near it.
    """
    rate = abs(params.mu_hat)
    end = min(tau, _EXP_LIMIT / rate) if rate else tau
    half = 0.5 * end
    widest = 4.0 / rate if rate else math.inf
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


def _powers(params: ModelParams, tau: float, top: int):
    """Distances ``u = tau - v`` and ``powers[k] = w e(v) (v^k, g(v)^k)``, k = 0..top.

    At the nodes v and weights w of ``_nodes`` on [0, tau], with
    ``e(v) = exp(-mu_hat v)`` and ``g(v) = -expm1(-m v)/m``; ``powers`` has
    shape (top + 1, 2, nodes), so each power is one contiguous row pair.
    Call under ``np.errstate(over="ignore")``.
    """
    mu_hat, m = params.mu_hat, params.m
    v, u, w = _nodes(params, tau)
    powers = np.empty((top + 1, 2, v.size))
    powers[0] = w * np.exp(-mu_hat * v)
    base = np.empty((2, v.size))
    base[0] = v
    np.divide(np.expm1(-m * v), -m, out=base[1])
    for k in range(1, top + 1):
        np.multiply(powers[k - 1], base, out=powers[k])
    return u, powers


def _moments(params: ModelParams, tau: float, top: int) -> np.ndarray:
    """The raw node sums behind ``_quadrature``'s table, shape (2, 2, top + 1).

    ``sums[part, side, k]`` is the rule's sum for ``(-1)^k k!`` times
    ``[[a_k / sigma2, A_k / sigma2], [b_k, B_k]]``: ``_quadrature``'s table
    before its division by the signed factorials and its scaling by sigma2.
    The scalar series solve's kernel starts from these sums in Python
    floats (``sshat.epsseries._reversion_kernel``).  Each is one
    ``np.add.reduce`` (``np.sum``'s bits, with one call less) over the
    contiguous node axis of one row of the (top + 1, 2, nodes) tables that
    ``_powers`` lays out, so its bits do not depend on top.  A sum may be
    inf or NaN; ``_quadrature`` and the scalar solve's kernel check.
    Raises NumericalFailure when ``exp(-mu_hat v)`` overflows on [0, tau].
    """
    mu_hat, m = params.mu_hat, params.m
    if not -mu_hat * tau <= _EXP_LIMIT:
        raise NumericalFailure(f"Taylor coefficients of F overflowed at k0*tau={mu_hat * tau!r}")
    rates = -m * np.arange(1.0, top + 1)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        u, powers = _powers(params, tau, top)
        # The powers times (tau - v, h_k(tau - v)), in their layout.
        weighted = powers * u
        weighted[1:, 1] = powers[1:, 1] * (np.expm1(rates * u) / rates)
        sums = np.empty((2, 2, top + 1))
        np.add.reduce(weighted, axis=2, out=sums[0].T)
        np.add.reduce(powers, axis=2, out=sums[1].T)
    return sums


def _quadrature(params: ModelParams, tau: float, top: int) -> np.ndarray:
    """The l0-free parts and l0 slopes of f_0..f_top and L_0..L_top at one maturity.

    Returns ``terms[part, side, k]`` of shape (2, 2, top + 1), for top up to
    N_MAX + 1: ``[[a, A], [b, B]]``, with ``f_j = a_j + l0 b_j`` the Taylor
    coefficients of F (see :mod:`sshat.epsseries`) and
    ``L_k = A_k + l0 B_k``.  With e(v) and g(v) as in ``_powers`` and
    ``h_k(w) = -expm1(-k m w)/(k m)``, ``h_0(w) = w``, integrated over
    [0, tau] by ``_nodes``:

        (-1)^k k! B_k = integral e(v) g(v)^k dv,
        (-1)^k k! A_k = sigma2 integral e(v) g(v)^k h_k(tau - v) dv,

    and b_j and a_j are the same with m -> 0: g(v) = v and h_j(w) = w.
    Every integrand has one sign, so each coefficient has a small relative
    error at every order and maturity.  The table is ``_moments``'s node
    sums divided by ``(-1)^k k!``, with the sigma2 part then scaled by
    sigma2, so its bits do not depend on top either
    (``test_quadrature_rows_do_not_depend_on_top``).  The scalar series
    solve takes the same two steps in Python floats on ``_moments``.
    Raises NumericalFailure when ``exp(-mu_hat v)`` or a coefficient overflows.
    """
    terms = _moments(params, tau, top)
    with np.errstate(over="ignore", invalid="ignore"):
        terms /= _SIGNED_FACTORIALS[: top + 1]
        terms[0] *= params.sigma2
    if not np.isfinite(terms).all():
        raise NumericalFailure(f"Taylor coefficients of F overflowed at k0*tau={params.mu_hat * tau!r}")
    return terms


def _ell_terms(expansion: EllExpansion, t: float) -> np.ndarray:
    """c_0(t)..c_N(t) at a time ``t >= 0``, by the rule of ``_quadrature``.

    With e(v) and g(v) as in ``_powers``, both terms of

        (-1)^k k! c_k(t) = l0 e(t) g(t)^k + sigma2 integral_0^t e(v) g(v)^k exp(-k m (t - v)) dv

    are positive, so each c_k(t) has a small relative error at every order
    and time; at t = 0 the rule has no width, so c_0 = l0 and c_k = 0.
    Raises NumericalFailure when ``exp(-mu_hat t)`` or a coefficient overflows.
    """
    params, order = expansion.params, expansion.order
    m = params.m
    k = np.arange(order + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u, powers = _powers(params, t, order)
        integral = params.sigma2 * np.sum(powers[:, 1] * np.exp(-m * k[:, None] * u), axis=1)
        closed = expansion.l0 * np.exp(-params.mu_hat * t) * (-math.expm1(-m * t) / m) ** k
        terms = (closed + integral) / _SIGNED_FACTORIALS[: order + 1]
    if not np.isfinite(terms).all():
        raise NumericalFailure(f"path coefficients overflowed at k0*t={params.mu_hat * t!r}")
    return terms


def tau_lbar_terms(expansion: EllExpansion, tau: float) -> list[float]:
    """The scalar values L_k(tau) = A_k(tau) + l0 B_k(tau) for k = 0..order.

    From ``_quadrature``: the same values the series solve reads at (l0, tau).
    Raises NumericalFailure when a term overflows.
    """
    tau = _require_maturity(tau)
    A, B = _quadrature(expansion.params, tau, expansion.order)[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = A + expansion.l0 * B
    if not np.isfinite(terms).all():
        raise NumericalFailure(f"the terms L_k of tau*lbar overflowed at k0*tau={expansion.params.mu_hat * tau!r}")
    return terms.tolist()
