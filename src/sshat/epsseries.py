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

The zeroth order holds exactly, since L_0 and f_0 are the same quadrature
sum, and order n >= 1 is linear in k_n with the slope f_1:

    k_n = (L_n - [sum_{j>=2} f_j delta^j]_n) / f_1,

with [delta^j]_n from k_1..k_(n-1), kept in one table of powers.

The f_j are the integrals of the L_k with m -> 0, moments of a positive weight,

    f_j = (-1)^j / j! * integral_0^tau v^j (l0 + sigma2 (tau - v)) exp(-k_0 v) dv,

and one quadrature gives both (``perturbation._quadrature``), so ``f_1 < 0``
for every admissible parameter set and no order amplifies the rounding
error of the orders below.

The first-order closed form ``k_1 = L_1 / f_1`` is kept as a check of the
reversion's first order, written as in the cleared equation:
``k_1 * bracket = L_1 k_0^2`` with ``bracket = k_0^2 f_1``.  L_1 and f_1 come
from the same ``_quadrature`` call, so it does not check the quadrature.
The mpmath values of ``tests/_reference.py`` and the closed-form L_k of
acceptance criterion 5 do.

Both sides are affine in l0: ``L_k = A_k + l0 B_k`` (perturbation) and
``f_j = a_j + l0 b_j``.  So one solve covers a whole grid of (l0, tau) pairs:
A_k, B_k, a_j and b_j once per maturity, then the reversion elementwise over
blocks of pairs.  A scalar solve is a grid of one pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .params import ModelParams, _require_consol_rate, _require_index, _require_maturity
from .perturbation import EllExpansion, _quadrature, tau_lbar_terms

__all__ = [
    "ShatExpansion",
    "solve_shat_series",
    "rhs1_printed",
]


def _partial_sums(terms, eps):
    """Yield the partial sums of sum_n terms[n] eps^n, added in increasing powers.

    ``eps`` is a float or an ndarray; each term is a float or an ndarray
    that broadcasts against ``eps``.  Each element has the bits of the float
    call at that element.  Every yielded sum is a new object.  No power
    past the last term's is formed: it could overflow where the sum does not.
    """
    total = 0.0
    power = np.ones_like(eps, dtype=float) if isinstance(eps, np.ndarray) else 1.0
    terms = iter(terms)
    for term in terms:  # the first term; the inner loop takes the rest
        total = term * power + total
        yield total
        for term in terms:
            power = power * eps
            total = term * power + total
            yield total


# (l0, tau) pairs per block of the batched solve.  The block length is fixed,
# and no result depends on it; a block's table of powers takes
# (order+1)^2 * _BLOCK floats, 2.4 MB at order N_MAX.
_BLOCK = 1024


def _solve_grid(params: ModelParams, order: int, l0: np.ndarray, tau: np.ndarray):
    """Solve the reversion at every pair of ``l0`` x ``tau`` (1-D arrays).

    Pairs run l0-major: pair p is (l0[p // len(tau)], tau[p % len(tau)]).
    Yields ``(start, k, bracket, residuals)`` per block of _BLOCK pairs, with
    ``start`` the index of the block's first pair, ``k`` and ``residuals`` of
    shape (order+1, pairs) and ``bracket`` of shape (pairs,).  Every
    sum over the order index adds in a fixed order, so each pair has the
    bits of a grid of that pair alone.  Raises
    NumericalFailure at the first block that holds a maturity where
    ``_quadrature`` overflows or f_1 is not a normal double.
    """
    n = max(order, 1)
    k0 = params.mu_hat
    taus = tau.tolist()
    # Both f_j and L_k are affine in l0.  Per maturity, the l0-free part
    # [a, A] and the l0 slope [b, B]: shape (2, 2, n + 1, len(tau)).  At
    # order 0, L has a row that the solve does not read.
    affine = np.stack([_quadrature(params, t, n) for t in taus], axis=-1)

    pairs = len(l0) * len(taus)
    for start in range(0, pairs, _BLOCK):
        i_l0, i_tau = np.divmod(np.arange(start, min(start + _BLOCK, pairs)), len(taus))
        x = l0[i_l0]
        intercept, slope = affine[..., i_tau]
        with np.errstate(over="ignore", invalid="ignore"):
            f, L = intercept + x * slope
        if not np.isfinite(f).all():
            t = taus[i_tau[np.isfinite(f).all(axis=0).argmin()]]
            raise NumericalFailure(f"Taylor coefficients of F overflowed at k0*tau={k0 * t!r}")
        # Every order divides by f_1, about -l0 tau^2 / 2: below a normal
        # double (tau under about 1e-154) the quotients lose their digits or are NaN.
        underflowed = np.abs(f[1]) < np.finfo(float).tiny
        if underflowed.any():
            t = taus[i_tau[underflowed.argmax()]]
            raise NumericalFailure(f"the slope f_1 of F underflowed at tau={t!r}")

        # D[j, t] = [delta^j]_t, the eps^t coefficient of delta^j, and row 1 is
        # delta (delta_0 = 0): [delta^j]_t = sum_(i<t) delta_i [delta^(j-1)]_(t-i),
        # rest_t = L_t - sum_(j>=2) f_j [delta^j]_t and delta_t = rest_t / f_1.
        # np.einsum adds each sum left to right, whatever the block holds.
        D = np.zeros((n + 1, order + 1, len(x)))
        delta, rest = D[1], np.empty((order + 1, len(x)))
        np.subtract(L[0], f[0], out=rest[0])
        for t in range(1, order + 1):
            powers = D[2 : t + 1, t]
            np.einsum("i...,ji...->j...", delta[1:t], D[1:t, t - 1 : 0 : -1], out=powers)
            np.subtract(L[t], np.einsum("j...,j...->...", f[2 : t + 1], powers), out=rest[t])
            np.divide(rest[t], f[1], out=delta[t])
        residuals = np.abs(f[1] * delta - rest)
        delta[0] = k0
        yield start, delta, k0 * k0 * f[1], residuals


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
        _require_index(upto, "order", 0, self.order)
        return deque(_partial_sums(self.k[: upto + 1], eps), maxlen=1)[0]


def _require_match(expansion: EllExpansion, l0: float, params: ModelParams):
    if _require_consol_rate(l0) != expansion.l0 or params != expansion.params:
        raise ValueError("l0 and params must be the ones the expansion was built from")


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
    ``l0`` and ``params`` must be the ones ``expansion`` was built from.
    Raises NumericalFailure when the Taylor coefficients of F overflow or
    f_1 underflows below a normal double.
    """
    _require_match(expansion, l0, params)
    tau = _require_maturity(tau)
    _require_index(order, "order", 0, expansion.order)
    ((_, k, bracket, residuals),) = _solve_grid(params, order, np.array([expansion.l0]), np.array([tau]))
    return ShatExpansion(
        tau=tau,
        k=tuple(k[:, 0].tolist()),
        bracket=float(bracket[0]),
        residuals=tuple(residuals[:, 0].tolist()),
    )


def rhs1_printed(expansion: EllExpansion, tau: float, l0: float, params: ModelParams) -> float:
    """First-order right-hand side L_1(tau) * k_0^2, with the quadrature's L_1 from ``tau_lbar_terms``.

    Kept as a cross-check of the generic order-by-order solve; ``k_1`` must
    equal this value divided by the bracket.  At mu_hat = 0 both the bracket
    and this value are 0, so there the check is 0/0.
    """
    _require_match(expansion, l0, params)
    if expansion.order < 1:
        raise ValueError("expansion must carry at least order 1")
    L1 = tau_lbar_terms(expansion, tau)[1]
    k0 = params.mu_hat
    return L1 * k0 * k0
