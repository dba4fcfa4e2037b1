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
``f_j = a_j + l0 b_j``.  So one solve covers a whole grid of (l0, tau) pairs
(``_solve_grid``): A_k, B_k, a_j and b_j once per maturity, then the
reversion elementwise over blocks of pairs.  A scalar solve
(``solve_shat_series``) takes the same steps for its one pair in Python
floats from the quadrature's table on, where numpy's per-call cost
outweighed the arithmetic, with the bits and errors of a grid of that pair.
Only a coefficient that is not finite sends it to the grid solve, whose
NaNs from inf * 0.0 the float loop does not form.
"""

from __future__ import annotations

import math
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

    ``eps`` is a number or an ndarray; each term is a float or an ndarray
    that broadcasts against ``eps``.  A Python float starts from the power
    1.0, any other eps from float64 ones of its shape, so a numpy float32
    or float16 scalar sums in float64, not in its own precision.  Each
    element has the bits of the float call at that element.  Every yielded
    sum is a new object.  No power past the last term's is formed: it could
    overflow where the sum does not.
    """
    total = 0.0
    power = 1.0 if isinstance(eps, float) else np.ones_like(eps, dtype=float)
    terms = iter(terms)
    for term in terms:  # the first term; the inner loop takes the rest
        total = term * power + total
        yield total
        for term in terms:
            power = power * eps
            total = term * power + total
            yield total


def _series_sum(terms, eps):
    """The last partial sum of ``_partial_sums(terms, eps)``: the whole series at ``eps``."""
    for total in _partial_sums(terms, eps):
        pass
    return total


# (l0, tau) pairs per block of the batched solve.  The block length is fixed,
# and no result depends on it; a block's table of powers takes
# (order+1)^2 * _BLOCK floats, 2.4 MB at order N_MAX.
_BLOCK = 1024

# The smallest normal double.
_TINY = float(np.finfo(float).tiny)


def _revert_one(order: int, f: list[float], L: list[float]):
    """The block loop's ``(delta, residuals)`` for one pair, in Python floats, or None.

    ``f`` and ``L`` are the pair's Taylor coefficients of F and right-hand
    side terms L_k.  Each sum adds left to right from 0.0, as the block
    loop's does, but skips the products delta_i [delta^(j-1)]_(t-i) with
    t - i < j - 1, whose power is an exact 0.0: with delta_i finite they
    add +-0.0 to a sum that is never -0.0, so no bit changes.  A delta_i
    that is inf or NaN makes them NaN in the block loop, so the result is
    None unless every coefficient is finite, and the caller then runs the
    block loop.
    """
    delta, rest = [0.0] * (order + 1), [L[0] - f[0]] + [0.0] * order
    D = [None, delta] + [[0.0] * (order + 1) for _ in range(2, order + 1)]
    f1 = f[1]
    for t in range(1, order + 1):
        total = 0.0
        for j in range(2, t + 1):
            power, s = D[j - 1], 0.0
            for i in range(1, t - j + 2):
                s += delta[i] * power[t - i]
            D[j][t] = s
            total += f[j] * s
        rest[t] = L[t] - total
        delta[t] = rest[t] / f1
    if not all(map(math.isfinite, delta)):
        return None
    return delta, [abs(f1 * d - r) for d, r in zip(delta, rest)]


def _solve_grid(params: ModelParams, order: int, l0: np.ndarray, tau: np.ndarray):
    """Solve the reversion at every pair of ``l0`` x ``tau`` (1-D arrays).

    Pairs run l0-major: pair p is (l0[p // len(tau)], tau[p % len(tau)]).
    Yields ``(start, k, bracket, residuals)`` per block of _BLOCK pairs, with
    ``start`` the index of the block's first pair, ``k`` and ``residuals`` of
    shape (order+1, pairs) and ``bracket`` of shape (pairs,).  Every
    sum over the order index adds in a fixed order, so each pair has the
    bits of a grid of that pair alone, and of ``solve_shat_series`` at that
    pair.  Every block, one pair too, runs the np.einsum block loop.
    Raises NumericalFailure at the first maturity where ``_quadrature``
    overflows, before any block is yielded; after that, at the first block
    that holds a pair where f = a + l0 b overflows or f_1 is not a normal
    double.
    """
    n = max(order, 1)
    k0 = params.mu_hat
    taus = tau.tolist()
    # Both f_j and L_k are affine in l0.  Per maturity, the l0-free part
    # [a, A] and the l0 slope [b, B]: shape (2, 2, n + 1, len(tau)).  At
    # order 0, L has a row that the solve does not read.
    affine = np.empty((2, 2, n + 1, len(taus)))
    for i, t in enumerate(taus):
        affine[..., i] = _quadrature(params, t, n)

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
        underflowed = np.abs(f[1]) < _TINY
        if underflowed.any():
            t = taus[i_tau[underflowed.argmax()]]
            raise NumericalFailure(f"the slope f_1 of F underflowed at tau={t!r}")

        # D[j, t] = [delta^j]_t, the eps^t coefficient of delta^j, and row 1 is
        # delta (delta_0 = 0): [delta^j]_t = sum_(i<t) delta_i [delta^(j-1)]_(t-i),
        # rest_t = L_t - sum_(j>=2) f_j [delta^j]_t and delta_t = rest_t / f_1.
        # Order 1 has no powers delta^j with j >= 2: rest_1 = L_1.
        # np.einsum adds each sum left to right, whatever the block holds, on
        # these strided operands, blocks of one pair included
        # (test_reversion_adds_left_to_right checks block lengths 1, 2, 7 and 1024).
        D = np.zeros((n + 1, order + 1, len(x)))
        delta, rest = D[1], np.empty((order + 1, len(x)))
        np.subtract(L[0], f[0], out=rest[0])
        if order:
            rest[1] = L[1]
            np.divide(rest[1], f[1], out=delta[1])
        for t in range(2, order + 1):
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

        ``eps`` is a number or an ndarray of them; an ndarray gives an
        ndarray of its shape, except a 0-d array, which gives a numpy float.
        Every input sums in float64, a numpy float32 or float16 too.  The
        sum is ``_series_sum``'s, the rule that ``sweep`` uses too: in
        increasing powers, so each element has the bits of the float call at
        that element.
        """
        upto = self.order if order is None else order
        _require_index(upto, "order", 0, self.order)
        return _series_sum(self.k[: upto + 1], eps)


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
    f_1 underflows below a normal double.  Runs in Python floats from the
    quadrature's table on (``_revert_one``), with the bits and errors of
    ``_solve_grid`` at the one pair (l0, tau); where a coefficient is not
    finite it returns that grid solve's result instead, NaNs included.
    """
    _require_match(expansion, l0, params)
    tau = _require_maturity(tau)
    _require_index(order, "order", 0, expansion.order)
    # _solve_grid's steps for one pair, in Python floats: its numpy calls
    # cost more than the few hundred flops of one pair, and each float
    # operation has the bits of its elementwise numpy one.
    k0, x = params.mu_hat, expansion.l0
    (a, A), (b, B) = _quadrature(params, tau, max(order, 1)).tolist()
    f = [aj + x * bj for aj, bj in zip(a, b)]
    if not all(map(math.isfinite, f)):
        raise NumericalFailure(f"Taylor coefficients of F overflowed at k0*tau={k0 * tau!r}")
    if abs(f[1]) < _TINY:
        raise NumericalFailure(f"the slope f_1 of F underflowed at tau={tau!r}")
    one = _revert_one(order, f, [Aj + x * Bj for Aj, Bj in zip(A, B)])
    if one is None:
        ((_, k, bracket, residuals),) = _solve_grid(params, order, np.array([x]), np.array([tau]))
        k, bracket, residuals = k[:, 0].tolist(), float(bracket[0]), residuals[:, 0].tolist()
    else:
        k, residuals = one
        k[0], bracket = k0, k0 * k0 * f[1]
    return ShatExpansion(tau=tau, k=tuple(k), bracket=bracket, residuals=tuple(residuals))


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
