"""Independent numerical ground truth for the expansion machinery.

Integrates the deterministic system

    dl/dt = sigma2 - s(t) l,   s(t) = mu_hat + eps exp(-m t),   l(0) = l0,

together with the running integral A(t) = integral_0^t l, by classical
fixed-step fourth-order Runge-Kutta (the system is smooth and non-stiff at
the parameter scales of interest, so adaptivity would buy nothing).  Each
RK4 step of this linear system is an affine map of (l, A), so the steps run
as a prefix scan over fixed blocks of steps, once per distinct initial
spread of a batch, with no Python loop over single steps (``_rk4``).  The
oracle then solves the defining equation for the effective spread constant
by a safeguarded Newton iteration with bisection fallback.

The cleared form of the defining equation,

    g(s) = (tau*lbar) s^2 - (l0 s - sigma2)(1 - exp(-s tau)) - sigma2 s tau,

has a spurious double root at s = 0 introduced by clearing denominators.
The iteration therefore runs on the deflated residual q(s) = g(s) / s^2,
which is exactly the residual of the original (uncleared) equation scaled by
tau, is regular and strictly monotone in s for l0 > 0, and has the single
root of interest.  The reported residual is |g| at the returned root, per
the result contract.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, NumericalFailure
from .params import InitialState, ModelParams, _require_maturity

__all__ = [
    "TOL_ROOT",
    "OracleResult",
    "default_n_steps",
    "integrate_ell",
    "abar_closed_s0_equals_muhat",
    "solve_shat_numeric",
    "compute_oracle",
    "compute_oracles",
]

# Absolute tolerance on the cleared-equation residual at the returned root.
# The Newton iteration itself runs to machine-level step sizes, so the final
# residual is typically many orders below this.
TOL_ROOT = 1e-12

_MAX_BRACKET_WIDENINGS = 5
_MAX_NEWTON_ITERATIONS = 200


@dataclass(frozen=True)
class OracleResult:
    """Numerically computed integral term and root, with solver diagnostics."""

    tau_lbar: float
    s_hat: float
    steps: int
    residual: float
    bracket_lo: float
    bracket_hi: float


def default_n_steps(tau: float) -> int:
    """Default integrator resolution: at least 1000 steps, 1000 per year."""
    return max(1000, math.ceil(1000 * _require_maturity(tau)))


# RK4 steps per block of the scan.  The block length is fixed, so no result
# depends on the batch size, and short, so a block's (distinct eps) x (steps)
# arrays stay a few tens of kilobytes at any maturity.
_BLOCK = 256
# Prefix sums within a block run over sub-blocks of _RUN steps first, then
# over the sub-block totals: each sum adds at most 2 * _BLOCK / _RUN terms
# in sequence instead of _BLOCK.
_RUN = 16


def _prefix(x: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums along the last axis of a 2-D array, two-level."""
    rows, steps = x.shape
    if steps % _RUN:
        x = np.concatenate((x, np.zeros((rows, -steps % _RUN))), axis=1)
    runs = x.reshape(rows, x.shape[1] // _RUN, _RUN).cumsum(axis=2)
    runs[:, 1:] += runs[:, :-1, -1].cumsum(axis=1)[:, :, None]
    return runs.reshape(x.shape)[:, :steps]


def _rk4_step(ell, sigma2: float, s_a, s_mid, s_b, h: float):
    """Increments of l and of its integral A over one RK4 step from ``ell``.

    ``s_a``, ``s_mid`` and ``s_b`` are the spread at the start, middle and
    end of the step.  The running integral's stage slopes are the stage
    values of l itself.
    """
    half = 0.5 * h
    k1 = sigma2 - s_a * ell
    y2 = ell + half * k1
    k2 = sigma2 - s_mid * y2
    y3 = ell + half * k2
    k3 = sigma2 - s_mid * y3
    y4 = ell + h * k3
    k4 = sigma2 - s_b * y4
    sixth = h / 6.0
    return sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), sixth * (ell + 2.0 * y2 + 2.0 * y3 + y4)


def _rk4(eps: np.ndarray, l0: np.ndarray, params: ModelParams, tau: float, n_steps: int, path: bool = False):
    """Classical RK4 for l and its running integral A over [0, tau], as an affine scan.

    ``eps = s0 - mu_hat`` and ``l0`` are 1-D float64 arrays, one entry per
    state of a batch that shares ``tau`` and ``n_steps``.

    RK4 on dl/dt = sigma2 - s(t) l is affine in the state: step i maps
    l_{i+1} = (1 + alpha_i) l_i + b_i and A_{i+1} = A_i + c_i l_i + d_i.
    The stage formulas give alpha_i and c_i at l=1, sigma2=0, and b_i and
    d_i at l=0, for a whole block of steps at once.  Within a block,
    l_k = R_k (l_start + sum_{j<k} b_j / R_{j+1}) with R_k the product of
    the first k factors 1 + alpha_j, taken as exp of a prefix sum of
    log1p(alpha_j): a running product of 1 + alpha_j would round each
    factor, which costs about n u / 2 over n steps.  The prefix sums
    restart in each block, so the exponentials stay in range even where the
    product over the whole interval underflows.

    l and A are affine in l0, so each distinct eps is integrated once, with
    l = p l0 + q and A = a_p l0 + a_q carried from block to block; a state
    reads a_p l0 + a_q at the end.  Every row is bitwise equal to the same
    state integrated alone.  A step whose factor 1 + alpha_i is not
    positive (only with steps far too long for the spread's decay) makes
    the state non-finite.

    Returns A(tau) per state, and with ``path`` also l after every step,
    shape (states, n_steps + 1).  Raises NumericalFailure, naming the
    state, if any state ends non-finite.
    """
    tau = _require_maturity(tau)
    if n_steps < 16:
        raise ValueError(f"n_steps must be >= 16, got {n_steps}")
    mh = params.mu_hat
    m = params.m
    sigma2 = params.sigma2
    h = tau / n_steps
    eps_u, row = np.unique(eps, return_inverse=True)
    e = eps_u[:, None]
    p = np.ones(eps_u.size)
    q = np.zeros(eps_u.size)
    a_p = np.zeros(eps_u.size)
    a_q = np.zeros(eps_u.size)
    ells = [l0[:, None]]
    # A blown-up state overflows to inf/nan without warning; the finiteness
    # check below reports it.
    with np.errstate(all="ignore"):
        for start in range(0, n_steps, _BLOCK):
            t = np.arange(start, min(start + _BLOCK, n_steps)) * h
            s_a = mh + e * np.exp(-m * t)
            s_mid = mh + e * np.exp(-m * (t + 0.5 * h))
            s_b = mh + e * np.exp(-m * (t + h))
            alpha, c = _rk4_step(1.0, 0.0, s_a, s_mid, s_b, h)
            b, d = _rk4_step(0.0, sigma2, s_a, s_mid, s_b, h)
            log_r = _prefix(np.log1p(alpha))
            r = np.exp(log_r)
            sums = _prefix(b * np.exp(-log_r))
            # p and q after each step of the block, and before it.
            p_next = p[:, None] * r
            q_next = r * (q[:, None] + sums)
            p_prev = np.concatenate((p[:, None], p_next[:, :-1]), axis=1)
            q_prev = np.concatenate((q[:, None], q_next[:, :-1]), axis=1)
            a_p = a_p + np.sum(c * p_prev, axis=1)
            a_q = a_q + np.sum(c * q_prev + d, axis=1)
            if path:
                ells.append(p_next[row] * l0[:, None] + q_next[row])
            # Carry p and q to the next block.  A block factor R near 1
            # rounds the same way in every block when s is constant, and
            # those roundings would add up, so the carry applies it as
            # x + x (R - 1); for R far below 1 that sum would cancel, and
            # the product is kept.
            rm1 = np.expm1(log_r[:, -1])
            v = q + sums[:, -1]
            near = rm1 > -0.5
            p = np.where(near, p + p * rm1, p_next[:, -1])
            q = np.where(near, v + v * rm1, q_next[:, -1])
        tau_lbar = a_p[row] * l0 + a_q[row]
        ell = p[row] * l0 + q[row]
    bad = np.flatnonzero(~(np.isfinite(ell) & np.isfinite(tau_lbar)))
    if bad.size:
        first = bad[0]
        where = f" in state {first} of the batch" if eps.size > 1 else ""
        raise NumericalFailure(
            f"integration produced a non-finite state{where} "
            f"(l={float(ell[first])!r}, integral={float(tau_lbar[first])!r})"
        )
    if path:
        return tau_lbar, np.concatenate(ells, axis=1)
    return tau_lbar


def integrate_ell(
    state: InitialState,
    params: ModelParams,
    tau: float,
    n_steps: int,
) -> tuple[np.ndarray, float]:
    """RK4 integration of the consol rate and its running integral.

    Returns ``(path, tau_lbar)`` where ``path`` is an array of shape
    (n_steps + 1, 2) with columns (t, l(t)), and ``tau_lbar`` is A(tau),
    the integral of l over [0, tau].
    """
    tau_lbar, ells = _rk4(
        np.array([state.s0 - params.mu_hat]), np.array([state.l0]), params, tau, n_steps, path=True
    )
    path = np.empty((n_steps + 1, 2))
    path[:, 0] = np.arange(n_steps + 1) * (tau / n_steps)
    path[:, 1] = ells[0]
    return path, float(tau_lbar[0])


def abar_closed_s0_equals_muhat(params: ModelParams, l0: float, tau: float) -> float:
    """Closed form of lbar for a spread starting exactly at equilibrium.

    With s identically mu_hat the consol dynamics are linear with constant
    coefficients, giving

        lbar = (l0 mu_hat - sigma2)(1 - exp(-mu_hat tau)) / (mu_hat^2 tau)
               + sigma2 / mu_hat.
    """
    tau = _require_maturity(tau)
    mh = params.mu_hat
    return (l0 * mh - params.sigma2) * (-math.expm1(-mh * tau)) / (mh * mh * tau) + params.sigma2 / mh


# phi1(x) = (1 - exp(-x)) / x and phi2(x) = ((1 - exp(-x)) - x) / x^2 along
# with their derivatives; series branches keep full precision through the
# cancellation region near x = 0.
_SERIES_CUTOFF = 1e-4


def _phi1(x: float) -> float:
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def _phi2(x: float) -> float:
    if abs(x) < _SERIES_CUTOFF:
        return -0.5 + x * (1.0 / 6.0 + x * (-1.0 / 24.0 + x * (1.0 / 120.0 - x / 720.0)))
    return (-math.expm1(-x) - x) / (x * x)


def _phi1_prime(x: float) -> float:
    if abs(x) < _SERIES_CUTOFF:
        return -0.5 + x * (1.0 / 3.0 + x * (-1.0 / 8.0 + x * (1.0 / 30.0 - x / 144.0)))
    e = math.exp(-x)
    return (x * e + math.expm1(-x)) / (x * x)


def _phi2_prime(x: float) -> float:
    if abs(x) < _SERIES_CUTOFF:
        return 1.0 / 6.0 + x * (-1.0 / 12.0 + x * (1.0 / 40.0 + x * (-1.0 / 180.0 + x / 1008.0)))
    e1 = -math.expm1(-x)  # 1 - exp(-x)
    return (-e1 * x - 2.0 * e1 + 2.0 * x) / (x * x * x)


def residual_cleared(s_hat: float, tau_lbar: float, l0: float, sigma2: float, tau: float) -> float:
    """Residual of the cleared defining equation at a candidate root."""
    one_minus_exp = -math.expm1(-s_hat * tau)
    return tau_lbar * s_hat * s_hat - (l0 * s_hat - sigma2) * one_minus_exp - sigma2 * s_hat * tau


def solve_shat_numeric(
    tau_lbar: float,
    l0: float,
    params: ModelParams,
    tau: float,
    eps_hint: float = 0.0,
    n_steps: int = 0,
) -> OracleResult:
    """Root of the defining equation near mu_hat, by safeguarded Newton.

    The initial bracket is centered on mu_hat with half-width
    ``10 (|eps_hint| + sigma2 tau + 0.01)`` (the root moves away from mu_hat
    at order eps) and is widened by doubling up to five times if it does not
    straddle a sign change; after that a BracketingError is raised.  Newton
    steps that leave the current bracket, or that fail to halve it, fall back
    to bisection silently.

    ``eps_hint`` sizes the bracket only; ``n_steps`` is carried into the
    result as a record of the integrator resolution that produced
    ``tau_lbar`` (zero when unknown).
    """
    tau = _require_maturity(tau)
    if not math.isfinite(tau_lbar):
        raise ValueError(f"tau_lbar must be finite, got {tau_lbar!r}")
    sigma2 = params.sigma2
    mh = params.mu_hat

    def q(s):
        x = s * tau
        return tau_lbar - l0 * tau * _phi1(x) + sigma2 * tau * tau * _phi2(x)

    def q_prime(s):
        x = s * tau
        return tau * tau * (-l0 * _phi1_prime(x) + sigma2 * tau * _phi2_prime(x))

    half_width = 10.0 * (abs(eps_hint) + sigma2 * tau + 0.01)
    lo = mh - half_width
    hi = mh + half_width
    f_lo = q(lo)
    f_hi = q(hi)
    widenings = 0
    while f_lo * f_hi > 0.0:
        if widenings >= _MAX_BRACKET_WIDENINGS:
            raise BracketingError(
                f"no sign change in [{lo!r}, {hi!r}] after {widenings} widenings"
            )
        half_width *= 2.0
        lo = mh - half_width
        hi = mh + half_width
        f_lo = q(lo)
        f_hi = q(hi)
        widenings += 1
    bracket_lo, bracket_hi = lo, hi

    # Safeguarded Newton: orient so q(xl) < 0 < q(xh), keep the iterate
    # inside [xl, xh], bisect whenever the Newton step escapes or stalls.
    if f_lo < 0.0:
        xl, xh = lo, hi
    else:
        xl, xh = hi, lo
    x = 0.5 * (lo + hi)
    dx_old = abs(hi - lo)
    dx = dx_old
    f = q(x)
    df = q_prime(x)
    for _ in range(_MAX_NEWTON_ITERATIONS):
        if ((x - xh) * df - f) * ((x - xl) * df - f) > 0.0 or abs(2.0 * f) > abs(dx_old * df):
            dx_old = dx
            dx = 0.5 * (xh - xl)
            x = xl + dx
            if x == xl:
                break
        else:
            dx_old = dx
            dx = f / df
            previous = x
            x -= dx
            if previous == x:
                break
        if abs(dx) < 1e-15 * max(1.0, abs(x)):
            break
        f = q(x)
        df = q_prime(x)
        if f == 0.0:
            break
        if f < 0.0:
            xl = x
        else:
            xh = x

    residual = abs(residual_cleared(x, tau_lbar, l0, sigma2, tau))
    if not math.isfinite(residual) or residual > TOL_ROOT:
        raise NumericalFailure(
            f"root refinement stalled: residual {residual!r} exceeds {TOL_ROOT!r}"
        )
    return OracleResult(
        tau_lbar=tau_lbar,
        s_hat=x,
        steps=n_steps,
        residual=residual,
        bracket_lo=bracket_lo,
        bracket_hi=bracket_hi,
    )


def compute_oracle(
    state: InitialState,
    params: ModelParams,
    tau: float,
    n_steps: int | None = None,
) -> OracleResult:
    """Full pipeline: integrate the system, then solve for the constant."""
    return compute_oracles([state], params, tau, n_steps)[0]


def compute_oracles(
    states: Sequence[InitialState],
    params: ModelParams,
    tau: float,
    n_steps: int | None = None,
) -> list[OracleResult]:
    """``compute_oracle`` for many states at one maturity, integrated as a batch.

    One scan integrates each distinct ``s0`` of the batch once; each result
    is bitwise equal to ``compute_oracle`` of that state.  Raises
    NumericalFailure if any state's integration blows up.
    """
    steps = default_n_steps(tau) if n_steps is None else n_steps
    eps = [state.s0 - params.mu_hat for state in states]
    l0 = [state.l0 for state in states]
    tau_lbar = _rk4(np.array(eps, dtype=float), np.array(l0, dtype=float), params, tau, steps)
    return [
        solve_shat_numeric(tl, state.l0, params, tau, eps_hint=e, n_steps=steps)
        for state, e, tl in zip(states, eps, tau_lbar.tolist())
    ]
