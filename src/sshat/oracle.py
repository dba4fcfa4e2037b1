"""Independent numerical ground truth for the expansion machinery.

Integrates the deterministic system

    dl/dt = sigma2 - s(t) l,   s(t) = mu_hat + eps exp(-m t),   l(0) = l0,

together with the running integral A(t) = integral_0^t l, by classical
fixed-step fourth-order Runge-Kutta (the system is smooth and non-stiff at
the parameter scales of interest, so adaptivity would buy nothing), and
solves the defining equation for the effective spread constant by a
safeguarded Newton iteration with bisection fallback.

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
from .params import InitialState, ModelParams

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
    return max(1000, math.ceil(1000 * tau))


def _rk4(eps, ell, params: ModelParams, tau: float, n_steps: int, path: list | None = None):
    """Classical RK4 for l and its running integral A over [0, tau].

    ``eps = s0 - mu_hat`` and ``ell = l0`` are floats for one state, or 1-D
    float64 arrays for a batch of states that share ``tau`` and ``n_steps``.
    The loop applies only ``+``, ``-`` and ``*`` to the state, with the decay
    factor ``math.exp(-m t)`` a scalar shared by the batch, so each row of a
    batch is bitwise equal to the same state integrated as a float.  When
    ``path`` is a list, l after every step is appended to it (floats only).

    Returns A(tau); raises NumericalFailure if any state ends non-finite.
    """
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
    if n_steps < 16:
        raise ValueError(f"n_steps must be >= 16, got {n_steps}")
    mh = params.mu_hat
    m = params.m
    sigma2 = params.sigma2
    h = tau / n_steps
    half = 0.5 * h
    sixth = h / 6.0
    acc = 0.0
    # A blown-up batch row overflows to inf/nan without warning; the
    # finiteness check below reports it.  acc and ell are rebound, never
    # updated in place, so a caller's arrays are left as they were.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = i * h
            # Stage values: the running-integral component has derivative
            # l(t), so its stage slopes are the stage values of l itself.
            # Stages 2 and 3 share the spread at the midpoint.
            s_mid = mh + eps * math.exp(-m * (t + half))
            k1 = sigma2 - (mh + eps * math.exp(-m * t)) * ell
            s2 = ell + half * k1
            k2 = sigma2 - s_mid * s2
            s3 = ell + half * k2
            k3 = sigma2 - s_mid * s3
            s4 = ell + h * k3
            k4 = sigma2 - (mh + eps * math.exp(-m * (t + h))) * s4
            acc = acc + sixth * (ell + 2.0 * s2 + 2.0 * s3 + s4)
            ell = ell + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if path is not None:
                path.append(ell)
    bad = np.flatnonzero(~(np.isfinite(ell) & np.isfinite(acc)))
    if bad.size:
        first = bad[0]
        where = f" in state {first} of the batch" if np.ndim(ell) else ""
        raise NumericalFailure(
            f"integration produced a non-finite state{where} "
            f"(l={float(np.ravel(ell)[first])!r}, integral={float(np.ravel(acc)[first])!r})"
        )
    return acc


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
    ells = [state.l0]
    tau_lbar = _rk4(state.s0 - params.mu_hat, state.l0, params, tau, n_steps, ells)
    path = np.empty((n_steps + 1, 2))
    path[:, 0] = np.arange(n_steps + 1) * (tau / n_steps)
    path[:, 1] = ells
    return path, tau_lbar


def abar_closed_s0_equals_muhat(params: ModelParams, l0: float, tau: float) -> float:
    """Closed form of lbar for a spread starting exactly at equilibrium.

    With s identically mu_hat the consol dynamics are linear with constant
    coefficients, giving

        lbar = (l0 mu_hat - sigma2)(1 - exp(-mu_hat tau)) / (mu_hat^2 tau)
               + sigma2 / mu_hat.
    """
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
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
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
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
    steps = default_n_steps(tau) if n_steps is None else n_steps
    eps = state.s0 - params.mu_hat
    tau_lbar = _rk4(eps, state.l0, params, tau, steps)
    return solve_shat_numeric(tau_lbar, state.l0, params, tau, eps_hint=eps, n_steps=steps)


def compute_oracles(
    states: Sequence[InitialState],
    params: ModelParams,
    tau: float,
    n_steps: int | None = None,
) -> list[OracleResult]:
    """``compute_oracle`` for many states at one maturity, integrated as a batch.

    One RK4 loop runs over arrays of all states; each result is bitwise equal
    to ``compute_oracle`` of that state.  Raises NumericalFailure if any
    state's integration blows up.
    """
    steps = default_n_steps(tau) if n_steps is None else n_steps
    eps = [state.s0 - params.mu_hat for state in states]
    l0 = [state.l0 for state in states]
    tau_lbar = _rk4(np.array(eps, dtype=float), np.array(l0, dtype=float), params, tau, steps)
    return [
        solve_shat_numeric(tl, state.l0, params, tau, eps_hint=e, n_steps=steps)
        for state, e, tl in zip(states, eps, tau_lbar.tolist())
    ]
