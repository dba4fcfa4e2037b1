"""Independent numerical ground truth for the expansion machinery.

Integrates the deterministic system

    dl/dt = sigma2 - s(t) l,   s(t) = mu_hat + eps exp(-m t),   l(0) = l0,

together with the running integral A(t) = integral_0^t l, by classical
fixed-step fourth-order Runge-Kutta (the system is smooth and non-stiff at
the parameter scales of interest, so adaptivity would buy nothing).  Each
RK4 step of this linear system is an affine map of (l, A), so the steps run
as a prefix scan over fixed blocks of steps, once per distinct initial
spread of a batch, with no Python loop over single steps (``_rk4``).
Maturities integrated with the same step size share one scan, read at each
maturity's last step.  The oracle then solves the defining equation for the
effective spread constant by a safeguarded Newton iteration with bisection
fallback, vectorised over every (state, maturity) pair of a batch
(``_solve_roots``).

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
from typing import NamedTuple

import numpy as np

from .errors import BracketingError, NumericalFailure
from .params import InitialState, ModelParams, _require_consol_rate, _require_finite, _require_maturity

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
    """Numerically computed integral term and root, with solver diagnostics.

    ``iterations`` counts the passes of the safeguarded Newton loop,
    ``bisections`` those of them that fell back to bisection, and
    ``widenings`` the doublings of the initial bracket.
    """

    tau_lbar: float
    s_hat: float
    steps: int
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    bisections: int
    widenings: int


def default_n_steps(tau: float) -> int:
    """Default integrator resolution: at least 1000 steps, 1000 per year."""
    return max(1000, math.ceil(1000 * _require_maturity(tau)))


def _require_steps(n_steps: int) -> None:
    if n_steps < 16:
        raise ValueError(f"n_steps must be >= 16, got {n_steps}")


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


def _rk4(eps: np.ndarray, l0: np.ndarray, params: ModelParams, h: float, ends: Sequence[int], path: bool = False):
    """Classical RK4 for l and its running integral A with step ``h``, as an affine scan.

    ``eps = s0 - mu_hat`` and ``l0`` are 1-D float64 arrays, one entry per
    state of a batch.  ``ends`` are step counts in ascending order; the scan
    runs to the last of them and reads every state after each end's steps.

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
    reads a_p l0 + a_q at an end.  An end inside a block reads the block's
    first k steps exactly as a scan that stopped there would (sums over
    the first k columns, the carry formula at column k - 1), and prefix sums
    and RK4 are causal, so every row at every end is bitwise equal to the
    same state integrated alone to that end.  A step whose factor
    1 + alpha_i is not positive (only with steps far too long for the
    spread's decay) makes the state non-finite.

    Returns ``(tau_lbar, ell)``, A and l per end and state, shape
    (len(ends), states), and with ``path`` also l after every step to the
    last end, shape (states, ends[-1] + 1).  A state that blows up is left
    non-finite; ``_check_finite`` reports it.
    """
    mh = params.mu_hat
    m = params.m
    sigma2 = params.sigma2
    n_steps = ends[-1]
    eps_u, row = np.unique(eps, return_inverse=True)
    e = eps_u[:, None]
    p = np.ones(eps_u.size)
    q = np.zeros(eps_u.size)
    a_p = np.zeros(eps_u.size)
    a_q = np.zeros(eps_u.size)
    tau_lbar = np.empty((len(ends), eps.size))
    ell = np.empty((len(ends), eps.size))
    ells = [l0[:, None]]
    i_end = 0
    # A blown-up state overflows to inf/nan without warning; the caller's
    # finiteness check reports it.
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
            da_p = c * p_prev
            da_q = c * q_prev + d
            if path:
                ells.append(p_next[row] * l0[:, None] + q_next[row])

            def after(k):
                # a_p, a_q, p and q after the block's first k steps.  A block
                # factor R near 1 rounds the same way in every block when s is
                # constant, and those roundings would add up, so the carry
                # applies it as x + x (R - 1); for R far below 1 that sum
                # would cancel, and the product is kept.
                rm1 = np.expm1(log_r[:, k - 1])
                v = q + sums[:, k - 1]
                near = rm1 > -0.5
                return (
                    a_p + np.sum(da_p[:, :k], axis=1),
                    a_q + np.sum(da_q[:, :k], axis=1),
                    np.where(near, p + p * rm1, p_next[:, k - 1]),
                    np.where(near, v + v * rm1, q_next[:, k - 1]),
                )

            carried = after(t.size)
            while i_end < len(ends) and ends[i_end] <= start + t.size:
                k = ends[i_end] - start
                end_a_p, end_a_q, end_p, end_q = carried if k == t.size else after(k)
                tau_lbar[i_end] = end_a_p[row] * l0 + end_a_q[row]
                ell[i_end] = end_p[row] * l0 + end_q[row]
                i_end += 1
            a_p, a_q, p, q = carried
    if path:
        return tau_lbar, ell, np.concatenate(ells, axis=1)
    return tau_lbar, ell


def _check_finite(tau_lbar: np.ndarray, ell: np.ndarray) -> None:
    """Raise NumericalFailure, naming the first such state, if any state of a batch ended non-finite."""
    bad = np.flatnonzero(~(np.isfinite(ell) & np.isfinite(tau_lbar)))
    if bad.size:
        first = bad[0]
        where = f" in state {first} of the batch" if ell.size > 1 else ""
        raise NumericalFailure(
            f"integration produced a non-finite state{where} "
            f"(l={float(ell[first])!r}, integral={float(tau_lbar[first])!r})"
        )


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
    tau = _require_maturity(tau)
    _require_steps(n_steps)
    h = tau / n_steps
    tau_lbar, ell, ells = _rk4(
        np.array([state.s0 - params.mu_hat]), np.array([state.l0]), params, h, [n_steps], path=True
    )
    _check_finite(tau_lbar[0], ell[0])
    path = np.empty((n_steps + 1, 2))
    path[:, 0] = np.arange(n_steps + 1) * h
    path[:, 1] = ells[0]
    return path, float(tau_lbar[0, 0])


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


# Below this |x|, Taylor polynomials replace the closed forms of phi2 and of
# the derivatives, which cancel near x = 0.
_SERIES_CUTOFF = 1e-4


def _phi(x: np.ndarray):
    """phi1(x) = (1 - exp(-x)) / x, phi2(x) = ((1 - exp(-x)) - x) / x^2 and their derivatives.

    Elementwise over a 1-D array, as ``(phi1, phi2, phi1', phi2')``; series
    branches keep full precision through the cancellation region near
    x = 0.  Call under ``np.errstate(all="ignore")``: the closed forms are
    evaluated everywhere and give 0/0 at x = 0, where the series replace
    them.
    """
    em1 = np.expm1(-x)  # exp(-x) - 1
    x2 = x * x
    phi1 = -em1 / x
    phi2 = (-em1 - x) / x2
    phi1_prime = (x * np.exp(-x) + em1) / x2
    phi2_prime = (em1 * x + 2.0 * em1 + 2.0 * x) / (x2 * x)
    small = np.abs(x) < _SERIES_CUTOFF
    if small.any():
        y = x[small]
        phi1[small] = np.where(y == 0.0, 1.0, phi1[small])
        phi2[small] = -0.5 + y * (1.0 / 6.0 + y * (-1.0 / 24.0 + y * (1.0 / 120.0 - y / 720.0)))
        phi1_prime[small] = -0.5 + y * (1.0 / 3.0 + y * (-1.0 / 8.0 + y * (1.0 / 30.0 - y / 144.0)))
        phi2_prime[small] = 1.0 / 6.0 + y * (-1.0 / 12.0 + y * (1.0 / 40.0 + y * (-1.0 / 180.0 + y / 1008.0)))
    return phi1, phi2, phi1_prime, phi2_prime


def residual_cleared(s_hat, tau_lbar, l0, sigma2, tau):
    """Residual of the cleared defining equation at candidate roots, elementwise."""
    one_minus_exp = -np.expm1(-s_hat * tau)
    return tau_lbar * s_hat * s_hat - (l0 * s_hat - sigma2) * one_minus_exp - sigma2 * s_hat * tau


class _Roots(NamedTuple):
    """Per-entry results of ``_solve_roots``, each an array shaped like its inputs."""

    s_hat: np.ndarray
    residual: np.ndarray
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray
    iterations: np.ndarray
    bisections: np.ndarray
    widenings: np.ndarray


def _deflated(s, tau_lbar, l0, sigma2: float, tau):
    """The deflated residual q(s) = g(s) / s^2 and its derivative, elementwise."""
    x = s * tau
    phi1, phi2, phi1_prime, phi2_prime = _phi(x)
    return (
        tau_lbar - l0 * tau * phi1 + sigma2 * tau * tau * phi2,
        tau * tau * (-l0 * phi1_prime + sigma2 * tau * phi2_prime),
    )


def _solve_roots(tau_lbar, l0, params: ModelParams, tau, eps_hint) -> _Roots:
    """Safeguarded Newton (``rtsafe``) for every entry of 1-D arrays at once.

    Entry i solves q(s) = 0 for ``tau_lbar[i]``, ``l0[i]`` and ``tau[i]``,
    with the bracket sized by ``eps_hint[i]`` as ``solve_shat_numeric``
    documents.  Every step is elementwise, so each entry's root, bracket
    and counters are bitwise those of the entry solved alone.  Raises
    BracketingError or NumericalFailure for the first entry, in index
    order, that has no bracket or whose residual exceeds TOL_ROOT.
    """
    sigma2 = params.sigma2
    mh = params.mu_hat
    size = tau_lbar.size
    iterations = np.zeros(size, dtype=int)
    bisections = np.zeros(size, dtype=int)
    widenings = np.zeros(size, dtype=int)
    s_hat = np.full(size, math.nan)
    with np.errstate(all="ignore"):
        half_width = 10.0 * (np.abs(eps_hint) + sigma2 * tau + 0.01)
        lo = mh - half_width
        hi = mh + half_width
        f_lo = _deflated(lo, tau_lbar, l0, sigma2, tau)[0]
        f_hi = _deflated(hi, tau_lbar, l0, sigma2, tau)[0]
        # Widen by doubling, per entry, while there is no sign change.
        wide = np.flatnonzero(f_lo * f_hi > 0.0)
        for _ in range(_MAX_BRACKET_WIDENINGS):
            if not wide.size:
                break
            half_width[wide] *= 2.0
            lo[wide] = mh - half_width[wide]
            hi[wide] = mh + half_width[wide]
            f_lo[wide] = _deflated(lo[wide], tau_lbar[wide], l0[wide], sigma2, tau[wide])[0]
            f_hi[wide] = _deflated(hi[wide], tau_lbar[wide], l0[wide], sigma2, tau[wide])[0]
            widenings[wide] += 1
            wide = wide[f_lo[wide] * f_hi[wide] > 0.0]
        bracketed = np.ones(size, dtype=bool)
        bracketed[wide] = False

        # Safeguarded Newton: orient so q(xl) < 0 < q(xh), keep the iterate
        # inside [xl, xh], bisect whenever the Newton step escapes or stalls.
        # ``live`` holds the entries still iterating, and every per-entry
        # array below is compressed to them.
        live = np.flatnonzero(bracketed)
        tl, l, t = tau_lbar[live], l0[live], tau[live]
        up = f_lo[live] < 0.0
        xl = np.where(up, lo[live], hi[live])
        xh = np.where(up, hi[live], lo[live])
        x = 0.5 * (lo[live] + hi[live])
        dx_old = np.abs(hi[live] - lo[live])
        dx = dx_old
        f, df = _deflated(x, tl, l, sigma2, t)
        for _ in range(_MAX_NEWTON_ITERATIONS):
            if not live.size:
                break
            iterations[live] += 1
            bisect = (((x - xh) * df - f) * ((x - xl) * df - f) > 0.0) | (np.abs(2.0 * f) > np.abs(dx_old * df))
            bisections[live] += bisect
            dx_old = dx
            dx = np.where(bisect, 0.5 * (xh - xl), f / df)
            stepped = np.where(bisect, xl + dx, x - dx)
            done = np.where(bisect, stepped == xl, stepped == x)
            x = stepped
            done |= np.abs(dx) < 1e-15 * np.maximum(1.0, np.abs(x))
            s_hat[live] = x
            if done.any():
                go = ~done
                live, x, xl, xh, dx, dx_old, tl, l, t = (a[go] for a in (live, x, xl, xh, dx, dx_old, tl, l, t))
            f, df = _deflated(x, tl, l, sigma2, t)
            xl = np.where(f < 0.0, x, xl)
            xh = np.where(f > 0.0, x, xh)
            root = f == 0.0
            if root.any():
                go = ~root
                live, x, xl, xh, dx, dx_old, tl, l, t, f, df = (
                    a[go] for a in (live, x, xl, xh, dx, dx_old, tl, l, t, f, df)
                )
        residual = np.abs(residual_cleared(s_hat, tau_lbar, l0, sigma2, tau))
    failed = np.flatnonzero(~bracketed | ~(residual <= TOL_ROOT))
    if failed.size:
        i = failed[0]
        if not bracketed[i]:
            raise BracketingError(
                f"no sign change in [{float(lo[i])!r}, {float(hi[i])!r}] after {int(widenings[i])} widenings"
            )
        raise NumericalFailure(f"root refinement stalled: residual {float(residual[i])!r} exceeds {TOL_ROOT!r}")
    return _Roots(s_hat, residual, lo, hi, iterations, bisections, widenings)


def _results(tau_lbar: np.ndarray, roots: _Roots, steps: int) -> list[OracleResult]:
    """One OracleResult per entry of 1-D ``tau_lbar`` and ``roots``."""
    return [
        OracleResult(tl, s, steps, res, lo, hi, its, bis, wid)
        for tl, s, res, lo, hi, its, bis, wid in zip(tau_lbar.tolist(), *(a.tolist() for a in roots))
    ]


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
    ``tau_lbar`` (zero when unknown).  A batch of one of the solve that
    ``compute_oracles`` runs.
    """
    tau = _require_maturity(tau)
    tau_lbar = _require_finite(tau_lbar, "tau_lbar")
    l0 = _require_consol_rate(l0)
    eps_hint = _require_finite(eps_hint, "eps_hint")
    tl = np.array([tau_lbar])
    roots = _solve_roots(tl, np.array([l0]), params, np.array([tau]), np.array([eps_hint]))
    return _results(tl, roots, n_steps)[0]


def _oracle_grid(eps: np.ndarray, l0: np.ndarray, params: ModelParams, taus: Sequence[float], n_steps: int | None = None):
    """The oracle for every state at every maturity, as one batch.

    ``eps`` and ``l0`` are 1-D arrays, one entry per state.  Maturities
    whose step sizes ``tau / steps`` are bitwise equal share one scan, so
    the default 1000 steps per year integrates a grid of whole years once,
    to its longest maturity.  All roots then come from one vectorised solve.

    Returns ``(tau_lbar, roots, steps)``: A(tau) and the ``_Roots`` arrays
    with shape (maturities, states), and the step count per maturity.  Each
    entry is bitwise equal to ``compute_oracle`` of that state at that
    maturity, and a failure is raised as the per-maturity batches would
    raise it, taken in maturity order: a maturity's integration failure
    first, then its first failed root.
    """
    taus = [_require_maturity(tau) for tau in taus]
    if n_steps is not None:
        _require_steps(n_steps)
    steps = [default_n_steps(tau) if n_steps is None else n_steps for tau in taus]
    groups: dict[float, list[int]] = {}
    for i, (tau, n) in enumerate(zip(taus, steps)):
        groups.setdefault(tau / n, []).append(i)
    tau_lbar = np.empty((len(taus), eps.size))
    ell = np.empty((len(taus), eps.size))
    for h, members in groups.items():
        ends = sorted({steps[i] for i in members})
        group_tau_lbar, group_ell = _rk4(eps, l0, params, h, ends)
        for i in members:
            j = ends.index(steps[i])
            tau_lbar[i], ell[i] = group_tau_lbar[j], group_ell[j]
    finite = (np.isfinite(tau_lbar) & np.isfinite(ell)).all(axis=1)
    solved = len(taus) if finite.all() else int(np.argmin(finite))
    roots = _solve_roots(
        tau_lbar[:solved].ravel(),
        np.tile(l0, solved),
        params,
        np.repeat(taus[:solved], eps.size),
        np.tile(eps, solved),
    )
    if solved < len(taus):
        _check_finite(tau_lbar[solved], ell[solved])
    return tau_lbar, _Roots(*(a.reshape(solved, eps.size) for a in roots)), steps


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

    One scan integrates each distinct ``s0`` of the batch once, and one
    vectorised solve finds every root; each result is bitwise equal to
    ``compute_oracle`` of that state.  Raises NumericalFailure if any
    state's integration blows up.
    """
    eps = np.array([state.s0 - params.mu_hat for state in states], dtype=float)
    l0 = np.array([state.l0 for state in states], dtype=float)
    tau_lbar, roots, steps = _oracle_grid(eps, l0, params, [tau], n_steps)
    return _results(tau_lbar[0], _Roots(*(a[0] for a in roots)), steps[0])
