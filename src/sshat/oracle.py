"""Independent numerical ground truth for the expansion machinery.

Integrates the deterministic system

    dl/dt = sigma2 - s(t) l,   s(t) = mu_hat + eps exp(-m t),   l(0) = l0,

together with the running integral A(t) = integral_0^t l, by classical
fixed-step fourth-order Runge-Kutta (the system is smooth and non-stiff at
the parameter scales of interest, so adaptivity would buy nothing).  Each
RK4 step of this linear system is an affine map of (l, A), so the steps run
as a prefix scan over fixed blocks of steps, once per distinct initial
spread of a batch (``_rk4``).  Each pass of the scan computes the steps of
several blocks at once, and only the carry from block to block loops over
blocks; no Python loop runs over single steps.  Maturities integrated with
the same step size share one scan, read at each maturity's last step.  The
oracle then solves the defining equation for the effective spread constant
by a safeguarded Newton iteration with bisection fallback, vectorised over
fixed chunks of a batch's (state, maturity) pairs (``_solve_roots``).

The cleared form of the defining equation,

    g(s) = (tau*lbar) s^2 - (l0 s - sigma2)(1 - exp(-s tau)) - sigma2 s tau,

has a spurious double root at s = 0 introduced by clearing denominators.
The iteration therefore runs on the deflated residual q(s) = g(s) / s^2,
which is exactly the residual of the original (uncleared) equation scaled by
tau, is regular and strictly monotone in s for l0 > 0, and has the single
root of interest.  The reported residual is |g| at the returned root, per
the result contract; a root is accepted when that is within the rounding
floor of g (``_ROOT_ROUNDING``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BracketingError, NumericalFailure
from .params import InitialState, ModelParams, _require_consol_rate, _require_finite, _require_index, _require_maturity
from .perturbation import _GAUSS_NODES, _GAUSS_WEIGHTS

__all__ = [
    "OracleResult",
    "default_n_steps",
    "integrate_ell",
    "abar_closed_s0_equals_muhat",
    "solve_shat_numeric",
    "compute_oracle",
    "compute_oracles",
]

# A root is accepted when its residual is within the rounding floor of g,
# _ROOT_ROUNDING (1 + |s tau|) u S, with S the sum of the magnitudes of g's
# three terms and u the unit roundoff: a backward-error test that judges |g|
# against the rounding of its own terms, where an absolute bound would pass
# any s at tiny tau.  Rounding s tau perturbs exp(-s tau) by up to |s tau| u,
# so g is evaluated to within about (|s tau| + 6) u S; and the double nearest
# the root is within u |s| of it, where |s g'(s)| <= (|s tau| + 2) S, which
# adds (|s tau| + 2) u S.  A correctly rounded root thus has
# |g| <= (2 |s tau| + 8) u S, inside the floor.
_ROOT_ROUNDING = 8.0

_MAX_BRACKET_WIDENINGS = 5
_MAX_NEWTON_ITERATIONS = 200


@dataclass(frozen=True)
class OracleResult:
    """Numerically computed integral term and root, with solver diagnostics.

    ``steps`` is the RK4 step count that produced ``tau_lbar``, or 0 when
    it is unknown (``solve_shat_numeric``).  ``iterations`` counts the
    passes of the safeguarded Newton loop, ``bisections`` those of them
    that fell back to bisection, and ``widenings`` the doublings of the
    initial bracket.
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


# The most RK4 steps one maturity may take: about 1.5 s of scan for one s0
# on a 2-vCPU x86_64 VM, in memory that does not grow with the count.
_MAX_STEPS = 10**7


def _n_steps(tau: float, n_steps: int | None) -> int:
    """The RK4 step count for maturity ``tau``: ``n_steps``, or the default where it is None.

    Raises ValueError unless ``tau`` is a maturity and the count an integer
    in [16, _MAX_STEPS]; the default exceeds that past tau = 10^4, and where
    1000 tau overflows.
    """
    tau = _require_maturity(tau)
    if n_steps is None:
        n_steps = max(1000.0, 1000 * tau)
        # Bounded as a float, before ceil, which overflows where 1000 tau is inf.
        if n_steps <= _MAX_STEPS:
            n_steps = math.ceil(n_steps)
    _require_index(n_steps, "n_steps", 16, _MAX_STEPS)
    return n_steps


def default_n_steps(tau: float) -> int:
    """Default integrator resolution: at least 1000 steps, 1000 per year.

    Raises ValueError where that is more than the integrator takes, as for
    an explicit step count (past tau = 10^4, and where 1000 tau overflows).
    """
    return _n_steps(tau, None)


# RK4 steps per block of the scan.  Blocks are laid out from step 0 and the
# prefix sums restart in each one, so no result depends on the batch size or
# on how many blocks a pass holds.
_BLOCK = 256
# Elements, (distinct eps) x (steps), of one pass of the scan: a pass takes as
# many whole blocks as fit, and at least one.  Below 32 distinct eps each of
# a pass's per-step arrays stays at 64 kB, at any maturity.
_PASS_ELEMENTS = 8192
# Distinct eps per scan.  A pass holds at least one block, 8 x _BLOCK doubles
# per eps, so groups keep the work array at 4 MB for any number of distinct s0.
# Each scan loops over the blocks in Python: groups of 32 made 1000 distinct
# eps at 1000 steps take about 30% longer.
_GROUP = 256
# Rows of the work array that holds a pass's per-step arrays: the four step
# coefficients and four of scratch.  _rk4 reuses it in every pass, since
# allocating a pass's arrays anew each time costs page faults on the order
# of its arithmetic.
_WORK_ROWS = 8
# Entries per chunk of the root solve.  Each of _phi's (4, 16, entries)
# tables is 4 MB at this size; one batch of 10^6 entries peaked near 1 GB.
# Chunks of 1024 were slower than one batch.
_ROOT_CHUNK = 8192


def _step_coefficients(e: np.ndarray, t: np.ndarray, h: float, params: ModelParams, work: np.ndarray):
    """RK4 coefficients ``(alpha, c, b, d)`` of the steps from the times ``t``, for each eps of ``e``.

    Step j maps l' = (1 + alpha) l + b and A' = A + c l + d.  alpha and c
    are the RK4 stages at l = 1, sigma2 = 0, and b and d those at l = 0 per
    unit sigma2, written out for these inputs: w is h/2 times the spread at
    the start (a), middle (m) and end (b) of the step, y the stage values
    of l and g the stage slopes.  They are computed in place in rows 0-3 of
    ``work``; rows 4-7 are scratch.
    """
    alpha, c, b, d, w_a, w_m, w_b, x = work
    half = 0.5 * h
    for w, s in ((w_a, t), (w_m, t + half), (w_b, t + h)):
        np.multiply(e, half * np.exp(-params.m * s), out=w)
        w += half * params.mu_hat
    # l = 0: g2 = 1 - w_m in d, g3 = 1 - w_m g2 in b, g4 = 1 - 2 w_b g3 in x.
    np.subtract(1.0, w_m, out=d)
    np.multiply(w_m, d, out=b)
    np.subtract(1.0, b, out=b)
    np.multiply(w_b, b, out=x)
    x *= -2.0
    x += 1.0
    # b = (sigma2 h / 6) ((1 + g4) + 2 (g2 + g3)), d = (sigma2 h^2 / 6) (1 + (g2 + g3)).
    d += b
    x += 1.0
    np.add(d, d, out=b)
    b += x
    b *= params.sigma2 * h / 6.0
    d += 1.0
    d *= params.sigma2 * h * h / 6.0
    # l = 1: y2 = 1 - w_a in c, y3 = 1 - w_m y2 in x, y4 = 1 - 2 w_m y3 in alpha.
    np.subtract(1.0, w_a, out=c)
    np.multiply(w_m, c, out=x)
    np.subtract(1.0, x, out=x)
    np.multiply(w_m, x, out=alpha)
    alpha *= -2.0
    alpha += 1.0
    # c = (h / 6) ((1 + y4) + 2 (y2 + y3)), alpha = (w_a + 2 w_m (y2 + y3) + w_b y4) / -3.
    c += x
    w_b *= alpha
    np.multiply(w_m, c, out=w_m)
    w_m *= 2.0
    alpha += 1.0
    c += c
    c += alpha
    c *= h / 6.0
    np.add(w_a, w_m, out=alpha)
    alpha += w_b
    alpha /= -3.0
    return alpha, c, b, d


def _advance(state, log_r, r, sums, big_c, big_d):
    """``(a_p, a_q, p, q)`` after the first k steps of a block, from ``state`` before it.

    The other arguments are the columns log R, R, S, C and D at the block's
    column k - 1, elementwise against ``state``.  A block factor R near 1
    rounds the same way in every block when s is constant, and those
    roundings would add up, so p and q take it as x + x (R - 1); for R far
    below 1 that sum would cancel, and the product is kept.
    """
    a_p, a_q, p, q = state
    rm1 = np.expm1(log_r)
    near = rm1 > -0.5
    v = q + sums
    # q is 0 before the first step, where 0 * inf would turn a blown-up A into NaN.
    qc = np.where(q != 0.0, q * big_c, 0.0)
    return (
        a_p + p * big_c,
        a_q + (qc + big_d),
        np.where(near, p + p * rm1, p * r),
        np.where(near, v + v * rm1, r * v),
    )


def _scan_pass(state, eps: np.ndarray, params: ModelParams, h: float, first: int, reads: np.ndarray, work: np.ndarray):
    """Carry ``state`` through the blocks of one pass of ``_rk4``'s scan, from block ``first`` on.

    ``eps`` holds the distinct eps and ``state`` is ``(a_p, a_q, p, q)``
    per eps.  ``work`` has shape (_WORK_ROWS, blocks, eps, _BLOCK).
    ``reads`` are ascending step counts within the pass, from 1 to
    ``blocks * _BLOCK``.  Returns the state after the pass and, if there
    are reads, ``(a_p, a_q, p, q)`` after each of them, shape (reads, eps).

    The pass builds five columns per block, each one prefix sum along the
    steps: log R, R, S, C and D.  Every state comes from ``_advance`` on
    them: a block's carry from its start and its last column, and a read at
    step k of block j from the start of block j and its column k - 1.
    """
    blocks = work.shape[1]
    t = (np.arange(first * _BLOCK, (first + blocks) * _BLOCK) * h).reshape(blocks, 1, _BLOCK)
    alpha, c, b, d = _step_coefficients(eps[:, None], t, h, params, work)
    log_r, r = work[4:6]
    np.log1p(alpha, out=log_r)
    np.cumsum(log_r, axis=2, out=log_r)
    np.exp(log_r, out=r)
    # S over b_j / R_(j+1), in place over b.
    b /= r
    np.cumsum(b, axis=2, out=b)
    # c_j R_j and c_j R_j S_j + d_j, with R and S before each step (1 and 0
    # before the first), then C and D over them in place.
    c[..., 1:] *= r[..., :-1]
    np.multiply(c[..., 1:], b[..., :-1], out=alpha[..., 1:])
    d[..., 1:] += alpha[..., 1:]
    np.cumsum(c, axis=2, out=c)
    np.cumsum(d, axis=2, out=d)
    columns = (log_r, r, b, c, d)
    starts = []
    for j in range(blocks):
        starts.append(state)
        state = _advance(state, *(y[j, :, -1] for y in columns))
    if not reads.size:
        return state, None
    j, k = np.divmod(reads - 1, _BLOCK)
    return state, _advance(np.array(starts)[j].transpose(1, 0, 2), *(y[j, :, k] for y in columns))


def _rk4(eps: np.ndarray, l0: np.ndarray, params: ModelParams, h: float, ends: Sequence[int]):
    """Classical RK4 for l and its running integral A with step ``h``, as an affine scan.

    ``eps = s0 - mu_hat`` and ``l0`` are 1-D float64 arrays, one entry per
    state of a batch.  ``ends`` are step counts in any order, repeats
    included; the scan runs to the largest of them and reads every state
    once after each distinct end's steps.

    RK4 on dl/dt = sigma2 - s(t) l is affine in the state: step j maps
    l_{j+1} = (1 + alpha_j) l_j + b_j and A_{j+1} = A_j + c_j l_j + d_j
    (``_step_coefficients``).  Within a block, l_k = R_k (l_start + S_k)
    with R_k the product of the first k factors 1 + alpha_j and S_k the sum
    of b_j / R_{j+1} over j < k.  R_k is exp of a prefix sum of
    log1p(alpha_j): a running product of 1 + alpha_j would round each
    factor, which costs about n u / 2 over n steps.  The prefix sums restart
    in each block, so the exponentials stay in range even where the product
    over the whole interval underflows.  Each is one plain running sum of at
    most _BLOCK terms, whose rounding stays far inside the budget of the
    carry (Higham, SIAM J. Sci. Comput. 14, 1993).

    l and A are affine in l0, so each distinct eps is integrated once, with
    l = p l0 + q and A = a_p l0 + a_q carried from block to block; a state
    reads a_p l0 + a_q at an end.  Over the first k steps of a block, p and
    q become p R_k and R_k (q + S_k), a_p gains p C_k and a_q gains
    q C_k + D_k, with C_k and D_k the prefix sums of c_j R_j and
    c_j R_j S_j + d_j (``_advance``).

    Groups of at most ``_GROUP`` distinct eps get one scan each.  Each pass
    of a scan (``_scan_pass``) computes these per-step arrays for as many
    whole blocks as ``_PASS_ELEMENTS`` holds, the last block running past
    the last end, in one work array that every pass reuses; only the carry
    loops over the pass's blocks.  Every operation is elementwise over eps
    or runs along the steps, and an end at step k of a block reads its
    column k - 1 as a carry reads the last (``_scan_pass``), so prefix sums
    and RK4 being causal, every row at every end is bitwise equal to the
    same state integrated alone to that end.  A step whose factor
    1 + alpha_j is not positive (only with steps far too long for the
    spread's decay) makes the state non-finite.

    Returns ``(tau_lbar, ell)``, A and l per end and state, shape
    (len(ends), states), row i for ``ends[i]``; nothing is kept per step
    beyond the current pass.
    A state that blows up is left non-finite; ``_check_finite`` reports it.
    """
    ends, at = np.unique(ends, return_inverse=True)
    eps_u, row = np.unique(eps, return_inverse=True)
    n_blocks = -(-int(ends[-1]) // _BLOCK)
    # Room for any group's passes: _PASS_ELEMENTS, or one block of a full group.
    work = np.empty((_WORK_ROWS, max(_PASS_ELEMENTS, min(eps_u.size, _GROUP) * _BLOCK)))
    # (a_p, a_q, p, q) after each end, per distinct eps.
    reads = np.empty((4, len(ends), eps_u.size))
    # A blown-up state overflows to inf/nan without warning; the caller's
    # finiteness check reports it.
    with np.errstate(all="ignore"):
        for g in range(0, eps_u.size, _GROUP):
            group = eps_u[g : g + _GROUP]
            size = group.size
            per_pass = min(n_blocks, max(1, _PASS_ELEMENTS // (size * _BLOCK)))
            state = (np.zeros(size), np.zeros(size), np.ones(size), np.zeros(size))
            i_end = 0
            for first in range(0, n_blocks, per_pass):
                blocks = min(per_pass, n_blocks - first)
                stop = int(np.searchsorted(ends, (first + blocks) * _BLOCK, side="right"))
                pass_work = work[:, : blocks * size * _BLOCK].reshape(_WORK_ROWS, blocks, size, _BLOCK)
                state, read = _scan_pass(state, group, params, h, first, ends[i_end:stop] - first * _BLOCK, pass_work)
                if read is not None:
                    reads[:, i_end:stop, g : g + size] = read
                    i_end = stop
        a_p, a_q, p, q = reads[:, at]
        return a_p[:, row] * l0 + a_q[:, row], p[:, row] * l0 + q[:, row]


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
    n_steps: int | None,
    samples: int,
) -> tuple[np.ndarray, float]:
    """RK4 integration of the consol rate and its running integral.

    Returns ``(path, tau_lbar)`` where ``path`` is an array of shape
    (samples, 2) with columns (t, l(t)) at ``samples`` evenly spaced steps
    from 0 to the last, and ``tau_lbar`` is A(tau), the integral of l over
    [0, tau].  Each row after the first is read from the scan at its step,
    as ``compute_oracle`` reads the last.  ``n_steps`` None takes
    ``default_n_steps(tau)``, as in ``compute_oracle``.  ``samples`` is an
    integer in [2, _MAX_STEPS + 1].  So that every sample lands on a step,
    the count is rounded up to a multiple of ``samples - 1``, or down where
    rounding up would pass _MAX_STEPS.
    """
    tau = _require_maturity(tau)
    n_steps = _n_steps(tau, n_steps)
    _require_index(samples, "samples", 2, _MAX_STEPS + 1)
    per_cell = min(-(-n_steps // (samples - 1)), _MAX_STEPS // (samples - 1))
    n_steps = per_cell * (samples - 1)
    h = tau / n_steps
    ends = range(0, n_steps + 1, per_cell)
    tau_lbar, ell = _rk4(np.array([state.s0 - params.mu_hat]), np.array([state.l0]), params, h, ends[1:])
    _check_finite(tau_lbar[-1], ell[-1])
    path = np.empty((samples, 2))
    path[:, 0] = np.array(ends) * h
    path[0, 1] = state.l0
    path[1:, 1] = ell[:, 0]
    return path, float(tau_lbar[-1, 0])


def abar_closed_s0_equals_muhat(params: ModelParams, l0: float, tau: float) -> float:
    """lbar for a spread starting exactly at equilibrium.

    With s identically mu_hat the consol dynamics are linear with constant
    coefficients, giving, with ``x = mu_hat tau`` and ``_phi`` below,

        lbar = l0 phi1(x) - sigma2 tau phi2(x),

    which is ``l0 + sigma2 tau / 2`` at mu_hat = 0.
    """
    tau = _require_maturity(tau)
    l0 = _require_consol_rate(l0)
    with np.errstate(all="ignore"):
        phi1, phi2 = _phi(np.array([params.mu_hat * tau]))[:2, 0]
    return float(l0 * phi1 - params.sigma2 * tau * phi2)


# Below this |x| the closed forms of phi2, phi1' and phi2' cancel (phi2' by
# 3e-15 relative at 1 < |x| < 2, 1e-11 at |x| = 0.01); there the integrals
# below replace them, as 16-point Gauss-Legendre sums over [0, 1] of terms of
# one sign, within 6e-16 relative of the exact values up to |x| = 8.
_QUADRATURE_CUTOFF = 4.0
_U = 0.5 * (1.0 + _GAUSS_NODES)
# Rows: the weights of phi1, phi2, phi1' and phi2' against exp(-x u) at the nodes u.
_PHI_WEIGHTS = 0.5 * _GAUSS_WEIGHTS * np.array([np.ones_like(_U), _U - 1.0, -_U, _U * (1.0 - _U)])


def _phi(x: np.ndarray):
    """phi1(x) = (1 - exp(-x)) / x, phi2(x) = ((1 - exp(-x)) - x) / x^2 and their derivatives.

    Elementwise over a 1-D array, as ``(phi1, phi2, phi1', phi2')``.  Near
    x = 0 they are the integrals over u in [0, 1] of exp(-x u) times 1,
    u - 1, -u and u (1 - u); beyond ``_QUADRATURE_CUTOFF`` the closed forms.
    Call under ``np.errstate(all="ignore")``.
    """
    em1 = np.expm1(-x)  # exp(-x) - 1
    x2 = x * x
    closed = (-em1 / x, (-em1 - x) / x2, (x * np.exp(-x) + em1) / x2, (em1 * x + 2.0 * em1 + 2.0 * x) / (x2 * x))
    integrals = np.exp(-_U[:, None] * x) * _PHI_WEIGHTS[:, :, None]
    for _ in range(4):  # 16 terms summed pairwise, the same additions at any batch size
        integrals = integrals[:, ::2] + integrals[:, 1::2]
    return np.where(np.abs(x) < _QUADRATURE_CUTOFF, integrals[:, 0], closed)


def _cleared_terms(s_hat, tau_lbar, l0, sigma2, tau):
    """The terms T1, T2 and T3 of the cleared residual g = T1 - T2 - T3, elementwise."""
    return tau_lbar * s_hat * s_hat, (l0 * s_hat - sigma2) * -np.expm1(-s_hat * tau), sigma2 * s_hat * tau


def residual_cleared(s_hat, tau_lbar, l0, sigma2, tau):
    """Residual of the cleared defining equation at candidate roots, elementwise."""
    t1, t2, t3 = _cleared_terms(s_hat, tau_lbar, l0, sigma2, tau)
    return t1 - t2 - t3


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
    """Safeguarded Newton (``rtsafe``) for every entry of 1-D arrays, in chunks of ``_ROOT_CHUNK``.

    Entry i solves q(s) = 0 for ``tau_lbar[i]``, ``l0[i]`` and ``tau[i]``,
    with the bracket sized by ``eps_hint[i]`` as ``solve_shat_numeric``
    documents.  Every step is elementwise, so each entry's root, bracket
    and counters are bitwise those of the entry solved alone, in any chunk.
    The chunks run in index order, and each raises BracketingError or
    NumericalFailure for its first entry that has no bracket or whose
    residual exceeds the rounding floor of g (``_ROOT_ROUNDING``), so the
    first such entry of the batch is the one raised.
    """
    size = tau_lbar.size
    roots = _Roots(*(np.empty(size) for _ in range(4)), *(np.empty(size, dtype=int) for _ in range(3)))
    for start in range(0, size, _ROOT_CHUNK):
        part = slice(start, start + _ROOT_CHUNK)
        for whole, chunk in zip(roots, _solve_chunk(tau_lbar[part], l0[part], params, tau[part], eps_hint[part])):
            whole[part] = chunk
    return roots


def _solve_chunk(tau_lbar, l0, params: ModelParams, tau, eps_hint) -> _Roots:
    """``_solve_roots`` for every entry of one chunk at once."""
    sigma2 = params.sigma2
    mh = params.mu_hat
    size = tau_lbar.size
    iterations = np.zeros(size, dtype=int)
    bisections = np.zeros(size, dtype=int)
    widenings = np.zeros(size, dtype=int)
    s_hat = np.full(size, math.nan)
    with np.errstate(all="ignore"):
        half_width = 10.0 * (np.abs(eps_hint) + sigma2 * tau + 0.01)
        # Each pass evaluates every entry's bracket; an entry with no sign
        # change doubles it for the next pass, up to _MAX_BRACKET_WIDENINGS times.
        while True:
            lo, hi = mh - half_width, mh + half_width
            f_lo = _deflated(lo, tau_lbar, l0, sigma2, tau)[0]
            f_hi = _deflated(hi, tau_lbar, l0, sigma2, tau)[0]
            grow = (f_lo * f_hi > 0.0) & (widenings < _MAX_BRACKET_WIDENINGS)
            if not grow.any():
                break
            widenings += grow
            half_width = np.where(grow, 2.0 * half_width, half_width)
        bracketed = ~(f_lo * f_hi > 0.0)

        # Safeguarded Newton from xl = lo, xh = hi: q's slope, tau^2 (-l0 phi1'
        # + sigma2 tau phi2'), is a sum of two positive terms, so q increases
        # and q(lo) <= 0 <= q(hi).  Bisect whenever the Newton step leaves
        # [xl, xh], stalls or is not finite (q overflows to -inf far from the
        # root, with a NaN slope).  ``live`` holds the entries still iterating;
        # every per-entry array below is compressed to them.
        live = np.flatnonzero(bracketed)
        tl, l, t = tau_lbar[live], l0[live], tau[live]
        xl, xh = lo[live], hi[live]
        x = 0.5 * (xl + xh)
        dx_old = xh - xl
        dx = dx_old
        f, df = _deflated(x, tl, l, sigma2, t)
        for _ in range(_MAX_NEWTON_ITERATIONS):
            if not live.size:
                break
            iterations[live] += 1
            newton = f / df
            bisect = ~(np.isfinite(newton) & np.isfinite(df)) | (np.abs(2.0 * f) > np.abs(dx_old * df))
            bisect |= ((x - xh) * df - f) * ((x - xl) * df - f) > 0.0
            bisections[live] += bisect
            dx_old = dx
            dx = np.where(bisect, 0.5 * (xh - xl), newton)
            stepped = np.where(bisect, xl + dx, x - dx)
            done = np.where(bisect, stepped == xl, stepped == x)
            x = stepped
            done |= np.abs(dx) < 1e-15 * np.maximum(1.0, np.abs(x))
            s_hat[live] = x
            f, df = _deflated(x, tl, l, sigma2, t)
            xl = np.where(f < 0.0, x, xl)
            xh = np.where(f > 0.0, x, xh)
            go = ~(done | (f == 0.0))
            if not go.all():
                live, x, xl, xh, dx, dx_old, tl, l, t, f, df = (
                    a[go] for a in (live, x, xl, xh, dx, dx_old, tl, l, t, f, df)
                )
        terms = _cleared_terms(s_hat, tau_lbar, l0, sigma2, tau)
        residual = np.abs(terms[0] - terms[1] - terms[2])
        unit_roundoff = 0.5 * np.finfo(float).eps
        floor = _ROOT_ROUNDING * (1.0 + np.abs(s_hat * tau)) * unit_roundoff * sum(map(np.abs, terms))
    failed = np.flatnonzero(~bracketed | ~(residual <= floor))
    if failed.size:
        i = failed[0]
        if not bracketed[i]:
            raise BracketingError(
                f"no sign change in [{float(lo[i])!r}, {float(hi[i])!r}] after {int(widenings[i])} widenings"
            )
        raise NumericalFailure(
            f"root refinement stalled: residual {float(residual[i])!r} exceeds the rounding floor {float(floor[i])!r}"
        )
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
) -> OracleResult:
    """Root of the defining equation near mu_hat, by safeguarded Newton.

    The initial bracket is centered on mu_hat with half-width
    ``10 (|eps_hint| + sigma2 tau + 0.01)`` (the root moves away from mu_hat
    at order eps) and is widened by doubling up to five times if it does not
    straddle a sign change; after that a BracketingError is raised.  Newton
    steps that leave the current bracket, or that fail to halve it, fall back
    to bisection silently.

    ``eps_hint`` sizes the bracket only.  The result's ``steps`` is 0: the
    integrator resolution that produced ``tau_lbar`` is unknown here.  A
    batch of one of the solve that ``compute_oracles`` runs.
    """
    tau = _require_maturity(tau)
    tau_lbar = _require_finite(tau_lbar, "tau_lbar")
    l0 = _require_consol_rate(l0)
    eps_hint = _require_finite(eps_hint, "eps_hint")
    tl = np.array([tau_lbar])
    roots = _solve_roots(tl, np.array([l0]), params, np.array([tau]), np.array([eps_hint]))
    return _results(tl, roots, 0)[0]


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
    steps = [_n_steps(tau, n_steps) for tau in taus]
    groups: dict[float, list[int]] = {}
    for i, (tau, n) in enumerate(zip(taus, steps)):
        groups.setdefault(tau / n, []).append(i)
    tau_lbar = np.empty((len(taus), eps.size))
    ell = np.empty((len(taus), eps.size))
    for h, members in groups.items():
        tau_lbar[members], ell[members] = _rk4(eps, l0, params, h, [steps[i] for i in members])
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
