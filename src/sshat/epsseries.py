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
floats from the quadrature's raw node sums on (``perturbation._moments``),
where numpy's per-call cost outweighed the arithmetic, with the bits and
errors of a grid of that pair.  Everything after the node sums, the
division by the signed factorials, the finiteness and underflow checks,
the reversion and the residuals, is one straight-line function per order,
generated and compiled on first use (``_reversion_kernel``, about 0.5 ms
at order 3 and 3.6 ms at order 16, once per process), since interpreting
loops and list comprehensions cost more than the arithmetic.  Only a
coefficient that is not finite sends it to the grid solve, whose NaNs from
inf * 0.0 the float kernel does not form.  ``ShatExpansion.value`` at a
Python float likewise adds its terms in a compiled function per length
(``_sum_kernel``, 0.1-0.3 ms each), with ``_partial_sums``' operations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .params import ModelParams, _require_consol_rate, _require_index, _require_maturity
from .perturbation import EllExpansion, _moments, _quadrature, tau_lbar_terms

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
    """The last partial sum of ``_partial_sums(terms, eps)``: the whole series at ``eps``.

    ``terms`` is a sequence.  A Python float ``eps`` (not a subclass such as
    np.float64) runs the compiled ``_sum_kernel`` of its length, with the
    same operations; every other eps runs the generator.
    """
    if type(eps) is float:
        return _sum_kernel(len(terms))(terms, eps)
    for total in _partial_sums(terms, eps):
        pass
    return total


# (l0, tau) pairs per block of the batched solve.  The block length is fixed,
# and no result depends on it; a block's table of powers takes
# (order+1)^2 * _BLOCK floats, 2.4 MB at order N_MAX.
_BLOCK = 1024

# The smallest normal double.
_TINY = float(np.finfo(float).tiny)


@functools.cache
def _reversion_kernel(order: int):
    """The scalar solve of one pair up to ``order`` as straight-line Python, compiled once.

    ``kernel(sums, x, sigma2, k0, tau)`` takes ``_moments(params, tau,
    top).tolist()`` with ``top = max(order, 1)``, the pair's l0 ``x``,
    sigma2 and ``k0 = mu_hat``, and takes ``_solve_grid``'s steps for the
    one pair in Python floats, each operation the IEEE one of its
    elementwise numpy counterpart:

        a_j = sums / F_j * sigma2 and b_j = sums / F_j (same for A, B),
        with F_j = (-1)^j j! an exact literal, as ``_quadrature``;
        f_j = a_j + x b_j and L_t = A_t + x B_t;
        [delta^j]_t = 0.0 + sum_(i=1..t-j+1) delta_i [delta^(j-1)]_(t-i)   (j = 2..t)
        rest_t = L_t - (0.0 + sum_(j=2..t) f_j [delta^j]_t)
        delta_t = rest_t / f_1,

    in the locals ``a{j}``..``L{t}``, ``p{j}_{t}``, ``r{t}`` and ``d{t}``
    (``d`` also for delta^1), rest_0 = L_0 - f_0.  It raises
    ``_quadrature``'s overflow error when a coefficient of the table or of
    f is not finite, then the grid solve's error when ``|f_1| < _TINY``;
    each test is one sum of ``(x - x)`` terms, exactly 0.0 unless some x is
    inf or NaN.  It returns the tuples ``k = (k0, delta_1, ...)`` and
    ``residuals = |f_1 delta_t - rest_t|`` with ``f_1``, or None when a
    delta_t is not finite: the block loop's products that the kernel skips,
    delta_i [delta^(j-1)]_(t-i) with t - i < j - 1, whose power is an exact
    0.0, add +-0.0 to a sum that is never -0.0 when delta_i is finite, and
    are NaN otherwise, so the caller then runs the block loop.  Each sum is
    one expression added left to right: the leading ``0.0 +`` turns a sum
    of -0.0 products into 0.0, and CPython folds only constant operands, so
    no term moves.  ``sum`` compensates float sums from Python 3.12 on and
    ``math.fsum`` rounds once, so neither gives the loop's bits.  The source
    is built from integers only.
    """
    top = max(order, 1)

    def row(name, first=0, last=top):
        return [f"{name}{j}" for j in range(first, last + 1)]

    def not_finite(names):
        return " + ".join(f"({x} - {x})" for x in names) + " != 0.0"

    a, A, b, B = (", ".join(row(name)) for name in "aAbB")
    lines = ["def kernel(sums, x, sigma2, k0, tau):", f"    (({a}), ({A})), (({b}), ({B})) = sums"]
    for j in range(top + 1):
        signed = f"{(-1) ** j * math.factorial(j)}.0"
        lines += [f"    a{j} = a{j} / {signed} * sigma2", f"    A{j} = A{j} / {signed} * sigma2"]
        lines += [f"    b{j} = b{j} / {signed}", f"    B{j} = B{j} / {signed}", f"    f{j} = a{j} + x * b{j}"]
    lines += [
        f"    if {not_finite([x for name in 'aAbBf' for x in row(name)])}:",
        '        raise NumericalFailure(f"Taylor coefficients of F overflowed at k0*tau={k0 * tau!r}")',
        "    if abs(f1) < _TINY:",
        '        raise NumericalFailure(f"the slope f_1 of F underflowed at tau={tau!r}")',
    ]
    lines += [f"    L{t} = A{t} + x * B{t}" for t in range(order + 1)]
    lines.append("    r0 = L0 - f0")
    for t in range(1, order + 1):
        for j in range(2, t + 1):
            power = "d" if j == 2 else f"p{j - 1}_"
            terms = "".join(f" + d{i} * {power}{t - i}" for i in range(1, t - j + 2))
            lines.append(f"    p{j}_{t} = 0.0{terms}")
        total = "".join(f" + f{j} * p{j}_{t}" for j in range(2, t + 1))
        lines += [f"    r{t} = L{t} - (0.0{total})", f"    d{t} = r{t} / f1"]
    delta = row("d", 1, order)
    if delta:
        lines += [f"    if {not_finite(delta)}:", "        return None"]
    residuals = ", ".join(f"abs(f1 * {d} - r{t})" for t, d in enumerate(["0.0", *delta]))
    lines.append(f"    return ({', '.join(['k0', *delta])},), ({residuals},), f1")
    namespace = {"NumericalFailure": NumericalFailure, "_TINY": _TINY}
    exec(compile("\n".join(lines), f"<reversion kernel, order {order}>", "exec"), namespace)
    return namespace["kernel"]


@functools.cache
def _sum_kernel(length: int):
    """``_partial_sums``' last sum of ``length`` terms at a Python float, as straight-line Python.

    ``kernel(terms, e)`` unpacks the terms into locals and adds them as
    ``_partial_sums`` does, ``p = 1.0; t = k0 * p + 0.0; p = p * e;
    t = k1 * p + t; ...``, with no power past the last term's; compiled on
    first use per length.
    """
    names = [f"k{n}" for n in range(length)]
    lines = ["def kernel(terms, e):", f"    [{', '.join(names)}] = terms", "    p = 1.0"]
    for n, term in enumerate(names):
        if n:
            lines.append("    p = p * e")
        lines.append(f"    t = {term} * p + {'t' if n else '0.0'}")
    lines.append("    return t")
    namespace = {}
    exec(compile("\n".join(lines), f"<series sum, {length} terms>", "exec"), namespace)
    return namespace["kernel"]


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
        k = self.k
        if order is not None or not k:  # an empty k fails as order -1
            order = self.order if order is None else order
            _require_index(order, "order", 0, self.order)
            k = k[: order + 1]
        return _series_sum(k, eps)


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
    quadrature's raw node sums on, in the order's compiled kernel
    (``_reversion_kernel``; the first solve at an order in a process
    compiles it, up to a few ms at order 16), with the bits and errors of
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
    sums = _moments(params, tau, max(order, 1)).tolist()
    solved = _reversion_kernel(order)(sums, x, params.sigma2, k0, tau)
    if solved is None:
        ((_, k, bracket, residuals),) = _solve_grid(params, order, np.array([x]), np.array([tau]))
        k, bracket, residuals = tuple(k[:, 0].tolist()), float(bracket[0]), tuple(residuals[:, 0].tolist())
    else:
        k, residuals, f1 = solved
        bracket = k0 * k0 * f1
    return ShatExpansion(tau=tau, k=k, bracket=bracket, residuals=residuals)


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
