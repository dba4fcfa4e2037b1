"""The order-by-order solve for the constant and its building blocks.

Run as a script for a longer check of the reversion's summation order, as CI
does:

    python -W error tests/test_epsseries.py 2000 [SEED]

It solves that many seeded configurations (orders 0-16, maturities 1e-4 to
1e4) with the grid solve at block lengths 1, 2, 7 and 1024, which all run
the np.einsum block loop, and pair by pair with solve_shat_series, which
runs the float loop, and prints the count of columns checked.  It exits 1
when any column differs from the plain-Python reversion in any bit, naming
the first three.
"""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sshat.epsseries
import sshat.perturbation
from sshat import (
    InitialState,
    ModelParams,
    NumericalFailure,
    build_expansion,
    compute_oracle,
    rhs1_printed,
    solve_shat_series,
    tau_lbar_terms,
)
from sshat.epsseries import _solve_grid
from sshat.oracle import _phi
from sshat.params import N_MAX
from sshat.perturbation import _ell_terms, _quadrature

from _reference import (
    BASE,
    BASE_L0,
    BASE_TAU,
    BOX_REFERENCE,
    COEFFICIENT_REFERENCE,
    MOMENT_REFERENCE,
    SHAT_K_REFERENCE,
    SHAT_K_SHORT_REFERENCE,
    TRUE_SHAT_PARTIALS,
)

from test_perturbation import _random_valid_params


@pytest.mark.parametrize("x", sorted(MOMENT_REFERENCE))
def test_moments_match_mpmath(x):
    # b_j = (-1)^j tau^(j+1) / j! * I_j(mu_hat tau); at tau = 1 the scale is exact.
    params = ModelParams(m=0.72, mu=x, gamma=0.0, sigma2=3e-4)
    b = _quadrature(params, 1.0, 17)[1, 0]
    for j, moment in enumerate(MOMENT_REFERENCE[x]):
        assert b[j] == pytest.approx((-1) ** j * moment / math.factorial(j), rel=2e-15, abs=0), f"I_{j}({x})"


def _box_param(key, expected):
    """A ``pytest.param`` of (params, tau, expected) at one set of the parameter box."""
    m, mu_hat, sigma2, tau = key
    params = ModelParams(m=m, mu=mu_hat, gamma=0.0, sigma2=sigma2, lam=0.0)
    return pytest.param(params, tau, expected, id=f"box-m{m}-mu{mu_hat}-tau{tau}")


# Both sides of the reversion at the base set's maturities, then across the box.
_SIDES = [pytest.param(ModelParams(**BASE), tau, sides, id=str(tau)) for tau, sides in sorted(COEFFICIENT_REFERENCE.items())]
_SIDES += [_box_param(key, families) for key, families in BOX_REFERENCE.items()]


@pytest.mark.parametrize("params, tau, sides", _SIDES)
def test_quadrature_matches_mpmath_coefficients(params, tau, sides):
    # Both sides of the reversion to a small relative error at every order,
    # where the closed form's alternating sums lost up to 1e23 at tau = 0.01.
    terms = _quadrature(params, tau, 16)
    got = {"a": terms[0, 0], "b": terms[1, 0], "A": terms[0, 1], "B": terms[1, 1]}
    for name in "ABab":
        for k, value in enumerate(sides[name]):
            assert got[name][k] == pytest.approx(value, rel=1e-13, abs=0), f"{name}_{k}"


@pytest.mark.parametrize("tau", sorted(SHAT_K_SHORT_REFERENCE))
def test_solve_matches_mpmath_coefficients_at_short_maturities(base_params, tau):
    # The reversion's own cancellation (|L_n / (f_1 k_n)| up to 2e4 at
    # tau = 0.01) leaves k_n good to about 1e-9 even with exact inputs.
    shat = solve_shat_series(build_expansion(base_params, BASE_L0, 16), tau, BASE_L0, base_params, 16)
    for n, expected in enumerate(SHAT_K_SHORT_REFERENCE[tau]):
        assert shat.k[n] == pytest.approx(expected, rel=1e-8, abs=0), f"k_{n}"


@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_taylor_coefficients_match_oracle_phi(tau):
    # F = l0 tau phi1 - sigma2 tau^2 phi2 and F' = tau^2 (l0 phi1' - sigma2 tau phi2'),
    # from the oracle's closed forms; the bracket is k0^2 F'(k0).
    l0, sigma2 = 0.1, 3e-4
    for x in list(np.linspace(-15.0, 15.0, 16)) + [-0.1, 0.1]:
        k0 = x / tau
        params = ModelParams(m=0.72, mu=k0, gamma=0.0, sigma2=sigma2)
        a, b = _quadrature(params, tau, 1)[:, 0]
        f0, f1 = a + l0 * b
        phi1, phi2, phi1_prime, phi2_prime = (float(v[0]) for v in _phi(np.array([x])))
        F = l0 * tau * phi1 - sigma2 * tau * tau * phi2
        F_prime = tau * tau * (l0 * phi1_prime - sigma2 * tau * phi2_prime)
        assert f0 == pytest.approx(F, rel=1e-13)
        assert f1 == pytest.approx(F_prime, rel=1e-13)
        shat = solve_shat_series(build_expansion(params, l0, 1), tau, l0, params, 1)
        assert shat.bracket / (k0 * k0) == pytest.approx(F_prime, rel=1e-13)


def test_exp_overflow_raises(base_params):
    # exp(-k0 v) overflows for k0 tau = -1000, which may not pass as a number.
    params = ModelParams(**{**BASE, "mu": -1.0})
    with pytest.raises(NumericalFailure, match="k0\\*tau=-1000.0"):
        _quadrature(params, 1000.0, 3)
    with pytest.raises(NumericalFailure):
        solve_shat_series(build_expansion(params, BASE_L0, 3), 1000.0, BASE_L0, params, 3)
    # For k0 tau = +1000, exp(-k0 v) underflows long before tau, and the
    # moments are those of [0, inf): b_j = (-1)^j and a_j = (-1)^j sigma2 (tau - j - 1).
    params = ModelParams(**{**BASE, "mu": 1.0})
    a, b = _quadrature(params, 1000.0, 16)[:, 0]
    for j in range(17):
        assert b[j] == pytest.approx((-1) ** j, rel=1e-15, abs=0), f"b_{j}"
        assert a[j] == pytest.approx((-1) ** j * params.sigma2 * (1000.0 - j - 1), rel=1e-15, abs=0), f"a_{j}"
    assert all(map(math.isfinite, solve_shat_series(build_expansion(params, BASE_L0, 3), 1000.0, BASE_L0, params, 3).k))


def _one_pair_failure(params, order, l0, tau):
    """The message of the NumericalFailure that the scalar solve and a one-pair grid both raise.

    Fails unless the two raise the same type with the same message.
    """
    raised = []
    for solve in (
        lambda: solve_shat_series(build_expansion(params, l0, order), tau, l0, params, order),
        lambda: next(_solve_grid(params, order, np.array([l0]), np.array([tau]))),
    ):
        with pytest.raises(NumericalFailure) as error:
            solve()
        raised.append((type(error.value), str(error.value)))
    assert raised[0] == raised[1]
    return raised[0][1]


def test_subnormal_slope_raises(base_params, base_expansion):
    # f_1 is about -l0 tau^2 / 2, below the smallest normal double from
    # tau = 1e-154 on, and every order divides by it.
    with pytest.raises(NumericalFailure, match="f_1 of F underflowed at tau=1e-160"):
        solve_shat_series(base_expansion, 1e-160, BASE_L0, base_params, 3)
    with pytest.raises(NumericalFailure, match="f_1 of F underflowed at tau=1e-300"):
        next(_solve_grid(base_params, 3, np.array([0.05, BASE_L0]), np.array([1.0, 1e-300])))
    assert _one_pair_failure(base_params, 3, BASE_L0, 1e-300) == "the slope f_1 of F underflowed at tau=1e-300"
    assert all(map(math.isfinite, solve_shat_series(base_expansion, 1e-150, BASE_L0, base_params, 3).k))


def test_residual_vanishes_at_solution(base_params, base_expansion):
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    assert len(shat.residuals) == 4
    assert all(r < 1e-12 for r in shat.residuals)


def test_order_zero_residual_at_mu_hat(base_params, base_expansion):
    # The constant series k_0 = mu_hat satisfies the equation at order zero.
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 0)
    assert shat.k == (base_params.mu_hat,)
    assert shat.residuals[0] < 1e-15
    full = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    assert shat.bracket == full.bracket
    assert math.isfinite(shat.bracket) and shat.bracket < 0


# k_0..k_16 at every frozen maturity of the base set, then across the box.
_SHAT_K = {**SHAT_K_REFERENCE, **SHAT_K_SHORT_REFERENCE}
_COEFFICIENTS = [pytest.param(ModelParams(**BASE), tau, k, id=str(tau)) for tau, k in sorted(_SHAT_K.items())]
_COEFFICIENTS += [_box_param(key, families["k"]) for key, families in BOX_REFERENCE.items()]


@pytest.mark.parametrize("params, tau, k_ref", _COEFFICIENTS)
def test_solve_matches_mpmath_coefficients(params, tau, k_ref):
    # Every order against the frozen references, per coefficient and against
    # the series' envelope max_n |k_n| rho^n, with rho = R / 2 and the radius
    # R = min_(n>=8) |k_n|^(-1/n).  An oscillating k_n that dips far below
    # its neighbours is the least accurate relative to itself (2.9e-10 at
    # m = 0.1, tau = 50); against the envelope every set is within 1e-14.
    expected = np.array(k_ref)
    shat = solve_shat_series(build_expansion(params, BASE_L0, 16), tau, BASE_L0, params, 16)
    for n, k in enumerate(expected.tolist()):
        assert shat.k[n] == pytest.approx(k, rel=1e-9, abs=0), f"k_{n}"
    radius = min(abs(expected[n]) ** (-1 / n) for n in range(8, 17))
    envelope = (radius / 2) ** np.arange(17)
    error = np.abs(np.array(shat.k) - expected) * envelope
    assert error.max() <= 5e-14 * (np.abs(expected) * envelope).max()


@pytest.mark.parametrize("tau", sorted(SHAT_K_REFERENCE))
def test_solve_matches_mpmath_partial_sums(base_params, tau):
    shat = solve_shat_series(build_expansion(base_params, BASE_L0, 16), tau, BASE_L0, base_params, 16)
    k = SHAT_K_REFERENCE[tau]
    for eps in (-0.09, 0.11):
        for order in range(17):
            expected = math.fsum(k[n] * eps**n for n in range(order + 1))
            assert shat.value(eps, order=order) == pytest.approx(expected, abs=1e-13), (eps, order)


def test_solve_reproduces_frozen_partial_sums(base_params, base_expansion):
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    for s0, partials in TRUE_SHAT_PARTIALS.items():
        eps = s0 - base_params.mu_hat
        for order, expected in enumerate(partials):
            assert shat.value(eps, order=order) == pytest.approx(expected, abs=2e-10)


def test_solve_matches_published_low_order_cells(base_params, base_expansion):
    # 7-decimal published values that agree with ground truth.
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    assert shat.value(0.01, order=1) == pytest.approx(-0.0020259, abs=5e-8)
    assert shat.value(0.06, order=2) == pytest.approx(0.0378844, abs=5e-8)


def test_fixed_point_at_zero_eps(base_params, base_expansion):
    for order in range(4):
        shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, order)
        assert shat.value(0.0) == base_params.mu_hat


def test_value_on_array_equals_scalar_calls(base_params):
    expansion = build_expansion(base_params, BASE_L0, 8)
    shat = solve_shat_series(expansion, 2.5, BASE_L0, base_params, 8)
    eps = np.array([-0.09, -0.04, -1e-9, 0.0, 1e-9, 0.013, 0.06, 0.11])
    for order in (None, *range(9)):
        got = shat.value(eps, order=order)
        assert isinstance(got, np.ndarray) and got.shape == eps.shape
        expected = [shat.value(float(e), order=order) for e in eps]
        assert all(g == e for g, e in zip(got.tolist(), expected)), order
    # The sum runs in increasing powers (not Horner), which fixes the bits
    # of every CSV value.
    for e in eps.tolist():
        total, power = 0.0, 1.0
        for kn in shat.k:
            total += kn * power
            power *= e
        assert shat.value(e) == total
    grid = eps.reshape(2, 4)
    assert np.array_equal(shat.value(grid, order=0), np.full((2, 4), base_params.mu_hat))
    assert shat.value(grid).tolist() == [[shat.value(float(e)) for e in row] for row in grid]


@pytest.mark.filterwarnings("error")
def test_value_on_array_forms_no_power_past_the_last_term(base_params, base_expansion):
    # At order 3, eps^3 = 1e240 is finite but eps^4 overflows: a power past
    # the last term would raise an overflow warning on the array call only.
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    expected = shat.value(1e80)
    assert math.isfinite(expected)
    assert shat.value(np.array([1e80])).tolist() == [expected]
    assert shat.value(np.array([1e80, -1e80]), order=3).tolist() == [expected, shat.value(-1e80)]


@pytest.mark.parametrize("order", [3, 16])
@pytest.mark.parametrize("x", [np.float32(0.3), np.float16(-0.04), np.int32(1)], ids=["float32", "float16", "int32"])
def test_value_sums_numpy_scalars_in_float64(base_params, order, x):
    # Under NumPy 2, 1.0 * np.float32(x) is a float32: a sum that started
    # from the power 1.0 would run in the scalar's own precision.
    shat = solve_shat_series(build_expansion(base_params, BASE_L0, order), BASE_TAU, BASE_L0, base_params, order)
    got = shat.value(x)
    assert got == shat.value(float(x))
    assert np.asarray(got).dtype == np.float64
    # A 0-d array gives a numpy float, not an ndarray.
    zero_d = shat.value(np.array(x))
    assert zero_d == got and not isinstance(zero_d, np.ndarray)


def test_solve_validation(base_params, base_expansion):
    with pytest.raises(ValueError):
        solve_shat_series(base_expansion, 0.0, BASE_L0, base_params, 3)
    with pytest.raises(ValueError):
        solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 4)


def test_orders_beyond_the_expansion_are_rejected(base_params, base_expansion):
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    with pytest.raises(ValueError, match=r"^order must be in \[0, 3\], got 4$"):
        shat.value(0.01, order=shat.order + 1)
    with pytest.raises(ValueError, match=r"^order must be in \[0, 3\], got 1.5$"):
        shat.value(0.01, order=1.5)
    with pytest.raises(ValueError, match=r"^order must be in \[0, 3\], got 1.5$"):
        solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 1.5)
    with pytest.raises(ValueError, match=r"^order must be in \[0, 3\], got True$"):
        solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, True)
    with pytest.raises(ValueError, match="^expansion must carry at least order 1$"):
        rhs1_printed(build_expansion(base_params, BASE_L0, 0), BASE_TAU, BASE_L0, base_params)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_solve_rejects_non_finite_maturity(base_params, base_expansion, tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        solve_shat_series(base_expansion, tau, BASE_L0, base_params, 3)


def test_solve_rejects_l0_or_params_other_than_the_expansions(base_params, base_expansion):
    # F would be built for one configuration and the L_k for another.
    other = ModelParams(**dict(BASE, sigma2=4e-4))
    for l0, params in ((2 * BASE_L0, base_params), (BASE_L0, other)):
        with pytest.raises(ValueError, match="expansion"):
            solve_shat_series(base_expansion, BASE_TAU, l0, params, 3)
        with pytest.raises(ValueError, match="expansion"):
            rhs1_printed(base_expansion, BASE_TAU, l0, params)


def test_solve_takes_the_l0_the_expansion_stores(base_params):
    # The expansion of a float32 l0 holds float(np.float32(0.1)), not 0.1:
    # the solve accepts the float32 and that float, and rejects 0.1.
    expansion = build_expansion(base_params, np.float32(0.1), 3)
    stored = float(np.float32(0.1))
    shat = solve_shat_series(expansion, BASE_TAU, stored, base_params, 3)
    assert solve_shat_series(expansion, BASE_TAU, np.float32(0.1), base_params, 3) == shat
    assert shat == solve_shat_series(build_expansion(base_params, stored, 3), BASE_TAU, stored, base_params, 3)
    with pytest.raises(ValueError, match="expansion"):
        solve_shat_series(expansion, BASE_TAU, 0.1, base_params, 3)


def test_solve_stores_the_validated_maturity(base_params, base_expansion):
    for tau in (1, np.float32(1.0), np.array(1.0)):
        shat = solve_shat_series(base_expansion, tau, BASE_L0, base_params, 3)
        assert type(shat.tau) is float and shat == solve_shat_series(base_expansion, 1.0, BASE_L0, base_params, 3)


def test_zero_L1_gives_zero_k1(monkeypatch, base_params, base_expansion):
    # The solve reads L = A + l0 B from the quadrature, and rhs1_printed
    # reads it through tau_lbar_terms; zero L_1 in both.
    def zero_L1(params, tau, top):
        terms = _quadrature(params, tau, top)
        terms[:, 1, 1] = 0.0
        return terms

    monkeypatch.setattr(sshat.epsseries, "_quadrature", zero_L1)
    monkeypatch.setattr(sshat.perturbation, "_quadrature", zero_L1)
    assert rhs1_printed(base_expansion, BASE_TAU, BASE_L0, base_params) == 0.0
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 1)
    assert shat.k[1] == 0.0


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
def test_rhs1_rejects_the_maturities_the_solve_rejects(base_params, base_expansion, tau):
    # L_1(0) is exactly 0, so tau = 0 used to pass as a number.
    with pytest.raises(ValueError) as solve_error:
        solve_shat_series(base_expansion, tau, BASE_L0, base_params, 1)
    with pytest.raises(ValueError) as rhs1_error:
        rhs1_printed(base_expansion, tau, BASE_L0, base_params)
    assert str(rhs1_error.value) == str(solve_error.value)


def _grid_rows(params, order, l0, tau):
    """k, bracket and residuals of every (l0, tau) pair of the batched solve, in pair order."""
    rows = []
    for start, k, bracket, residuals in _solve_grid(params, order, l0, tau):
        assert start == len(rows)
        rows += zip(k.T.tolist(), bracket.tolist(), residuals.T.tolist())
    assert len(rows) == len(l0) * len(tau)
    return rows


@pytest.mark.parametrize("order", [0, 1, 3, 8, 16])
def test_batched_solve_rows_equal_scalar_solves(monkeypatch, order):
    # Each row of the grid solve has the bits of the scalar solve at its
    # (l0, tau), with repeated grid values and at any block length.
    rng = random.Random(1978 + order)
    params = _random_valid_params(rng)
    l0 = [rng.uniform(0.005, 0.25) for _ in range(3)]
    tau = [rng.uniform(0.1, 10.0) for _ in range(3)]
    l0, tau = np.array(l0 + l0[:2]), np.array(tau[:1] + tau + tau[1:2])
    rows = _grid_rows(params, order, l0, tau)
    monkeypatch.setattr(sshat.epsseries, "_BLOCK", 7)
    assert _grid_rows(params, order, l0, tau) == rows
    pairs = [(a, t) for a in l0.tolist() for t in tau.tolist()]
    for (a, t), (k, bracket, residuals) in zip(pairs, rows):
        shat = solve_shat_series(build_expansion(params, a, order), t, a, params, order)
        assert (shat.k, shat.bracket, shat.residuals) == (tuple(k), bracket, tuple(residuals))


def _reference_reversion(params, order, l0, tau):
    """k, bracket and residuals of one pair, each sum added left to right in plain Python.

    The inputs are ``_quadrature``'s values as floats.  ``D[j][t]`` is the
    eps^t coefficient of delta^j and ``S_t = sum_(j>=2) f_j D[j][t]``; both
    start from 0.0 and add their products in increasing i and j.
    """
    n = max(order, 1)
    (a, A), (b, B) = _quadrature(params, tau, n).tolist()
    f = [a[j] + l0 * b[j] for j in range(n + 1)]
    L = [A[j] + l0 * B[j] for j in range(n + 1)]
    D = [[0.0] * (order + 1) for _ in range(n + 1)]
    delta, rest = D[1], [L[0] - f[0]] + [0.0] * order
    for t in range(1, order + 1):
        for j in range(2, t + 1):
            s = 0.0
            for i in range(1, t):
                s = s + delta[i] * D[j - 1][t - i]
            D[j][t] = s
        s = 0.0
        for j in range(2, t + 1):
            s = s + f[j] * D[j][t]
        rest[t] = L[t] - s
        delta[t] = rest[t] / f[1]
    residuals = [abs(f[1] * d - r) for d, r in zip(delta, rest)]
    k0 = params.mu_hat
    return [k0, *delta[1:]], k0 * k0 * f[1], residuals


def _bits(row):
    """The bits of a (k, bracket, residuals) row, with -0.0 apart from 0.0."""
    k, bracket, residuals = row
    return [x.hex() for x in (*k, bracket, *residuals)]


_BLOCK = sshat.epsseries._BLOCK


def _scalar_row(params, order, l0, tau):
    """k, bracket and residuals of ``solve_shat_series`` at one (l0, tau) pair."""
    shat = solve_shat_series(build_expansion(params, l0, order), tau, l0, params, order)
    return shat.k, shat.bracket, shat.residuals


def reversion_mismatches(count, seed, blocks=(1, 2, 7, 1024)):
    """Solve ``count`` seeded configurations and compare each column with ``_reference_reversion``.

    Configuration i has order ``i % 17``, 1-3 values of l0 and 1-3 maturities
    log-uniform in [1e-4, 1e4].  Each pair is solved by the grid solve at
    every length in ``blocks`` and by ``solve_shat_series``, whose block is
    named "scalar".  Returns the columns checked and the ``(i, block, pair)``
    of every column that differs in any bit.  A configuration that the solve
    rejects as a NumericalFailure is skipped.
    """
    checked, bad = 0, []
    for i in range(count):
        rng = random.Random(f"{seed}-{i}")
        params = _random_valid_params(rng)
        order = i % (N_MAX + 1)
        l0 = np.array([rng.uniform(0.005, 0.25) for _ in range(rng.randint(1, 3))])
        tau = np.array([10.0 ** rng.uniform(-4.0, 4.0) for _ in range(rng.randint(1, 3))])
        pairs = [(a, t) for a in l0.tolist() for t in tau.tolist()]
        try:
            expected = [_bits(_reference_reversion(params, order, a, t)) for a, t in pairs]
            for block in blocks:
                sshat.epsseries._BLOCK = block
                rows = _grid_rows(params, order, l0, tau)
                bad += [(i, block, p) for p, row in enumerate(rows) if _bits(row) != expected[p]]
                checked += len(rows)
            rows = [_scalar_row(params, order, a, t) for a, t in pairs]
            bad += [(i, "scalar", p) for p, row in enumerate(rows) if _bits(row) != expected[p]]
            checked += len(rows)
        except NumericalFailure:
            continue
        finally:
            sshat.epsseries._BLOCK = _BLOCK
    return checked, bad


def test_reversion_adds_left_to_right():
    # Every column of the grid solve, and every scalar solve, has the bits
    # of the plain-Python reversion, which adds each sum left to right, at
    # orders 0-16 and at any block length: np.einsum keeps that order on
    # _solve_grid's operands, one-pair blocks included, and the scalar
    # solve's float loop adds in the same order.
    checked, bad = reversion_mismatches(4 * (N_MAX + 1), 1978)
    assert checked >= 1000 and not bad


@pytest.mark.parametrize("order", [3, 8])
def test_overflowing_one_pair_reversion_falls_back_to_the_block_loop(monkeypatch, base_params, order):
    # f_j = 1 except f_1 = -1e-300, a normal double, and L_j = 1e300: f is
    # finite but delta_1 = L_1 / f_1 overflows.  The products that the
    # scalar solve's float loop skips are then inf * 0.0 = NaN in the block
    # loop, and the scalar solve must still have the bits the pair has in a
    # grid of three, nan and inf included.  Only this non-finite result
    # sends the scalar solve to the block loop.
    def synthetic(params, tau, top):
        terms = _quadrature(params, tau, top)
        if tau == 2.0:
            terms[0, 0], terms[0, 0, 1], terms[0, 1], terms[1] = 1.0, -1e-300, 1e300, 0.0
        return terms

    grids = []

    def counted(*args):
        grids.append(args)
        return _solve_grid(*args)

    monkeypatch.setattr(sshat.epsseries, "_quadrature", synthetic)
    monkeypatch.setattr(sshat.epsseries, "_solve_grid", counted)
    _scalar_row(base_params, order, BASE_L0, 1.0)
    assert not grids
    with np.errstate(all="ignore"):
        alone = _scalar_row(base_params, order, BASE_L0, 2.0)
        grid = _grid_rows(base_params, order, np.array([BASE_L0]), np.array([1.0, 2.0, 5.0]))
    assert len(grids) == 1
    assert not all(map(math.isfinite, alone[0]))
    assert _bits(alone) == _bits(grid[1])


def test_quadrature_rows_do_not_depend_on_top():
    # Row k of the quadrature, and of the path terms, has the same bits
    # whatever the highest row the call forms.
    keys = [(3.0, 0.25, 0.0003, 5.0), (0.1, -0.05, 0.0005, 50.0)]
    sets = [ModelParams(**BASE)] + [ModelParams(m=m, mu=mu, gamma=0.0, sigma2=s2, lam=0.0) for m, mu, s2, _ in keys]
    assert all(key in BOX_REFERENCE for key in keys)
    for params in sets:
        for tau in (0.01, 1.0, 50.0):
            full = _quadrature(params, tau, N_MAX + 1)
            path = _ell_terms(build_expansion(params, BASE_L0, N_MAX), tau)
            for k in range(N_MAX + 2):
                assert _quadrature(params, tau, k).tobytes() == full[..., : k + 1].tobytes(), (params, tau, k)
                if k <= N_MAX:
                    assert _ell_terms(build_expansion(params, BASE_L0, k), tau).tobytes() == path[: k + 1].tobytes()


def test_batched_solve_overflow_matches_scalar_solve():
    # One maturity overflows the Taylor coefficients of F: the grid solve
    # raises what the scalar solve at that pair raises, before any block.
    params = ModelParams(**{**BASE, "mu": -1.0})
    with pytest.raises(NumericalFailure) as scalar:
        solve_shat_series(build_expansion(params, BASE_L0, 3), 1000.0, BASE_L0, params, 3)
    with pytest.raises(NumericalFailure) as batched:
        next(_solve_grid(params, 3, np.array([0.05, BASE_L0]), np.array([1.0, 1000.0, 2.0])))
    assert str(batched.value) == str(scalar.value)
    assert "k0*tau=-1000.0" in str(scalar.value)
    assert _one_pair_failure(params, 3, BASE_L0, 1000.0) == str(scalar.value)
    # A finite l0 large enough to overflow f = a + l0 b, from a finite
    # quadrature, fails in its own pair.
    with pytest.raises(NumericalFailure, match="Taylor coefficients"):
        next(_solve_grid(params, 3, np.array([BASE_L0, 1e308]), np.array([5.0])))
    assert np.isfinite(_quadrature(params, 5.0, 3)).all()
    assert _one_pair_failure(params, 3, 1e308, 5.0) == "Taylor coefficients of F overflowed at k0*tau=-5.0"


def test_term_tables_are_written_only_when_read(monkeypatch, base_params):
    # The closed-form arrays alpha and beta: no build, solve or path value reads them.
    def no_terms(*args):
        raise RuntimeError("term table written")

    monkeypatch.setattr(sshat.perturbation, "_closed_form", no_terms)
    expansion = build_expansion(base_params, BASE_L0, 16)
    solve_shat_series(expansion, 1.0, BASE_L0, base_params, 16)
    tau_lbar_terms(expansion, 1.0)
    _ell_terms(expansion, 1.0)
    with pytest.raises(RuntimeError, match="term table"):
        expansion.alpha
    with pytest.raises(RuntimeError, match="term table"):
        expansion.beta


def test_truncated_solve_equals_solve_of_a_lower_order_build():
    # An order-n solve is also the first n + 1 orders of the order-16 solve,
    # bit for bit: no order reads a higher one.
    rng = random.Random(2014)
    for params in (ModelParams(**BASE), _random_valid_params(rng)):
        full = build_expansion(params, BASE_L0, 16)
        for tau in (0.1, 1.0, 10.0):
            top = solve_shat_series(full, tau, BASE_L0, params, 16)
            for n in range(17):
                truncated = solve_shat_series(full, tau, BASE_L0, params, n)
                own = solve_shat_series(build_expansion(params, BASE_L0, n), tau, BASE_L0, params, n)
                assert (truncated.k, truncated.bracket, truncated.residuals) == (own.k, own.bracket, own.residuals)
                assert (truncated.k, truncated.residuals) == (top.k[: n + 1], top.residuals[: n + 1])


def test_expansions_compare_by_order_params_and_l0(base_params):
    expansion = build_expansion(base_params, BASE_L0, 3)
    twin = build_expansion(base_params, BASE_L0, 3)
    assert expansion == twin and hash(expansion) == hash(twin)
    assert expansion != build_expansion(base_params, 2 * BASE_L0, 3)
    assert expansion != build_expansion(base_params, BASE_L0, 4)


def test_rhs1_cross_check_base(base_params, base_expansion):
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 1)
    rhs1 = rhs1_printed(base_expansion, BASE_TAU, BASE_L0, base_params)
    assert shat.bracket * shat.k[1] == pytest.approx(rhs1, rel=1e-12)
    assert math.copysign(1.0, shat.k[1]) == math.copysign(1.0, rhs1 / shat.bracket)


def test_rhs1_cross_check_random_parameter_sets():
    rng = random.Random(314159)
    checked = 0
    while checked < 50:
        params = _random_valid_params(rng)
        l0 = rng.uniform(0.02, 0.2)
        tau = rng.uniform(0.25, 5.0)
        expansion = build_expansion(params, l0, 1)
        try:
            shat = solve_shat_series(expansion, tau, l0, params, 1)
        except NumericalFailure:
            continue
        rhs1 = rhs1_printed(expansion, tau, l0, params)
        assert shat.k[1] * shat.bracket == pytest.approx(rhs1, rel=1e-12)
        checked += 1


def test_scalar_residual_shrinks_at_least_at_expected_rate(base_params, base_expansion):
    """Plugging the truncated solution into the scalar equation leaves a
    defect that is O(eps^(N+1)): halving eps shrinks it by at least ~2^(N+1).

    Only the lower bound is asserted: at these parameters the defect's series
    coefficients grow quickly with order (the linearization slope is tiny),
    so at eps = 0.04 the shrinkage is much faster than the asymptotic rate.
    The two-sided rate check lives in the acceptance suite, on the error
    against the oracle, where it does hold.
    """
    from sshat.oracle import _cleared_residual

    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    terms = tau_lbar_terms(base_expansion, BASE_TAU)

    # Order 0 is exact: k_0 = mu_hat solves the truncated system identically.
    for eps in (0.04, 0.02):
        res0 = _cleared_residual(base_params.mu_hat, terms[0], BASE_L0, base_params.sigma2, BASE_TAU)[0]
        assert abs(res0) < 1e-15

    for order in range(1, 4):
        res = []
        for eps in (0.04, 0.02):
            tl = math.fsum(terms[k] * eps**k for k in range(order + 1))
            value = shat.value(eps, order=order)
            res.append(abs(_cleared_residual(value, tl, BASE_L0, base_params.sigma2, BASE_TAU)[0]))
        assert res[1] > 0
        assert res[0] / res[1] >= 2 ** (order + 1) * 0.8


def test_partial_sums_approach_oracle_monotonically(base_params, base_expansion):
    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    for s0 in (-0.05, 0.0, 0.05):
        eps = s0 - base_params.mu_hat
        oracle = compute_oracle(InitialState(s0=s0, l0=BASE_L0), base_params, BASE_TAU, 20000)
        errors = [abs(shat.value(eps, order=n) - oracle.s_hat) for n in range(4)]
        assert all(errors[n + 1] <= errors[n] for n in range(3))


def test_concurrent_solves_match_sequential(base_params, base_expansion):
    taus = [0.25, 0.5, 1.0, 2.0, 5.0]
    sequential = [
        solve_shat_series(base_expansion, tau, BASE_L0, base_params, 3).k for tau in taus
    ]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(
            pool.map(lambda tau: solve_shat_series(base_expansion, tau, BASE_L0, base_params, 3).k, taus)
        )
    assert concurrent == sequential


if __name__ == "__main__":
    count = int(float(sys.argv[1]))
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1978
    checked, bad = reversion_mismatches(count, seed)
    if bad:
        sys.exit(f"{len(bad)} columns differ from the left-to-right reversion, first (config, block, pair) {bad[:3]}")
    print(f"{checked} columns of {count} configurations, each equal to the left-to-right reversion")
