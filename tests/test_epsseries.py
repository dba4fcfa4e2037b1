"""The order-by-order solve for the constant and its building blocks."""

import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sshat import (
    ExpPolySeries,
    InitialState,
    ModelParams,
    NumericalFailure,
    build_expansion,
    compute_oracle,
    rhs1_printed,
    solve_shat_series,
)
from sshat.epsseries import _moments, _taylor_coefficients
from sshat.oracle import _phi1, _phi1_prime, _phi2, _phi2_prime
from sshat.perturbation import EllExpansion

from _reference import (
    BASE,
    BASE_L0,
    BASE_TAU,
    MOMENT_REFERENCE,
    SHAT_K_REFERENCE,
    TRUE_SHAT_PARTIALS,
)

from test_perturbation import _random_valid_params


@pytest.mark.parametrize("x", sorted(MOMENT_REFERENCE))
def test_moments_match_mpmath(x):
    got = _moments(x, 17)
    for j, expected in enumerate(MOMENT_REFERENCE[x]):
        assert got[j] == pytest.approx(expected, rel=2e-15, abs=0), f"I_{j}({x})"


@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_taylor_coefficients_match_oracle_phi(tau):
    # F = l0 tau phi1 - sigma2 tau^2 phi2 and F' = tau^2 (l0 phi1' - sigma2 tau phi2'),
    # from the oracle's closed forms; the bracket is k0^2 F'(k0).
    l0, sigma2 = 0.1, 3e-4
    for x in list(np.linspace(-15.0, 15.0, 16)) + [-0.1, 0.1]:
        k0 = x / tau
        f0, f1 = _taylor_coefficients(k0, tau, l0, sigma2, 1)
        F = l0 * tau * _phi1(x) - sigma2 * tau * tau * _phi2(x)
        F_prime = tau * tau * (l0 * _phi1_prime(x) - sigma2 * tau * _phi2_prime(x))
        assert f0 == pytest.approx(F, rel=1e-13)
        assert f1 == pytest.approx(F_prime, rel=1e-13)
        params = ModelParams(m=0.72, mu=k0, gamma=0.0, sigma2=sigma2)
        shat = solve_shat_series(build_expansion(params, l0, 1), tau, l0, params, 1)
        assert shat.bracket / (k0 * k0) == pytest.approx(F_prime, rel=1e-13)


def test_exp_overflow_raises(base_params):
    # exp(-k0 tau u) overflows for k0 tau = -1000; exp(-x) underflows under
    # an overflowing sum for k0 tau = +1000.  Neither may pass as a number.
    for k0 in (-1.0, 1.0):
        with pytest.raises(NumericalFailure):
            _taylor_coefficients(k0, 1000.0, BASE_L0, base_params.sigma2, 3)
    params = ModelParams(**{**BASE, "mu": -1.0})
    with pytest.raises(NumericalFailure):
        solve_shat_series(build_expansion(params, BASE_L0, 3), 1000.0, BASE_L0, params, 3)


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


@pytest.mark.parametrize("tau", sorted(SHAT_K_REFERENCE))
def test_solve_matches_mpmath_coefficients(base_params, tau):
    shat = solve_shat_series(build_expansion(base_params, BASE_L0, 16), tau, BASE_L0, base_params, 16)
    for n, expected in enumerate(SHAT_K_REFERENCE[tau][:13]):
        assert shat.k[n] == pytest.approx(expected, rel=1e-6, abs=0), f"k_{n}"


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


def test_solve_validation(base_params, base_expansion):
    with pytest.raises(ValueError):
        solve_shat_series(base_expansion, 0.0, BASE_L0, base_params, 3)
    with pytest.raises(ValueError):
        solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 4)


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


def test_zero_L1_gives_zero_k1(base_params, base_expansion):
    L = (base_expansion.L[0], ExpPolySeries(())) + base_expansion.L[2:]
    fake = EllExpansion(
        order=base_expansion.order, c=base_expansion.c, L=L, params=base_params, l0=base_expansion.l0
    )
    assert rhs1_printed(fake, BASE_TAU, BASE_L0, base_params) == 0.0
    shat = solve_shat_series(fake, BASE_TAU, BASE_L0, base_params, 1)
    assert shat.k[1] == 0.0


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
    from sshat.oracle import residual_cleared

    shat = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    terms = [Lk.evaluate(BASE_TAU) for Lk in base_expansion.L]

    # Order 0 is exact: k_0 = mu_hat solves the truncated system identically.
    for eps in (0.04, 0.02):
        res0 = residual_cleared(base_params.mu_hat, terms[0], BASE_L0, base_params.sigma2, BASE_TAU)
        assert abs(res0) < 1e-15

    for order in range(1, 4):
        res = []
        for eps in (0.04, 0.02):
            tl = math.fsum(terms[k] * eps**k for k in range(order + 1))
            value = shat.value(eps, order=order)
            res.append(abs(residual_cleared(value, tl, BASE_L0, base_params.sigma2, BASE_TAU)))
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
