"""The order-by-order solve for the constant and its building blocks."""

import math
import random
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
from sshat.epsseries import _moments, _solve_grid, _taylor_terms
from sshat.oracle import _phi
from sshat.perturbation import _lbar_columns, _lbar_table

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
        a, b = _taylor_terms(k0, tau, sigma2, 1)
        f0, f1 = a + l0 * b
        phi1, phi2, phi1_prime, phi2_prime = (float(v[0]) for v in _phi(np.array([x])))
        F = l0 * tau * phi1 - sigma2 * tau * tau * phi2
        F_prime = tau * tau * (l0 * phi1_prime - sigma2 * tau * phi2_prime)
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
            _taylor_terms(k0, 1000.0, base_params.sigma2, 3)
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


def test_zero_L1_gives_zero_k1(monkeypatch, base_params, base_expansion):
    # The solve reads L = A + l0 B from the columns of the l0-free table, and
    # rhs1_printed reads it through tau_lbar_terms; zero L_1 in both.
    def zero_L1(table, tau):
        A, B = _lbar_columns(table, tau)
        A[1] = B[1] = 0.0
        return A, B

    monkeypatch.setattr(sshat.epsseries, "_lbar_columns", zero_L1)
    monkeypatch.setattr(sshat.perturbation, "_lbar_columns", zero_L1)
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
    for start, k, bracket, residuals in _solve_grid(params, _lbar_table(params, order), order, l0, tau):
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


def test_batched_solve_overflow_matches_scalar_solve():
    # One maturity overflows the Taylor coefficients of F: the grid solve
    # raises what the scalar solve at that pair raises, before any block.
    params = ModelParams(**{**BASE, "mu": -1.0})
    with pytest.raises(NumericalFailure) as scalar:
        solve_shat_series(build_expansion(params, BASE_L0, 3), 1000.0, BASE_L0, params, 3)
    table = _lbar_table(params, 3)
    with pytest.raises(NumericalFailure) as batched:
        next(_solve_grid(params, table, 3, np.array([0.05, BASE_L0]), np.array([1.0, 1000.0, 2.0])))
    assert str(batched.value) == str(scalar.value)
    assert "k0*tau=-1000.0" in str(scalar.value)
    # A finite l0 large enough to overflow f_j fails in its own pair.
    with pytest.raises(NumericalFailure, match="Taylor coefficients"):
        next(_solve_grid(params, table, 3, np.array([BASE_L0, 1e308]), np.array([5.0])))


def test_consumers_read_the_table_built_with_the_expansion(monkeypatch, base_params):
    # The solve, tau_lbar_terms and rhs1_printed read the l0-free table stored
    # on the expansion; none of them builds another.
    full = build_expansion(base_params, BASE_L0, 16)
    expansions = [build_expansion(base_params, BASE_L0, n) for n in range(17)]

    def results():
        solves = [solve_shat_series(full, BASE_TAU, BASE_L0, base_params, n) for n in range(17)]
        solves += [solve_shat_series(e, BASE_TAU, BASE_L0, base_params, e.order) for e in expansions]
        return solves, tau_lbar_terms(full, BASE_TAU), rhs1_printed(full, BASE_TAU, BASE_L0, base_params)

    before = results()

    def no_table(*args):
        raise RuntimeError("l0-free table rebuilt")

    for module in (sshat.perturbation, sshat.epsseries):
        if hasattr(module, "_lbar_table"):
            monkeypatch.setattr(module, "_lbar_table", no_table)
    assert results() == before


def test_term_tables_are_written_only_when_read(monkeypatch, base_params):
    def no_terms(*args):
        raise RuntimeError("term table written")

    monkeypatch.setattr(sshat.perturbation, "_series", no_terms)
    expansion = build_expansion(base_params, BASE_L0, 16)
    with pytest.raises(RuntimeError, match="term table"):
        expansion.c
    with pytest.raises(RuntimeError, match="term table"):
        expansion.L


def test_truncated_solve_equals_solve_of_a_lower_order_build():
    rng = random.Random(2014)
    for params in (ModelParams(**BASE), _random_valid_params(rng)):
        full = build_expansion(params, BASE_L0, 16)
        for tau in (0.1, 1.0, 10.0):
            for n in range(17):
                truncated = solve_shat_series(full, tau, BASE_L0, params, n)
                own = solve_shat_series(build_expansion(params, BASE_L0, n), tau, BASE_L0, params, n)
                assert (truncated.k, truncated.bracket, truncated.residuals) == (own.k, own.bracket, own.residuals)


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
