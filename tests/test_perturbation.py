"""The coefficient recursion, its closed-form identities and the table values."""

import math
import random

import numpy as np
import pytest

from sshat import (
    ExpPolySeries,
    InitialState,
    ModelParams,
    N_MAX,
    NumericalFailure,
    build_expansion,
    integrate_ell,
    tau_lbar_terms,
)
from sshat.perturbation import _nodes, _quadrature

from _reference import BASE, BASE_L0, TABLE_S0


def _coeff_at(series: ExpPolySeries, power: int, rate: float, tol: float) -> float:
    matches = [t for t in series.terms if t.power == power and abs(t.rate - rate) <= tol]
    assert len(matches) == 1, f"expected one term at (p={power}, r={rate}), got {matches}"
    return matches[0].coeff


def _max_abs_coeff(series: ExpPolySeries) -> float:
    return max((abs(t.coeff) for t in series.terms), default=0.0)


def _ode_residual(ck: ExpPolySeries, prev: ExpPolySeries, mu_hat: float, m: float, tol: float) -> list[float]:
    """Coefficients of c_k' + mu_hat c_k + exp(-m t) c_{k-1}, collected by rate.

    Applied term by term: a exp(-r t) in c_k gives (mu_hat - r) a at rate r,
    and a exp(-r t) in c_{k-1} gives a at rate r + m.  Rates within ``tol``
    are collected as one.
    """
    assert all(t.power == 0 for t in ck.terms + prev.terms)
    collected = []  # [rate, coeff] pairs
    contributions = [(t.rate, (mu_hat - t.rate) * t.coeff) for t in ck.terms]
    contributions += [(t.rate + m, t.coeff) for t in prev.terms]
    for rate, coeff in contributions:
        for entry in collected:
            if abs(entry[0] - rate) <= tol:
                entry[1] += coeff
                break
        else:
            collected.append([rate, coeff])
    return [coeff for _, coeff in collected]


def closed_form_c_coeffs(mu_hat: float, m: float, c01: float, c02: float) -> dict:
    """Hand-derived closed forms for the first three recursion steps.

    Each c_k is a combination of exponentials at rates {mu_hat + j*m} and
    {k*m}; the coefficients follow the divided-difference pattern below, and
    the rate-mu_hat coefficient makes each c_k vanish at zero.
    """
    c11 = c02 / m
    c12 = -c01 / (mu_hat - m)
    c13 = -(c11 + c12)
    c21 = c13 / m
    c22 = c11 / (2 * m)
    c23 = -c12 / (mu_hat - 2 * m)
    c24 = -(c21 + c22 + c23)
    c31 = c24 / m
    c32 = c21 / (2 * m)
    c33 = c22 / (3 * m)
    c34 = -c23 / (mu_hat - 3 * m)
    c35 = -(c31 + c32 + c33 + c34)
    return {
        1: {mu_hat + m: c11, m: c12, mu_hat: c13},
        2: {mu_hat + m: c21, mu_hat + 2 * m: c22, 2 * m: c23, mu_hat: c24},
        3: {mu_hat + m: c31, mu_hat + 2 * m: c32, mu_hat + 3 * m: c33, 3 * m: c34, mu_hat: c35},
    }


def closed_form_L_coeffs(mu_hat: float, m: float, c01: float, c02: float) -> dict:
    """Closed forms for the integrals L_0..L_3 (exponential part plus constant).

    Returned as {k: (exp_rate_to_coeff, constant, linear_slope)}; only L_0
    carries a linear term, with slope c01.
    """
    c = closed_form_c_coeffs(mu_hat, m, c01, c02)
    L0_exp = {mu_hat: -c02 / mu_hat}
    L0_const = c02 / mu_hat
    out = {0: (L0_exp, L0_const, c01)}
    for k in (1, 2, 3):
        exp_part = {rate: -coeff / rate for rate, coeff in c[k].items()}
        const = -math.fsum(exp_part.values())
        out[k] = (exp_part, const, 0.0)
    return out


def _forward_sum(terms, eps: float) -> float:
    """sum_k terms[k] eps^k, summed in increasing powers as the CLI sums it."""
    total = 0.0
    power = 1.0
    for term in terms:
        total += term * power
        power *= eps
    return total


def _eval_ell(expansion, eps: float, t: float) -> float:
    """Truncated consol rate sum_k c_k(t) eps^k."""
    return _forward_sum([ck.evaluate(t) for ck in expansion.c], eps)


def _eval_tau_lbar(expansion, eps: float, tau: float) -> float:
    """Truncated integral term sum_k L_k(tau) eps^k."""
    return _forward_sum(tau_lbar_terms(expansion, tau), eps)


def _random_valid_params(rng) -> ModelParams:
    while True:
        try:
            p = ModelParams(
                m=rng.uniform(0.2, 2.0),
                mu=rng.uniform(-0.05, 0.05),
                gamma=rng.uniform(0.0, 0.02),
                sigma2=rng.uniform(1e-5, 1e-3),
                lam=rng.uniform(-1.0, 1.0),
            )
        except ValueError:
            continue
        if abs(p.mu_hat) > 1e-4:
            return p


def test_build_c0_base(base_params):
    c0 = build_expansion(base_params, BASE_L0, 0).c[0]
    tol = base_params.delta_gen
    assert _coeff_at(c0, 0, 0.0, tol) == pytest.approx(-0.03, rel=1e-15)
    assert _coeff_at(c0, 0, base_params.mu_hat, tol) == pytest.approx(0.13, rel=1e-15)
    assert c0.evaluate(0.0) == pytest.approx(BASE_L0, abs=1e-16)


def test_build_c0_equilibrium_start_is_constant():
    p = ModelParams(m=0.72, mu=0.02, gamma=0.0, sigma2=3e-4)
    l0 = p.sigma2 / p.mu_hat
    c0 = build_expansion(p, l0, 0).c[0]
    assert len(c0.terms) == 1
    assert c0.terms[0].rate == 0.0
    assert c0.evaluate(13.0) == pytest.approx(l0, rel=1e-15)


def test_next_c_first_order_coefficients(base_params):
    mh, m = base_params.mu_hat, base_params.m
    c1 = build_expansion(base_params, BASE_L0, 1).c[1]
    c01 = base_params.sigma2 / mh
    c02 = BASE_L0 - c01
    tol = base_params.delta_gen
    assert _coeff_at(c1, 0, mh + m, tol) == pytest.approx(c02 / m, rel=1e-13)
    assert _coeff_at(c1, 0, m, tol) == pytest.approx(-c01 / (mh - m), rel=1e-13)
    expected_c13 = -(c02 / m - c01 / (mh - m))
    assert _coeff_at(c1, 0, mh, tol) == pytest.approx(expected_c13, rel=1e-13)


def test_next_c_second_order_spot_check(base_params):
    mh, m = base_params.mu_hat, base_params.m
    _, c1, c2 = build_expansion(base_params, BASE_L0, 2).c
    tol = base_params.delta_gen
    c11 = _coeff_at(c1, 0, mh + m, tol)
    assert _coeff_at(c2, 0, mh + 2 * m, tol) == pytest.approx(c11 / (2 * m), rel=1e-13)


@pytest.mark.parametrize("seed", [None, 101, 202, 303])
def test_closed_form_conformance(base_params, seed):
    """The recursion reproduces the hand-derived c_1..c_3 and L_0..L_3."""
    params = base_params if seed is None else _random_valid_params(random.Random(seed))
    mh, m = params.mu_hat, params.m
    l0 = 0.1
    c01 = params.sigma2 / mh
    c02 = l0 - c01
    tol = params.delta_gen
    expansion = build_expansion(params, l0, 3)

    expected_c = closed_form_c_coeffs(mh, m, c01, c02)
    for k in (1, 2, 3):
        assert len(expansion.c[k].terms) == len(expected_c[k])
        for rate, coeff in expected_c[k].items():
            assert _coeff_at(expansion.c[k], 0, rate, tol) == pytest.approx(coeff, rel=1e-12)

    expected_L = closed_form_L_coeffs(mh, m, c01, c02)
    for k in range(4):
        exp_part, const, slope = expected_L[k]
        for rate, coeff in exp_part.items():
            assert _coeff_at(expansion.L[k], 0, rate, tol) == pytest.approx(coeff, rel=1e-12)
        assert _coeff_at(expansion.L[k], 0, 0.0, tol) == pytest.approx(const, rel=1e-12)
        if slope:
            assert _coeff_at(expansion.L[k], 1, 0.0, tol) == pytest.approx(slope, rel=1e-12)


@pytest.mark.parametrize("seed", [None, 11, 57])
def test_ode_residual_identity_through_order_six(base_params, seed):
    """d/dt c_k + mu_hat c_k + exp(-m t) c_{k-1} cancels exactly, k = 1..6."""
    params = base_params if seed is None else _random_valid_params(random.Random(seed))
    expansion = build_expansion(params, 0.1, 6)
    for k in range(1, 7):
        ck, prev = expansion.c[k], expansion.c[k - 1]
        residual = _ode_residual(ck, prev, params.mu_hat, params.m, params.delta_gen)
        assert max(map(abs, residual)) <= 1e-12 * _max_abs_coeff(ck)


def test_coefficient_sum_rule(base_expansion_6):
    # c_k(0) = 0 for k >= 1 and L_k(0) = 0 for all k.
    for k, ck in enumerate(base_expansion_6.c):
        if k == 0:
            continue
        assert abs(ck.evaluate(0.0)) <= 1e-14 * _max_abs_coeff(ck)
    for Lk in base_expansion_6.L:
        assert abs(Lk.evaluate(0.0)) <= 1e-14 * max(1.0, _max_abs_coeff(Lk))


@pytest.mark.parametrize("seed", [None, 31, 62])
def test_two_family_structure_through_n_max(base_params, seed):
    """c_k: one term at k m, k + 1 at mu_hat + j m; L_k: k + 3 terms, a slope only in L_0."""
    params = base_params if seed is None else _random_valid_params(random.Random(seed))
    mh, m = params.mu_hat, params.m
    expansion = build_expansion(params, 0.1, N_MAX)
    for k, (ck, Lk) in enumerate(zip(expansion.c, expansion.L)):
        assert all(t.power == 0 for t in ck.terms)
        assert sorted(t.rate for t in ck.terms) == sorted([k * m] + [mh + j * m for j in range(k + 1)])
        assert len(Lk.terms) == k + 3
        slopes = [t for t in Lk.terms if t.power == 1]
        assert [(t.coeff, t.rate) for t in slopes] == ([(params.sigma2 / mh, 0.0)] if k == 0 else [])
        assert all(t.power == 0 for t in Lk.terms if t not in slopes)
        assert all(math.isfinite(t.coeff) and math.isfinite(t.rate) for t in ck.terms + Lk.terms)


def test_build_expansion_validation(base_params):
    with pytest.raises(ValueError):
        build_expansion(base_params, BASE_L0, -1)
    with pytest.raises(ValueError):
        build_expansion(base_params, BASE_L0, 17)
    with pytest.raises(ValueError):
        build_expansion(base_params, 0.0, 3)


@pytest.mark.parametrize("mu", [-0.01, 0.01])
def test_quadrature_nodes_are_bounded(mu):
    # The rule stops where |mu_hat| v leaves the range of exp, so no
    # maturity needs more than 10^4 nodes; past that point exp(-mu_hat v)
    # overflows (the coefficients raise) or underflows (they stay finite).
    params = ModelParams(**{**BASE, "mu": mu})
    for tau in np.logspace(-6, 6, 61).tolist():
        v, u, w = _nodes(params, tau)
        assert v.size <= 10**4
        assert 0.0 <= v.min() and v.max() <= tau and u.min() >= 0.0
        try:
            terms = _quadrature(params, tau, 16, 16)
        except NumericalFailure:
            assert mu < 0, tau
        else:
            assert np.isfinite(terms).all()


def test_tau_lbar_table_values(base_params, base_expansion):
    # Published 7-decimal approximations of the integral term at tau = 1.
    cases = [
        (-0.05, 3, 0.1022756),
        (-0.05, 1, 0.1022593),
        (0.0, 1, 0.1002504),
        (0.05, 2, 0.0982780),
    ]
    terms = tau_lbar_terms(base_expansion, 1.0)
    for s0, order, expected in cases:
        eps = s0 - base_params.mu_hat
        got = math.fsum(terms[k] * eps**k for k in range(order + 1))
        assert got == pytest.approx(expected, abs=5e-8)


def test_order_zero_column_is_constant(base_params):
    expansion = build_expansion(base_params, BASE_L0, 0)
    values = {_eval_tau_lbar(expansion, s0 - base_params.mu_hat, 1.0) for s0 in TABLE_S0}
    assert len(values) == 1
    assert values.pop() == pytest.approx(0.1006522, abs=5e-8)


def test_eval_ell_reduces_to_c0_at_zero_eps(base_expansion):
    for t in (0.0, 0.4, 2.0):
        assert _eval_ell(base_expansion, 0.0, t) == base_expansion.c[0].evaluate(t)


def test_eval_ell_initial_condition(base_expansion):
    for eps in (-0.04, 0.01, 0.06):
        assert _eval_ell(base_expansion, eps, 0.0) == pytest.approx(BASE_L0, abs=1e-15)


def test_eval_ell_tracks_integrated_path(base_params, base_expansion):
    # Order-3 truncation against the integrator at a few interior times.
    state = InitialState(s0=0.05, l0=BASE_L0)
    eps = state.s0 - base_params.mu_hat
    for t in (0.25, 0.5, 1.0):
        path, _ = integrate_ell(state, base_params, t, 2000)
        reference = path[-1, 1]
        assert abs(_eval_ell(base_expansion, eps, t) - reference) < 1e-6


def test_eval_tau_lbar_zero_eps_is_L0(base_expansion):
    L0 = tau_lbar_terms(base_expansion, 1.0)[0]
    assert _eval_tau_lbar(base_expansion, 0.0, 1.0) == L0
    # The term table's L_0 sums exp(-r tau) terms, tau_lbar_terms 1 - exp(-r tau) ones.
    assert L0 == pytest.approx(base_expansion.L[0].evaluate(1.0), rel=1e-14)


def test_eval_tau_lbar_vanishes_at_zero_maturity(base_expansion):
    # L_k(0) = 0, so the value decays like l0 * tau for small maturities.
    assert abs(_eval_tau_lbar(base_expansion, 0.06, 1e-9)) < 1.1 * BASE_L0 * 1e-9
    assert abs(_eval_tau_lbar(base_expansion, 0.06, 1e-12)) < 1.1 * BASE_L0 * 1e-12
    assert _eval_tau_lbar(base_expansion, 0.06, 1e-9) == pytest.approx(BASE_L0 * 1e-9, rel=1e-3)


def test_eval_tau_lbar_mid_column_value(base_params):
    expansion = build_expansion(base_params, BASE_L0, 1)
    eps = 0.0 - base_params.mu_hat
    assert _eval_tau_lbar(expansion, eps, 1.0) == pytest.approx(0.1002504, abs=5e-8)


def test_eval_tau_lbar_rejects_nonpositive_maturity(base_expansion):
    with pytest.raises(ValueError):
        _eval_tau_lbar(base_expansion, 0.01, 0.0)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_tau_lbar_terms_rejects_non_finite_maturity(base_expansion, tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        tau_lbar_terms(base_expansion, tau)


def test_truncation_error_halves_at_expected_rate(base_params, base_expansion):
    """Error against the integrator scales as eps^(N+1)."""
    terms = tau_lbar_terms(base_expansion, 1.0)
    reference = {}
    for eps in (0.04, 0.02):
        state = InitialState(s0=base_params.mu_hat + eps, l0=BASE_L0)
        _, reference[eps] = integrate_ell(state, base_params, 1.0, 40000)
    for order in range(4):
        errs = [
            abs(math.fsum(terms[k] * eps**k for k in range(order + 1)) - reference[eps])
            for eps in (0.04, 0.02)
        ]
        ratio = errs[0] / errs[1]
        assert 2 ** (order + 1) * 0.8 <= ratio <= 2 ** (order + 1) * 1.25
