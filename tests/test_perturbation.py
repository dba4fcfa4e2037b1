"""The coefficient recursion, its closed-form identities and the table values."""

import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from sshat import (
    EllExpansion,
    InitialState,
    ModelParams,
    N_MAX,
    NumericalFailure,
    build_expansion,
    integrate_ell,
    tau_lbar_terms,
)
from sshat.perturbation import _ell_terms, _nodes, _quadrature

from _reference import BASE, BASE_L0, PATH_REFERENCE, TABLE_S0


def _max_abs_coeff(alpha, beta, k: int) -> float:
    """The largest |coefficient| of c_k in the closed form."""
    return max(abs(alpha[k]), float(np.abs(beta[k]).max()))


def _ode_residual(alpha, beta, k: int, mu_hat: float, m: float) -> list[float]:
    """Coefficients of c_k' + mu_hat c_k + exp(-m t) c_{k-1}, one per rate, k >= 1.

    Applied term by term: a exp(-r t) in c_k gives (mu_hat - r) a at rate r,
    and a exp(-r t) in c_{k-1} gives a at rate r + m.  At rate k m that
    collects alpha_k and alpha_{k-1}; at mu_hat + j m, beta_{k,j} and
    beta_{k-1,j-1}; at mu_hat, (mu_hat - mu_hat) beta_{k,0} = 0 alone.
    """
    return [(mu_hat - k * m) * alpha[k] + alpha[k - 1]] + [
        -j * m * beta[k, j] + beta[k - 1, j - 1] for j in range(1, k + 1)
    ]


def closed_form_c_coeffs(mu_hat: float, m: float, c01: float, c02: float) -> dict:
    """Hand-derived closed forms for the first three recursion steps.

    Each c_k is a combination of exponentials at the rates k*m (alpha_k)
    and mu_hat + j*m (beta_kj, j = 0..k); the coefficients follow the
    divided-difference pattern below, and the rate-mu_hat coefficient makes
    each c_k vanish at zero.  Returned as {k: (alpha_k, (beta_k0, ..., beta_kk))}.
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
        1: (c12, (c13, c11)),
        2: (c23, (c24, c21, c22)),
        3: (c34, (c35, c31, c32, c33)),
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
        alpha, beta = c[k]
        rates = {k * m: alpha, **{mu_hat + j * m: b for j, b in enumerate(beta)}}
        exp_part = {rate: -coeff / rate for rate, coeff in rates.items()}
        const = -math.fsum(exp_part.values())
        out[k] = (exp_part, const, 0.0)
    return out


def closed_form_L_value(expected_L: dict, k: int, tau: float) -> float:
    """L_k(tau) of ``closed_form_L_coeffs``, summed by math.fsum."""
    exp_part, const, slope = expected_L[k]
    return math.fsum([coeff * math.exp(-rate * tau) for rate, coeff in exp_part.items()] + [const, slope * tau])


def _forward_sum(terms, eps: float) -> float:
    """sum_k terms[k] eps^k, summed in increasing powers as the CLI sums it."""
    total = 0.0
    power = 1.0
    for term in terms:
        total += term * power
        power *= eps
    return total


def _eval_ell(expansion, eps: float, t: float) -> float:
    """Truncated consol rate sum_k c_k(t) eps^k, from the c_k(t) that ``path`` prints."""
    return _forward_sum(_ell_terms(expansion, t).tolist(), eps)


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
    expansion = build_expansion(base_params, BASE_L0, 0)
    assert expansion.alpha[0] == pytest.approx(-0.03, rel=1e-15)
    assert expansion.beta[0, 0] == pytest.approx(0.13, rel=1e-15)
    assert _ell_terms(expansion, 0.0)[0] == pytest.approx(BASE_L0, abs=1e-16)


def test_build_c0_equilibrium_start_is_constant():
    p = ModelParams(m=0.72, mu=0.02, gamma=0.0, sigma2=3e-4)
    l0 = p.sigma2 / p.mu_hat
    expansion = build_expansion(p, l0, 0)
    assert expansion.alpha.tolist() == [l0]
    assert expansion.beta.tolist() == [[0.0]]
    assert _ell_terms(expansion, 13.0)[0] == pytest.approx(l0, rel=1e-15)


def test_next_c_first_order_coefficients(base_params):
    mh, m = base_params.mu_hat, base_params.m
    expansion = build_expansion(base_params, BASE_L0, 1)
    alpha, beta = expansion.alpha, expansion.beta
    c01 = base_params.sigma2 / mh
    c02 = BASE_L0 - c01
    assert beta[1, 1] == pytest.approx(c02 / m, rel=1e-13)
    assert alpha[1] == pytest.approx(-c01 / (mh - m), rel=1e-13)
    expected_c13 = -(c02 / m - c01 / (mh - m))
    assert beta[1, 0] == pytest.approx(expected_c13, rel=1e-13)


def test_next_c_second_order_spot_check(base_params):
    beta = build_expansion(base_params, BASE_L0, 2).beta
    assert beta[2, 2] == pytest.approx(beta[1, 1] / (2 * base_params.m), rel=1e-13)


@pytest.mark.parametrize("seed", [None, 101, 202, 303])
def test_closed_form_conformance(base_params, seed):
    """The recursion reproduces the hand-derived c_1..c_3, and the quadrature L_0..L_3."""
    params = base_params if seed is None else _random_valid_params(random.Random(seed))
    mh, m = params.mu_hat, params.m
    l0 = 0.1
    c01 = params.sigma2 / mh
    c02 = l0 - c01
    expansion = build_expansion(params, l0, 3)
    alpha, beta = expansion.alpha, expansion.beta

    for k, (expected_alpha, expected_beta) in closed_form_c_coeffs(mh, m, c01, c02).items():
        assert alpha[k] == pytest.approx(expected_alpha, rel=1e-12)
        for j, coeff in enumerate(expected_beta):
            assert beta[k, j] == pytest.approx(coeff, rel=1e-12)
        assert not beta[k, k + 1 :].any()

    expected_L = closed_form_L_coeffs(mh, m, c01, c02)
    for tau in (1.0, 2.0, 5.0):
        for k, value in enumerate(tau_lbar_terms(expansion, tau)):
            assert value == pytest.approx(closed_form_L_value(expected_L, k, tau), rel=1e-12)


@pytest.mark.parametrize("seed", [None, 11, 57])
def test_ode_residual_identity_through_order_six(base_params, seed):
    """d/dt c_k + mu_hat c_k + exp(-m t) c_{k-1} cancels exactly, k = 1..6."""
    params = base_params if seed is None else _random_valid_params(random.Random(seed))
    expansion = build_expansion(params, 0.1, 6)
    alpha, beta = expansion.alpha, expansion.beta
    for k in range(1, 7):
        residual = _ode_residual(alpha, beta, k, params.mu_hat, params.m)
        assert max(map(abs, residual)) <= 1e-12 * _max_abs_coeff(alpha, beta, k)


def test_coefficient_sum_rule(base_expansion_6):
    # c_k(0) = 0 for k >= 1: in the closed form to rounding, and exactly
    # from the quadrature, whose rule has no width at t = 0.
    alpha, beta = base_expansion_6.alpha, base_expansion_6.beta
    for k in range(1, 7):
        assert abs(math.fsum([alpha[k], *beta[k].tolist()])) <= 1e-14 * _max_abs_coeff(alpha, beta, k)
    assert _ell_terms(base_expansion_6, 0.0).tolist() == [BASE_L0] + [0.0] * 6


@pytest.mark.parametrize("seed", [None, 31, 62])
def test_two_family_structure_through_n_max(base_params, seed):
    """c_k: one term at k m (alpha_k) and k + 1 at mu_hat + j m (row k of a lower-triangular beta)."""
    params = base_params if seed is None else _random_valid_params(random.Random(seed))
    expansion = build_expansion(params, 0.1, N_MAX)
    alpha, beta = expansion.alpha, expansion.beta
    assert alpha.shape == (N_MAX + 1,) and beta.shape == (N_MAX + 1, N_MAX + 1)
    assert not (alpha.flags.writeable or beta.flags.writeable)
    assert np.isfinite(alpha).all() and np.isfinite(beta).all()
    assert alpha.all() and beta[np.tril_indices(N_MAX + 1)].all()
    assert not beta[np.triu_indices(N_MAX + 1, 1)].any()


def test_path_terms_match_reference(base_params):
    # c_0..c_16 at four times against 60-digit mpmath, where the closed
    # form's alternating sums put c_16 off by 1e22 relative at t = 0.01.
    expansion = build_expansion(base_params, BASE_L0, N_MAX)
    for t, expected in PATH_REFERENCE.items():
        got = _ell_terms(expansion, t)
        assert np.abs(got / np.array(expected) - 1.0).max() <= 1e-13, t


def test_build_expansion_validation(base_params):
    with pytest.raises(ValueError):
        build_expansion(base_params, BASE_L0, -1)
    with pytest.raises(ValueError):
        build_expansion(base_params, BASE_L0, 17)
    # Orders are integers: a float, even an integral one, is rejected.
    # So is a bool, which Python counts as an int.
    for order in (2.5, 3.0, True, np.True_):
        with pytest.raises(ValueError, match=r"^expansion order must be in \[0, 16\], got "):
            build_expansion(base_params, BASE_L0, order)
    with pytest.raises(ValueError):
        build_expansion(base_params, 0.0, 3)
    with pytest.raises(ValueError, match="^l0 must be a number"):
        build_expansion(base_params, "0.1", 3)


def test_expansion_stores_the_validated_l0(base_params):
    # A numpy l0 is stored as the float it validates to, so the record hashes
    # and compares like one built from that float; direct construction
    # validates as build_expansion does.
    for l0 in (np.float32(0.1), np.array(0.1), np.float64(0.1)):
        expansion = build_expansion(base_params, l0, 3)
        assert type(expansion.l0) is float and expansion.l0 == float(l0)
        twin = build_expansion(base_params, float(l0), 3)
        assert expansion == twin and hash(expansion) == hash(twin)
    with pytest.raises(ValueError, match="expansion order"):
        EllExpansion(order=17, params=base_params, l0=BASE_L0)
    with pytest.raises(ValueError, match="l0"):
        EllExpansion(order=3, params=base_params, l0=-0.1)


@pytest.mark.parametrize("mu", [-0.01, 0.0, 0.01])
def test_quadrature_nodes_are_bounded(mu):
    # The rule stops where |mu_hat| v leaves the range of exp, so no
    # maturity needs more than 10^4 nodes; past that point exp(-mu_hat v)
    # overflows (the coefficients raise) or underflows (they stay finite).
    # At mu_hat = 0 the count grows only with log(m tau).
    params = ModelParams(**{**BASE, "mu": mu})
    for tau in np.logspace(-6, 6, 61).tolist():
        v, u, w = _nodes(params, tau)
        assert v.size <= 10**4
        assert 0.0 <= v.min() and v.max() <= tau and u.min() >= 0.0
        try:
            terms = _quadrature(params, tau, 16)
        except NumericalFailure:
            assert mu < 0, tau
        else:
            assert np.isfinite(terms).all()


def test_path_terms_overflow_raises(base_params):
    # exp(-mu_hat t) overflows past mu_hat t = -log(DBL_MAX), about -709.8.
    expansion = build_expansion(base_params, BASE_L0, 3)
    assert np.isfinite(_ell_terms(expansion, 70000.0)).all()
    with pytest.raises(NumericalFailure, match=r"path coefficients overflowed at k0\*t=-710.0"):
        _ell_terms(expansion, 71000.0)


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
        assert _eval_ell(base_expansion, 0.0, t) == _ell_terms(base_expansion, t)[0]


def test_eval_ell_initial_condition(base_expansion):
    for eps in (-0.04, 0.01, 0.06):
        assert _eval_ell(base_expansion, eps, 0.0) == pytest.approx(BASE_L0, abs=1e-15)


def test_eval_ell_tracks_integrated_path(base_params, base_expansion):
    # Order-3 truncation against the integrator at a few interior times.
    state = InitialState(s0=0.05, l0=BASE_L0)
    eps = state.s0 - base_params.mu_hat
    for t in (0.25, 0.5, 1.0):
        path, _ = integrate_ell(state, base_params, t, 2000, 2)
        reference = path[-1, 1]
        assert abs(_eval_ell(base_expansion, eps, t) - reference) < 1e-6


def test_eval_tau_lbar_zero_eps_is_L0(base_expansion):
    L0 = tau_lbar_terms(base_expansion, 1.0)[0]
    assert _eval_tau_lbar(base_expansion, 0.0, 1.0) == L0
    # The closed form L_0(t) = alpha_0 t + beta_00 (1 - exp(-mu_hat t)) / mu_hat.
    mu_hat = base_expansion.params.mu_hat
    closed = base_expansion.alpha[0] - base_expansion.beta[0, 0] * math.expm1(-mu_hat) / mu_hat
    assert L0 == pytest.approx(closed, rel=1e-14)


def test_integrate_constant():
    # At the equilibrium start c_0 is the constant c01; its integral is the slope c01 t.
    p = ModelParams(m=0.72, mu=0.02, gamma=0.0, sigma2=3e-4)
    c01 = p.sigma2 / p.mu_hat
    expansion = build_expansion(p, c01, 0)
    for tau in (0.5, 1.0, 30.0):
        assert tau_lbar_terms(expansion, tau)[0] == pytest.approx(c01 * tau, rel=1e-14)


def test_integrate_starts_at_zero_and_matches_quadrature(base_params):
    # L_k(tau), the integral of c_k over [0, tau], against scipy's quad of the
    # c_k(t) that path prints.
    rng = random.Random(915203)
    for params in (base_params, _random_valid_params(rng), _random_valid_params(rng)):
        expansion = build_expansion(params, rng.uniform(0.01, 0.2), 6)
        assert max(map(abs, tau_lbar_terms(expansion, 1e-300))) <= 1e-15
        for tau in (0.5, 1.0, 5.0, 30.0):
            L = tau_lbar_terms(expansion, tau)
            for k in range(7):
                ck = lambda t: _ell_terms(expansion, t)[k]  # noqa: E731
                ref, _ = quad(ck, 0.0, tau, epsabs=1e-13, epsrel=1e-12, limit=200)
                assert L[k] == pytest.approx(ref, rel=1e-10, abs=1e-11)


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
        _, reference[eps] = integrate_ell(state, base_params, 1.0, 40000, 2)
    for order in range(4):
        errs = [
            abs(math.fsum(terms[k] * eps**k for k in range(order + 1)) - reference[eps])
            for eps in (0.04, 0.02)
        ]
        ratio = errs[0] / errs[1]
        assert 2 ** (order + 1) * 0.8 <= ratio <= 2 ** (order + 1) * 1.25
