"""Exponential-polynomial series: term validation, and evaluation on the closed form of c_0 and L_0."""

import math
import random

import pytest
from scipy.integrate import quad

from sshat import ModelParams, NumericalFailure, build_expansion, tau_lbar_terms
from sshat.expseries import ExpPolySeries, ExpPolyTerm
from sshat.perturbation import _ell_terms

from _reference import BASE_L0
from test_perturbation import _random_valid_params


def series(*triples):
    return ExpPolySeries(tuple(ExpPolyTerm(*triple) for triple in triples))


def test_evaluate_constant():
    assert series((1.0, 0, 0.0)).evaluate(7.0) == 1.0


def test_evaluate_exponential_with_power():
    assert series((2.0, 1, 1.0)).evaluate(1.0) == pytest.approx(2.0 / math.e, rel=1e-15)


def closed_form_c0_L0(params, l0):
    """c_0 and L_0 as series, from the closed form alpha_0 + beta_00 exp(-mu_hat t)."""
    expansion = build_expansion(params, l0, 0)
    alpha, beta, mu_hat = expansion.alpha[0], expansion.beta[0, 0], params.mu_hat
    c0 = series((alpha, 0, 0.0), (beta, 0, mu_hat))
    L0 = series((alpha, 1, 0.0), (-beta / mu_hat, 0, mu_hat), (beta / mu_hat, 0, 0.0))
    return c0, L0


def test_evaluate_c0_initial_condition(base_params):
    c0, _ = closed_form_c0_L0(base_params, BASE_L0)
    assert c0.evaluate(0.0) == pytest.approx(BASE_L0, abs=1e-16)


def test_evaluate_overflow_raises():
    s = series((1.0, 0, -1000.0))
    with pytest.raises(NumericalFailure):
        s.evaluate(1000.0)


def test_evaluate_rejects_non_finite_time():
    with pytest.raises(ValueError):
        series((1.0, 0, 0.0)).evaluate(math.nan)


def test_integrate_constant():
    # At the equilibrium start c_0 is the constant c01; its integral is the slope c01 t.
    p = ModelParams(m=0.72, mu=0.02, gamma=0.0, sigma2=3e-4)
    c01 = p.sigma2 / p.mu_hat
    expansion = build_expansion(p, c01, 0)
    _, L0 = closed_form_c0_L0(p, c01)
    for tau in (0.5, 1.0, 30.0):
        expected = series((c01, 1, 0.0)).evaluate(tau)
        assert L0.evaluate(tau) == expected
        assert tau_lbar_terms(expansion, tau)[0] == pytest.approx(expected, rel=1e-14)


def test_integrate_c0_matches_order_zero_table_value(base_params):
    _, L0 = closed_form_c0_L0(base_params, BASE_L0)
    assert L0.evaluate(1.0) == pytest.approx(0.1006522, abs=5e-8)
    quadrature = tau_lbar_terms(build_expansion(base_params, BASE_L0, 0), 1.0)[0]
    assert L0.evaluate(1.0) == pytest.approx(quadrature, rel=1e-14)


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


def test_term_validation():
    with pytest.raises(ValueError):
        ExpPolyTerm(math.inf, 0, 0.0)
    with pytest.raises(ValueError):
        ExpPolyTerm(1.0, -1, 0.0)
    with pytest.raises(ValueError):
        ExpPolyTerm(1.0, 0, math.nan)
