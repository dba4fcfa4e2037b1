"""Exponential-polynomial series: term validation, evaluation and the integrals L_k."""

import math
import random

import pytest
from scipy.integrate import quad

from sshat import ExpPolySeries, ExpPolyTerm, ModelParams, NumericalFailure, build_expansion

from _reference import BASE_L0
from test_perturbation import _max_abs_coeff, _random_valid_params


def series(*triples):
    return ExpPolySeries(tuple(ExpPolyTerm(*triple) for triple in triples))


def test_evaluate_constant():
    assert series((1.0, 0, 0.0)).evaluate(7.0) == 1.0


def test_evaluate_exponential_with_power():
    assert series((2.0, 1, 1.0)).evaluate(1.0) == pytest.approx(2.0 / math.e, rel=1e-15)


def test_evaluate_c0_initial_condition(base_params):
    c0 = build_expansion(base_params, BASE_L0, 0).c[0]
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
    assert build_expansion(p, c01, 0).L[0] == series((c01, 1, 0.0))


def test_integrate_c0_matches_order_zero_table_value(base_params):
    L0 = build_expansion(base_params, BASE_L0, 0).L[0]
    assert L0.evaluate(1.0) == pytest.approx(0.1006522, abs=5e-8)


def test_integrate_starts_at_zero_and_matches_quadrature(base_params):
    rng = random.Random(915203)
    for params in (base_params, _random_valid_params(rng), _random_valid_params(rng)):
        expansion = build_expansion(params, rng.uniform(0.01, 0.2), 6)
        for ck, Lk in zip(expansion.c, expansion.L):
            assert abs(Lk.evaluate(0.0)) <= 1e-15 * max(1.0, _max_abs_coeff(Lk))
            for tau in (0.5, 1.0, 5.0, 30.0):
                ref, _ = quad(ck.evaluate, 0.0, tau, epsabs=1e-13, epsrel=1e-12, limit=200)
                assert Lk.evaluate(tau) == pytest.approx(ref, rel=1e-10, abs=1e-11)


def test_term_validation():
    with pytest.raises(ValueError):
        ExpPolyTerm(math.inf, 0, 0.0)
    with pytest.raises(ValueError):
        ExpPolyTerm(1.0, -1, 0.0)
    with pytest.raises(ValueError):
        ExpPolyTerm(1.0, 0, math.nan)
