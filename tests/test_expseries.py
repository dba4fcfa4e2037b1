"""Exponential-polynomial series algebra: evaluation, calculus, canonical form."""

import math
import random

import pytest
from scipy.integrate import quad

from sshat import (
    DegenerateRateError,
    ExpPolySeries,
    ExpPolyTerm,
    NumericalFailure,
    build_expansion,
    combine,
)

from _reference import BASE_L0


def series(*triples, tol=0.0):
    return ExpPolySeries.from_terms(triples, rate_tol=tol)


def _random_series(rng, params, n_terms=None):
    """Random series with rates from the model's natural rate set."""
    rates = [j * params.m for j in range(6)] + [params.mu_hat + j * params.m for j in range(6)]
    count = n_terms if n_terms is not None else rng.randint(1, 6)
    return ExpPolySeries.from_terms(
        [(rng.uniform(-2, 2), rng.randint(0, 1), rng.choice(rates)) for _ in range(count)],
        rate_tol=params.delta_gen,
    )


def _assert_canonical(s: ExpPolySeries, tol: float):
    keys = [(t.power, t.rate) for t in s.terms]
    assert keys == sorted(keys)
    for (p1, r1), (p2, r2) in zip(keys, keys[1:]):
        assert p1 != p2 or abs(r1 - r2) > tol
    assert all(t.coeff != 0.0 for t in s.terms)


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
    assert series((2.5, 0, 0.0)).integrate_from_zero() == series((2.5, 1, 0.0))


def test_integrate_pure_exponential():
    got = series((3.0, 0, 2.0)).integrate_from_zero()
    assert got == series((-1.5, 0, 2.0), (1.5, 0, 0.0))


def test_integrate_c0_matches_order_zero_table_value(base_params):
    c0 = build_expansion(base_params, BASE_L0, 0).c[0]
    L0 = c0.integrate_from_zero(rate_tol=base_params.delta_gen)
    assert L0.evaluate(1.0) == pytest.approx(0.1006522, abs=5e-8)


def test_integrate_degenerate_rate_raises():
    with pytest.raises(DegenerateRateError):
        series((1.0, 0, 1e-12)).integrate_from_zero(rate_tol=1e-9)


def test_integrate_power_against_quadrature():
    # Powers above one stay in class through repeated integration by parts.
    s = series((1.3, 2, 0.7))
    F = s.integrate_from_zero()
    ref, _ = quad(s.evaluate, 0.0, 2.0, epsabs=1e-14, epsrel=1e-13)
    assert F.evaluate(2.0) == pytest.approx(ref, rel=1e-12)


def test_integrate_starts_at_zero_and_matches_quadrature(base_params):
    rng = random.Random(915203)
    taus = (0.5, 1.0, 5.0, 30.0)
    for _ in range(100):
        s = _random_series(rng, base_params)
        F = s.integrate_from_zero(rate_tol=base_params.delta_gen)
        scale = math.fsum(abs(t.coeff) for t in F.terms)
        assert abs(F.evaluate(0.0)) <= 1e-15 * max(1.0, scale)
        tau = rng.choice(taus)
        ref, err = quad(s.evaluate, 0.0, tau, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert F.evaluate(tau) == pytest.approx(ref, rel=1e-10, abs=1e-11)


def test_differentiate_constant_is_empty():
    assert series((4.0, 0, 0.0)).differentiate().is_zero()


def test_differentiate_exponential():
    assert series((1.0, 0, 2.0)).differentiate() == series((-2.0, 0, 2.0))


def _drop_negligible(s: ExpPolySeries) -> list[ExpPolyTerm]:
    floor = 1e-14 * s.max_abs_coeff()
    return [t for t in s.terms if abs(t.coeff) > floor]


def test_differentiate_undoes_integration(base_params):
    # Canonical round trip; one rounding per integration-by-parts step means
    # cancellations can leave coefficients at the 1e-17 level, which do not
    # count as terms.
    rng = random.Random(424242)
    tol = base_params.delta_gen
    for _ in range(50):
        s = _random_series(rng, base_params)
        back = s.integrate_from_zero(rate_tol=tol).differentiate(rate_tol=tol)
        got_terms = _drop_negligible(back)
        assert len(got_terms) == len(s.terms)
        for got, want in zip(got_terms, s.terms):
            assert got.power == want.power
            assert got.rate == pytest.approx(want.rate, abs=tol)
            assert got.coeff == pytest.approx(want.coeff, rel=1e-13)


def test_combine_cancels_itself(base_params):
    s = _random_series(random.Random(7), base_params)
    assert combine(s, s, 1.0, -1.0).is_zero()


def test_combine_with_zero_scales():
    s = series((1.5, 0, 1.0), (2.0, 1, 0.0))
    doubled = combine(s, ExpPolySeries.zero(), 2.0, 1.0)
    assert doubled == series((3.0, 0, 1.0), (4.0, 1, 0.0))


def test_combine_merges_matching_terms():
    got = combine(series((3.0, 0, 0.9)), series((-1.0, 0, 0.9)))
    assert got == series((2.0, 0, 0.9))


def test_multiply_by_exp_zero_shift_is_identity(base_params):
    s = _random_series(random.Random(11), base_params)
    assert s.multiply_by_exp(0.0) == s


def test_multiply_by_exp_shifts_rate():
    assert series((1.0, 0, 0.3)).multiply_by_exp(0.72) == series((1.0, 0, 1.02))


def test_multiply_by_exp_c0_rate_set(base_params):
    c0 = build_expansion(base_params, BASE_L0, 0).c[0]
    shifted = c0.multiply_by_exp(base_params.m, rate_tol=base_params.delta_gen)
    rates = sorted(t.rate for t in shifted.terms)
    mh, m = base_params.mu_hat, base_params.m
    assert rates == pytest.approx(sorted([m, mh + m]), abs=1e-15)


def test_operations_preserve_canonical_form(base_params):
    rng = random.Random(5150)
    tol = base_params.delta_gen
    for _ in range(25):
        a = _random_series(rng, base_params)
        b = _random_series(rng, base_params)
        for result in (
            combine(a, b, rng.uniform(-2, 2), rng.uniform(-2, 2), rate_tol=tol),
            a.integrate_from_zero(rate_tol=tol),
            a.differentiate(rate_tol=tol),
            a.multiply_by_exp(rng.uniform(-1, 1), rate_tol=tol),
        ):
            _assert_canonical(result, tol)


def test_canonicalization_merges_ulp_spaced_rates():
    r = 0.71
    jittered = r + 1e-13
    merged = series((1.0, 0, r), (1.0, 0, jittered), tol=1e-9)
    assert len(merged.terms) == 1
    assert merged.terms[0].coeff == 2.0


def test_term_validation():
    with pytest.raises(ValueError):
        ExpPolyTerm(math.inf, 0, 0.0)
    with pytest.raises(ValueError):
        ExpPolyTerm(1.0, -1, 0.0)
    with pytest.raises(ValueError):
        ExpPolyTerm(1.0, 18, 0.0)
    with pytest.raises(ValueError):
        ExpPolyTerm(1.0, 0, math.nan)


def test_debug_lines_format():
    lines = series((0.5, 1, 0.25)).to_debug_lines()
    assert lines == ["0.5 * t^1 * exp(-0.25*t)"]
    assert len(series((1.0, 0, 0.0), (2.0, 0, 1.0)).to_debug_lines()) == 2
