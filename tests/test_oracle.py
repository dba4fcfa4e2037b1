"""Integrator and root-finder ground truth: convergence order, closed forms."""

import math

import pytest

from sshat import (
    BracketingError,
    InitialState,
    ModelParams,
    NumericalFailure,
    abar_closed_s0_equals_muhat,
    build_expansion,
    compute_oracle,
    compute_oracles,
    default_n_steps,
    integrate_ell,
    solve_shat_numeric,
    solve_shat_series,
)
from sshat.oracle import TOL_ROOT, residual_cleared

from _reference import BASE_L0, BASE_TAU, TABLE_S0, TRUE_SHAT, TRUE_TAU_LBAR


def test_default_step_counts():
    assert default_n_steps(1.0) == 1000
    assert default_n_steps(0.25) == 1000
    assert default_n_steps(30.0) == 30000


def test_integrate_validation(base_params):
    state = InitialState(s0=0.0, l0=BASE_L0)
    with pytest.raises(ValueError):
        integrate_ell(state, base_params, 0.0, 1000)
    with pytest.raises(ValueError):
        integrate_ell(state, base_params, 1.0, 15)


def test_integrate_near_zero_dynamics(base_params):
    # The zero-dynamics limit: vanishing volatility scale and initial rate
    # give a path that stays at machine zero (exact zeros are outside the
    # parameter domain).
    p = ModelParams(m=base_params.m, mu=base_params.mu, gamma=base_params.gamma, sigma2=1e-30)
    state = InitialState(s0=0.05, l0=1e-30)
    path, tau_lbar = integrate_ell(state, p, 1.0, 256)
    assert abs(tau_lbar) < 1e-25
    assert max(abs(ell) for ell in path[:, 1]) < 1e-25


def test_integrate_matches_closed_form_at_equilibrium(base_params):
    state = InitialState(s0=base_params.mu_hat, l0=BASE_L0)
    _, tau_lbar = integrate_ell(state, base_params, BASE_TAU, 1000)
    closed = abar_closed_s0_equals_muhat(base_params, BASE_L0, BASE_TAU) * BASE_TAU
    assert tau_lbar == pytest.approx(closed, abs=1e-10)


def test_integrate_reproduces_true_values(base_params):
    for s0, expected in TRUE_TAU_LBAR.items():
        state = InitialState(s0=s0, l0=BASE_L0)
        _, tau_lbar = integrate_ell(state, base_params, BASE_TAU, 1000)
        assert tau_lbar == pytest.approx(expected, abs=2e-13)


def test_integrate_middle_column_published_value(base_params):
    state = InitialState(s0=0.0, l0=BASE_L0)
    _, tau_lbar = integrate_ell(state, base_params, BASE_TAU, 1000)
    assert tau_lbar == pytest.approx(0.1002514, abs=5e-8)


def test_integrate_path_shape_and_grid(base_params):
    state = InitialState(s0=0.05, l0=BASE_L0)
    path, _ = integrate_ell(state, base_params, 2.0, 64)
    assert path.shape == (65, 2)
    assert path[0, 0] == 0.0 and path[0, 1] == BASE_L0
    assert path[-1, 0] == pytest.approx(2.0, rel=1e-15)
    assert all(path[i + 1, 0] > path[i, 0] for i in range(64))


def _scalar_rk4_reference(state, params, tau, n_steps):
    """The per-state RK4 loop written out directly, as (path rows, A(tau))."""
    mh, m, sigma2 = params.mu_hat, params.m, params.sigma2
    eps = state.s0 - mh

    def ell_rate(t, ell):
        return sigma2 - (mh + eps * math.exp(-m * t)) * ell

    h = tau / n_steps
    ell, acc = state.l0, 0.0
    rows = [(0.0, ell)]
    for i in range(n_steps):
        t = i * h
        k1 = ell_rate(t, ell)
        s2 = ell + 0.5 * h * k1
        k2 = ell_rate(t + 0.5 * h, s2)
        s3 = ell + 0.5 * h * k2
        k3 = ell_rate(t + 0.5 * h, s3)
        s4 = ell + h * k3
        k4 = ell_rate(t + h, s4)
        acc += h / 6.0 * (ell + 2.0 * s2 + 2.0 * s3 + s4)
        ell += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(((i + 1) * h, ell))
    return rows, acc


@pytest.mark.parametrize("tau, n_steps", [(1.0, 1000), (7.5, 333)])
def test_integrators_bitwise_equal_scalar_reference(base_params, tau, n_steps):
    # The shared loop must keep the reference's operations and their order:
    # the path, A(tau) and every batch row agree bit for bit.
    states = [InitialState(s0=s0, l0=l0) for s0 in (-0.05, base_params.mu_hat, 0.05) for l0 in (0.01, 0.2)]
    batch = compute_oracles(states, base_params, tau, n_steps)
    for state, batched in zip(states, batch):
        rows, acc = _scalar_rk4_reference(state, base_params, tau, n_steps)
        path, tau_lbar = integrate_ell(state, base_params, tau, n_steps)
        assert tau_lbar == acc
        assert path.tolist() == [list(row) for row in rows]
        assert compute_oracle(state, base_params, tau, n_steps).tau_lbar == acc
        assert batched.tau_lbar == acc


@pytest.mark.filterwarnings("error")
def test_integrate_overflow_raises(base_params):
    # Raised as NumericalFailure, with no overflow RuntimeWarning on the way,
    # for one state and for a batch in which only one state blows up.
    state = InitialState(s0=-50000.0, l0=BASE_L0)
    with pytest.raises(NumericalFailure):
        integrate_ell(state, base_params, 1.0, 1000)
    with pytest.raises(NumericalFailure):
        compute_oracle(state, base_params, 1.0)
    batch = [InitialState(s0=-0.05, l0=BASE_L0), state, InitialState(s0=0.05, l0=BASE_L0)]
    with pytest.raises(NumericalFailure, match="state 1 of the batch"):
        compute_oracles(batch, base_params, 1.0)


@pytest.mark.parametrize("tau", [1.0, 7.5])
def test_batched_oracle_equals_single_states(base_params, tau):
    # Every batch row must be bitwise equal to the state integrated alone.
    s0_values = [-0.06, -0.02, base_params.mu_hat, 0.01, 0.05]
    l0_values = [0.005, 0.05, 0.1, 0.2]
    states = [InitialState(s0=s0, l0=l0) for s0 in s0_values for l0 in l0_values]
    batch = compute_oracles(states, base_params, tau)
    assert len(batch) == len(states)
    for state, result in zip(states, batch):
        assert result == compute_oracle(state, base_params, tau)


@pytest.mark.parametrize("s0", TABLE_S0)
def test_step_halving_shows_fourth_order(base_params, s0):
    # Truncation error at 64 steps is ~1e-13 and reaches the double-precision
    # rounding floor by 256 steps, so the ratio is measured at the coarsest
    # allowed resolution, where it cleanly shows the h^4 rate.
    state = InitialState(s0=s0, l0=BASE_L0)
    values = {}
    for n in (64, 128, 256):
        _, values[n] = integrate_ell(state, base_params, BASE_TAU, n)
    ratio = abs(values[64] - values[128]) / abs(values[128] - values[256])
    assert 12.0 <= ratio <= 20.0


def test_abar_closed_consistency_with_expansion(base_params, base_expansion):
    closed = abar_closed_s0_equals_muhat(base_params, BASE_L0, BASE_TAU)
    L0 = base_expansion.L[0].evaluate(BASE_TAU)
    assert closed == pytest.approx(L0 / BASE_TAU, rel=1e-12)
    assert L0 == pytest.approx(0.1006522, abs=5e-8)


def test_abar_closed_stationary_start():
    p = ModelParams(m=0.72, mu=0.02, gamma=0.0, sigma2=3e-4)
    l0 = p.sigma2 / p.mu_hat
    for tau in (0.5, 2.0, 7.0):
        assert abar_closed_s0_equals_muhat(p, l0, tau) == pytest.approx(l0, rel=1e-13)


def test_abar_closed_short_maturity_limit(base_params):
    assert abar_closed_s0_equals_muhat(base_params, BASE_L0, 1e-6) == pytest.approx(BASE_L0, abs=1e-5)


def test_abar_closed_validation(base_params):
    with pytest.raises(ValueError):
        abar_closed_s0_equals_muhat(base_params, BASE_L0, 0.0)


def test_solve_validation(base_params):
    with pytest.raises(ValueError):
        solve_shat_numeric(0.1, BASE_L0, base_params, 0.0)
    with pytest.raises(ValueError):
        solve_shat_numeric(math.nan, BASE_L0, base_params, 1.0)


def test_solve_reproduces_true_roots(base_params):
    for s0 in TABLE_S0:
        state = InitialState(s0=s0, l0=BASE_L0)
        result = compute_oracle(state, base_params, BASE_TAU, 20000)
        assert result.s_hat == pytest.approx(TRUE_SHAT[s0], abs=1e-12)
        assert result.residual < TOL_ROOT
        assert result.bracket_lo < result.s_hat < result.bracket_hi
        assert result.steps == 20000


def test_solve_avoids_spurious_zero_root(base_params):
    # The cleared equation has a double root at zero; the solver must land
    # on the financially meaningful branch near mu_hat instead.
    state = InitialState(s0=0.0, l0=BASE_L0)
    result = compute_oracle(state, base_params, BASE_TAU, 1000)
    assert result.s_hat == pytest.approx(TRUE_SHAT[0.0], abs=1e-12)
    assert abs(result.s_hat) > 1e-3


def test_solve_equilibrium_input_returns_mu_hat(base_params):
    tau_lbar = abar_closed_s0_equals_muhat(base_params, BASE_L0, BASE_TAU) * BASE_TAU
    result = solve_shat_numeric(tau_lbar, BASE_L0, base_params, BASE_TAU)
    assert result.s_hat == pytest.approx(base_params.mu_hat, abs=1e-12)


def test_solve_widens_bracket_when_root_is_far(base_params):
    # eps_hint = 0 gives a narrow initial bracket; a far root must still be
    # found through the doubling widenings.
    state = InitialState(s0=0.3, l0=BASE_L0)
    _, tau_lbar = integrate_ell(state, base_params, BASE_TAU, 4000)
    result = solve_shat_numeric(tau_lbar, BASE_L0, base_params, BASE_TAU, eps_hint=0.0)
    assert result.residual < TOL_ROOT
    assert result.s_hat > 0.1
    expansion = build_expansion(base_params, BASE_L0, 3)
    series = solve_shat_series(expansion, BASE_TAU, BASE_L0, base_params, 3)
    # eps = 0.31 is outside the asymptotic regime; just sanity-check agreement.
    assert result.s_hat == pytest.approx(series.value(0.31), rel=0.05)


def test_solve_unbracketable_raises(base_params):
    with pytest.raises(BracketingError):
        solve_shat_numeric(-5.0, BASE_L0, base_params, BASE_TAU)


def test_oracle_matches_order3_expansion_closely(base_params, base_expansion):
    series = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    for s0 in TABLE_S0:
        result = compute_oracle(InitialState(s0=s0, l0=BASE_L0), base_params, BASE_TAU, 20000)
        assert abs(series.value(s0 - base_params.mu_hat) - result.s_hat) <= 1e-6


def test_residual_cleared_at_true_root_is_tiny(base_params):
    res = residual_cleared(TRUE_SHAT[-0.05], TRUE_TAU_LBAR[-0.05], BASE_L0, base_params.sigma2, BASE_TAU)
    assert abs(res) < 1e-16
