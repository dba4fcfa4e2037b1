"""Integrator and root-finder ground truth: convergence order, closed forms."""

import math
import re
import tracemalloc

import numpy as np
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
    tau_lbar_terms,
)
import sshat.oracle
from sshat.oracle import (
    _BLOCK,
    _cleared_residual,
    _deflated,
    _oracle_grid,
    _phi,
    _results,
    _rk4,
    _Roots,
    _solve_roots,
)

from _reference import (
    BASE_L0,
    BASE_MU_HAT,
    BASE_TAU,
    PHI_REFERENCE,
    RK4_REFERENCE,
    RK4_REFERENCE_LONG,
    ROOT_PARAMS,
    ROOT_REFERENCE,
    TABLE_S0,
    TRUE_SHAT,
    TRUE_TAU_LBAR,
)


def test_default_step_counts():
    assert default_n_steps(1.0) == 1000
    assert default_n_steps(0.25) == 1000
    assert default_n_steps(30.0) == 30000
    # Past tau = 10^4 the count exceeds the bound, and past 1.8e305 it is inf.
    for tau in (10000.5, 1e306):
        with pytest.raises(ValueError, match=r"n_steps must be in \[16, 10000000\]"):
            default_n_steps(tau)


def test_integrate_validation(base_params):
    state = InitialState(s0=0.0, l0=BASE_L0)
    with pytest.raises(ValueError):
        integrate_ell(state, base_params, 0.0, 1000, 2)
    with pytest.raises(ValueError):
        integrate_ell(state, base_params, 1.0, 15, 2)
    # No count takes the default, 1000 steps per year, as compute_oracle does.
    path, tau_lbar = integrate_ell(state, base_params, 2.0, None, 5)
    default = integrate_ell(state, base_params, 2.0, 2000, 5)
    assert path.tobytes() == default[0].tobytes() and tau_lbar == default[1]


@pytest.mark.parametrize("n_steps, samples, aligned", [(1000, 7, 1002), (1000, 1002, 1001)])
def test_integrate_aligns_the_step_count_to_the_samples(base_params, n_steps, samples, aligned):
    # The count rounds up to a multiple of samples - 1 (1000 = 2^3 5^3), so
    # every sample lands on a step.
    state = InitialState(s0=0.05, l0=BASE_L0)
    path, tau_lbar = integrate_ell(state, base_params, 1.0, n_steps, samples)
    aligned_path, aligned_tau_lbar = integrate_ell(state, base_params, 1.0, aligned, samples)
    assert path.tobytes() == aligned_path.tobytes() and tau_lbar == aligned_tau_lbar


def _no_scan(*args, **kwargs):
    raise AssertionError("RK4 scan started")


@pytest.mark.parametrize("samples", [1, 0, -1, True, 2.0, 10**7 + 2])
def test_integrate_rejects_samples_off_the_step_grid(monkeypatch, base_params, samples):
    # Below 2 samples there is no grid, and past 10^7 + 1 more cells than
    # the integrator takes steps; only an integer count is a grid.
    monkeypatch.setattr(sshat.oracle, "_rk4", _no_scan)
    with pytest.raises(ValueError, match=re.escape(f"samples must be in [2, 10000001], got {samples}")):
        integrate_ell(InitialState(s0=0.0, l0=BASE_L0), base_params, 1.0, 1000, samples)


@pytest.mark.parametrize(
    "call, explicit",
    [
        (lambda p, n: integrate_ell(InitialState(s0=0.0, l0=BASE_L0), p, 1.0, n, 2), True),
        (lambda p, n: compute_oracle(InitialState(s0=0.0, l0=BASE_L0), p, 1.0, n), True),
        (lambda p, n: compute_oracles([InitialState(s0=0.0, l0=BASE_L0)] * 2, p, 1.0, n), True),
        # Default step counts: 1000 per year.
        (lambda p, n: compute_oracle(InitialState(s0=0.0, l0=BASE_L0), p, n / 1000), False),
        (lambda p, n: _oracle_grid(np.array([0.0]), np.array([BASE_L0]), p, [1.0, n / 1000]), False),
    ],
    ids=["integrate_ell", "compute_oracle", "compute_oracles", "default_steps", "oracle_grid"],
)
def test_step_count_is_bounded_before_any_scan(monkeypatch, base_params, call, explicit):
    monkeypatch.setattr(sshat.oracle, "_rk4", _no_scan)
    # At 10^309, 1000 steps per year of tau = n / 1000 overflow to inf.  An
    # explicit count must be an integer; a default one is rounded up.
    for n in (10**7 + 1, 10**15, 10**309) + ((1000.5, 1000.0) if explicit else ()):
        with pytest.raises(ValueError, match=r"n_steps must be in \[16, 10000000\]"):
            call(base_params, n)
    with pytest.raises(AssertionError, match="scan started"):
        call(base_params, 10**7)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda p, tau: default_n_steps(tau),
        lambda p, tau: integrate_ell(InitialState(s0=0.0, l0=BASE_L0), p, tau, 1000, 2),
        lambda p, tau: compute_oracle(InitialState(s0=0.0, l0=BASE_L0), p, tau),
        lambda p, tau: compute_oracles([InitialState(s0=0.0, l0=BASE_L0)], p, tau, 1000),
        lambda p, tau: solve_shat_numeric(0.1, BASE_L0, p, tau),
        lambda p, tau: abar_closed_s0_equals_muhat(p, BASE_L0, tau),
    ],
    ids=["default_n_steps", "integrate_ell", "compute_oracle", "compute_oracles", "solve_shat_numeric", "abar_closed"],
)
def test_oracle_rejects_non_finite_maturity(base_params, call, tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        call(base_params, tau)


@pytest.mark.parametrize("tau", [2, np.int64(3), np.float32(0.3)], ids=["int", "int64", "float32"])
def test_maturity_is_taken_as_its_float_value(base_params, tau):
    # Every entry converts the maturity once, to the float it stands for: a
    # float32 kept as such would integrate and solve in other bits.
    state = InitialState(s0=0.03, l0=BASE_L0)
    as_float = float(tau)
    assert default_n_steps(tau) == default_n_steps(as_float)
    path, tau_lbar = integrate_ell(state, base_params, tau, None, 5)
    float_path, float_tau_lbar = integrate_ell(state, base_params, as_float, None, 5)
    assert path.tobytes() == float_path.tobytes() and repr(tau_lbar) == repr(float_tau_lbar)
    result = compute_oracle(state, base_params, tau)
    # repr tells a numpy float from a Python float, and gives every bit of either.
    assert repr(result) == repr(compute_oracle(state, base_params, as_float))
    assert all(type(getattr(result, name)) is float for name in ("tau_lbar", "s_hat", "residual", "bracket_lo", "bracket_hi"))
    assert repr(compute_oracles([state, state], base_params, tau)) == repr([result, result])
    eps, l0 = np.array([state.s0 - base_params.mu_hat]), np.array([state.l0])
    grid = _oracle_grid(eps, l0, base_params, [tau, as_float])
    assert grid[0][0].tobytes() == grid[0][1].tobytes()
    assert all(a[0].tobytes() == a[1].tobytes() for a in grid[1])
    assert grid[2][0] == grid[2][1] == result.steps


def test_integrate_near_zero_dynamics(base_params):
    # The zero-dynamics limit: vanishing volatility scale and initial rate
    # give a path that stays at machine zero (exact zeros are outside the
    # parameter domain).
    p = ModelParams(m=base_params.m, mu=base_params.mu, gamma=base_params.gamma, sigma2=1e-30)
    state = InitialState(s0=0.05, l0=1e-30)
    path, tau_lbar = integrate_ell(state, p, 1.0, 256, 257)
    assert abs(tau_lbar) < 1e-25
    assert max(abs(ell) for ell in path[:, 1]) < 1e-25


def test_integrate_matches_closed_form_at_equilibrium(base_params):
    # The base set, and mu_hat = 0, where the path solves dl/dt = sigma2.
    at_zero = ModelParams(m=base_params.m, mu=0.0, gamma=0.0, sigma2=base_params.sigma2)
    for params in (base_params, at_zero):
        state = InitialState(s0=params.mu_hat, l0=BASE_L0)
        _, tau_lbar = integrate_ell(state, params, BASE_TAU, 1000, 2)
        closed = abar_closed_s0_equals_muhat(params, BASE_L0, BASE_TAU) * BASE_TAU
        assert tau_lbar == pytest.approx(closed, abs=1e-10)


def test_integrate_reproduces_true_values(base_params):
    for s0, expected in TRUE_TAU_LBAR.items():
        state = InitialState(s0=s0, l0=BASE_L0)
        _, tau_lbar = integrate_ell(state, base_params, BASE_TAU, 1000, 2)
        assert tau_lbar == pytest.approx(expected, abs=2e-13)


def test_integrate_middle_column_published_value(base_params):
    state = InitialState(s0=0.0, l0=BASE_L0)
    _, tau_lbar = integrate_ell(state, base_params, BASE_TAU, 1000, 2)
    assert tau_lbar == pytest.approx(0.1002514, abs=5e-8)


def test_integrate_path_shape_and_grid(base_params):
    state = InitialState(s0=0.05, l0=BASE_L0)
    path, _ = integrate_ell(state, base_params, 2.0, 64, 17)
    assert path.shape == (17, 2)
    assert path[0, 0] == 0.0 and path[0, 1] == BASE_L0
    assert path[-1, 0] == pytest.approx(2.0, rel=1e-15)
    assert path[:, 0].tolist() == [4 * i * (2.0 / 64) for i in range(17)]


@pytest.mark.parametrize("s0, tau, n_steps, samples", [(0.05, 2.0, 64, 17), (-0.05, 7.5, 7500, 51)])
def test_integrate_rows_are_single_end_reads(base_params, s0, tau, n_steps, samples):
    # Every row of l, and A(tau), is the scan read at that one end, as the
    # oracle reads it: one read-out, bit for bit.
    state = InitialState(s0=s0, l0=BASE_L0)
    path, tau_lbar = integrate_ell(state, base_params, tau, n_steps, samples)
    eps, l0, h = np.array([s0 - base_params.mu_hat]), np.array([BASE_L0]), tau / n_steps
    for i in range(1, samples):
        _, ell = _rk4(eps, l0, base_params, h, [i * (n_steps // (samples - 1))])
        assert path[i, 1] == ell[0, 0]
    assert tau_lbar == compute_oracle(state, base_params, tau, n_steps).tau_lbar


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


def _max_rel_diff(values, reference):
    return max(abs(v - r) / abs(r) for v, r in zip(values, reference))


@pytest.mark.parametrize("tau, n_steps", [(1.0, 1000), (7.5, 333)])
def test_integrators_match_scalar_reference(base_params, tau, n_steps):
    # The scan sums the reference's steps in another order, so the path and
    # A(tau) agree to rounding only (2e-14 relative, about 100 ulps); every
    # entry point shares the scan, so they agree with each other bit for bit.
    states = [InitialState(s0=s0, l0=l0) for s0 in (-0.05, base_params.mu_hat, 0.05) for l0 in (0.01, 0.2)]
    batch = compute_oracles(states, base_params, tau, n_steps)
    for state, batched in zip(states, batch):
        rows, acc = _scalar_rk4_reference(state, base_params, tau, n_steps)
        path, tau_lbar = integrate_ell(state, base_params, tau, n_steps, n_steps + 1)
        assert abs(tau_lbar - acc) <= 2e-14 * abs(acc)
        assert path[:, 0].tolist() == [row[0] for row in rows]
        assert _max_rel_diff(path[:, 1], [row[1] for row in rows]) <= 2e-14
        assert compute_oracle(state, base_params, tau, n_steps).tau_lbar == tau_lbar
        assert batched.tau_lbar == tau_lbar


@pytest.mark.parametrize("s0, tau", [(2000.0, 1.0), (2.0, 30.0)])
def test_scan_matches_scalar_reference_at_large_spreads(base_params, s0, tau):
    # At s0 = 2000 the product of the RK4 step factors over [0, 1] is about
    # exp(-1400), far below the smallest double; at s0 = 2, tau = 30 the
    # scan runs 118 blocks.
    state = InitialState(s0=s0, l0=BASE_L0)
    n_steps = default_n_steps(tau)
    rows, acc = _scalar_rk4_reference(state, base_params, tau, n_steps)
    path, tau_lbar = integrate_ell(state, base_params, tau, n_steps, n_steps + 1)
    assert abs(tau_lbar - acc) <= 2e-14 * abs(acc)
    assert _max_rel_diff(path[:, 1], [row[1] for row in rows]) <= 2e-14


@pytest.mark.parametrize("s0, tau", sorted(RK4_REFERENCE))
def test_integrate_matches_exact_rk4(base_params, s0, tau):
    # Against the same RK4 steps in exact arithmetic: only rounding separates
    # them.
    n_steps, acc, ell = RK4_REFERENCE[s0, tau]
    state = InitialState(s0=base_params.mu_hat if s0 == BASE_MU_HAT else s0, l0=BASE_L0)
    path, tau_lbar = integrate_ell(state, base_params, tau, n_steps, n_steps + 1)
    assert abs(tau_lbar - acc) <= 1e-15 * acc
    assert abs(path[-1, 1] - ell) <= 1e-15 * ell


@pytest.mark.parametrize("s0, tau", sorted(RK4_REFERENCE_LONG))
def test_long_integration_matches_exact_rk4(base_params, s0, tau):
    # 100000 steps over 391 blocks of the scan: its rounding stays within
    # 3e-15 relative of the same steps in exact arithmetic.
    n_steps, acc, ell = RK4_REFERENCE_LONG[s0, tau]
    state = InitialState(s0=base_params.mu_hat if s0 == BASE_MU_HAT else s0, l0=BASE_L0)
    path, tau_lbar = integrate_ell(state, base_params, tau, n_steps, 2)
    assert abs(tau_lbar - acc) <= 3e-15 * acc
    assert abs(path[-1, 1] - ell) <= 3e-15 * ell


def test_long_batch_memory_is_bounded(base_params):
    # 100k steps for 100 states: the scan holds one pass of steps at a time.
    # 4000 distinct eps at 1000 steps: it holds one group of eps at a time
    # (a single scan of all of them peaks at about 85 MB).
    states = [InitialState(s0=0.01 * i - 0.05, l0=0.01 + 0.02 * j) for i in range(10) for j in range(10)]
    eps = np.linspace(-0.05, 0.05, 4000)
    tracemalloc.start()
    try:
        results = compute_oracles(states, base_params, 100.0)
        long_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tau_lbar, ell = _rk4(eps, np.full(eps.size, BASE_L0), base_params, 0.001, [1000])
        wide_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 100 and all(math.isfinite(r.s_hat) for r in results)
    assert long_peak < 2_000_000
    assert np.isfinite(tau_lbar).all() and np.isfinite(ell).all()
    assert wide_peak < 10_000_000


def test_empty_batch(base_params):
    assert compute_oracles([], base_params, 1.0) == []


@pytest.mark.filterwarnings("error")
def test_integrate_overflow_raises(base_params):
    # Raised as NumericalFailure, with no overflow RuntimeWarning on the way,
    # for one state and for a batch in which only one state blows up.
    state = InitialState(s0=-50000.0, l0=BASE_L0)
    with pytest.raises(NumericalFailure):
        integrate_ell(state, base_params, 1.0, 1000, 2)
    with pytest.raises(NumericalFailure):
        compute_oracle(state, base_params, 1.0)
    batch = [InitialState(s0=-0.05, l0=BASE_L0), state, InitialState(s0=0.05, l0=BASE_L0)]
    with pytest.raises(NumericalFailure, match="state 1 of the batch"):
        compute_oracles(batch, base_params, 1.0)


@pytest.mark.filterwarnings("error")
def test_non_positive_step_factor_raises():
    # With m h = 10 the spread falls from 100 to about 0.7 by the middle of
    # the first step, which multiplies l by about -0.6: a step that long
    # gives no meaningful integral, so it is reported, not returned.
    params = ModelParams(m=100.0, mu=-0.01, gamma=0.0, sigma2=3e-4)
    with pytest.raises(NumericalFailure):
        integrate_ell(InitialState(s0=100.0, l0=BASE_L0), params, 1.6, 16, 2)


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


@pytest.mark.parametrize(
    "ends",
    [[256, 512, 1000, 4000], [16, 255, 256, 257, 700], [1000, 4000, 7000, 10000], [4000, 1000, 4000, 2500]],
    ids=["block-ends-and-inside", "around-one-boundary", "sweep-grid", "unsorted-with-repeat"],
)
def test_shared_scan_rows_equal_single_end_scans(base_params, ends):
    # Ends on block boundaries (256, 512) and inside blocks (1000 = 3 * 256
    # + 232, 4000), in any order and repeated: each end reads A and l
    # bitwise as a scan that stops there.
    eps = np.array([-0.06, -0.02, 0.0, 0.0, 0.05])
    l0 = np.array([0.005, 0.1, 0.1, 0.2, 0.1])
    tau_lbar, ell = _rk4(eps, l0, base_params, 0.001, ends)
    for i, n in enumerate(ends):
        alone_tau_lbar, alone_ell = _rk4(eps, l0, base_params, 0.001, [n])
        assert tau_lbar[i].tolist() == alone_tau_lbar[0].tolist()
        assert ell[i].tolist() == alone_ell[0].tolist()


@pytest.mark.filterwarnings("error")
def test_no_result_depends_on_the_pass_size(monkeypatch, base_params):
    # One block per pass, three, and the default, and the default with the
    # 4 distinct eps in two groups of 2: ends on block boundaries and inside
    # blocks, a partial last block (10000 = 39 * 256 + 16), a scan shared by
    # several maturities and single-end scans all read the same bits.
    eps = np.array([-0.06, -0.02, 0.0, 0.0, 0.05])
    l0 = np.array([0.005, 0.1, 0.1, 0.2, 0.1])
    distinct = np.unique(eps).size
    grids = [[16, 255, 256, 257, 700, 1000, 4000, 7000, 10000], [1000], [10000]]
    reads = {}
    default = (sshat.oracle._PASS_ELEMENTS, sshat.oracle._GROUP)
    for budget, group in ((1, default[1]), (3 * distinct * _BLOCK, default[1]), default, (default[0], 2)):
        monkeypatch.setattr(sshat.oracle, "_PASS_ELEMENTS", budget)
        monkeypatch.setattr(sshat.oracle, "_GROUP", group)
        reads[budget, group] = [_rk4(eps, l0, base_params, 0.001, ends) for ends in grids]
        # A state that blows up is reported as one that overflowed.
        blown_up = [InitialState(s0=-50000.0, l0=BASE_L0), InitialState(s0=0.05, l0=BASE_L0)]
        with pytest.raises(NumericalFailure, match=r"state 0 of the batch \(l=inf, integral=inf\)"):
            compute_oracles(blown_up, base_params, 1.0)
    first = reads.pop((1, default[1]))
    for other in reads.values():
        for (tau_lbar, ell), (other_tau_lbar, other_ell) in zip(first, other):
            assert tau_lbar.tolist() == other_tau_lbar.tolist()
            assert ell.tolist() == other_ell.tolist()


@pytest.mark.parametrize(
    "taus, n_steps, scans",
    [
        (np.linspace(1.0, 10.0, 4).tolist(), None, 1),
        ([0.25, 0.5, 1.0, 1.5, 2.8333, 10.0], None, 4),
        ([0.25, 0.5, 1.0, 1.5, 2.8333, 10.0], 64, 6),
        ([10.0, 7.0, 4.0, 1.0], None, 1),
    ],
    ids=["1:10:4", "mixed-groups", "fixed-steps", "descending"],
)
def test_oracle_grid_equals_per_maturity_batches(monkeypatch, base_params, taus, n_steps, scans):
    # Maturities share a scan exactly when their step sizes tau / steps are
    # bitwise equal: at the default 1000 steps per year, 1, 1.5 and 10 share
    # one; 0.25 and 0.5 (1000 steps each) and 2.8333 (2834 steps) do not.
    states = [InitialState(s0=s0, l0=l0) for s0 in (-0.06, -0.02, base_params.mu_hat, 0.05) for l0 in (0.005, 0.1, 0.2)]
    eps = np.array([state.s0 - base_params.mu_hat for state in states])
    l0 = np.array([state.l0 for state in states])
    calls = []

    def counted_rk4(*args, **kwargs):
        calls.append(args[4])
        return _rk4(*args, **kwargs)

    monkeypatch.setattr(sshat.oracle, "_rk4", counted_rk4)
    tau_lbar, roots, steps = _oracle_grid(eps, l0, base_params, taus, n_steps)
    assert len(calls) == scans
    monkeypatch.undo()
    for i, tau in enumerate(taus):
        batch = compute_oracles(states, base_params, tau, n_steps)
        assert _results(tau_lbar[i], _Roots(*(a[i] for a in roots)), steps[i]) == batch


@pytest.mark.parametrize("s0", TABLE_S0)
def test_step_halving_shows_fourth_order(base_params, s0):
    # Truncation error at 64 steps is ~1e-13 and reaches the double-precision
    # rounding floor by 256 steps, so the ratio is measured at the coarsest
    # allowed resolution, where it cleanly shows the h^4 rate.
    state = InitialState(s0=s0, l0=BASE_L0)
    values = {}
    for n in (64, 128, 256):
        _, values[n] = integrate_ell(state, base_params, BASE_TAU, n, 2)
    ratio = abs(values[64] - values[128]) / abs(values[128] - values[256])
    assert 12.0 <= ratio <= 20.0


def test_abar_closed_consistency_with_expansion(base_params, base_expansion):
    closed = abar_closed_s0_equals_muhat(base_params, BASE_L0, BASE_TAU)
    L0 = tau_lbar_terms(base_expansion, BASE_TAU)[0]
    assert closed == pytest.approx(L0 / BASE_TAU, rel=1e-12)
    assert L0 == pytest.approx(0.1006522, abs=5e-8)


def test_abar_closed_stationary_start():
    p = ModelParams(m=0.72, mu=0.02, gamma=0.0, sigma2=3e-4)
    l0 = p.sigma2 / p.mu_hat
    for tau in (0.5, 2.0, 7.0):
        assert abar_closed_s0_equals_muhat(p, l0, tau) == pytest.approx(l0, rel=1e-13)


def test_abar_closed_short_maturity_limit(base_params):
    assert abar_closed_s0_equals_muhat(base_params, BASE_L0, 1e-6) == pytest.approx(BASE_L0, abs=1e-5)


@pytest.mark.parametrize("tau", [1e-6, 0.5, 10.0, 1000.0])
def test_abar_closed_at_mu_hat_zero(base_params, tau):
    # l(t) = l0 + sigma2 t, whose mean over [0, tau] is l0 + sigma2 tau / 2.
    p = ModelParams(m=base_params.m, mu=0.0, gamma=0.0, sigma2=base_params.sigma2)
    expected = BASE_L0 + p.sigma2 * tau / 2
    assert abar_closed_s0_equals_muhat(p, BASE_L0, tau) == pytest.approx(expected, rel=1e-15)


def test_abar_closed_validation(base_params):
    with pytest.raises(ValueError):
        abar_closed_s0_equals_muhat(base_params, BASE_L0, 0.0)
    # The l0 that InitialState and build_expansion reject.
    for l0 in (-0.1, 0.0, math.nan):
        with pytest.raises(ValueError, match="l0"):
            abar_closed_s0_equals_muhat(base_params, l0, BASE_TAU)


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
        assert result.residual < 1e-12
        assert result.bracket_lo < result.s_hat < result.bracket_hi
        assert result.steps == 20000


# s0 where the oracle root crosses 0, per maturity, at l0 = 0.005, 0.1 and
# 0.25 (found by bisection on compute_oracle).
ZERO_CROSSINGS = {
    0.1: (0.0002416773664418682, 0.00024144547012370718, 0.00024143813289726965),
    1.0: (0.002565028396317715, 0.002538377302697556, 0.002537521078925905),
    5.0: (0.015732598727337992, 0.014745292616234721, 0.014712424615348937),
}


@pytest.mark.parametrize("tau", sorted(ZERO_CROSSINGS))
def test_roots_through_zero_are_within_the_rounding_floor(base_params, tau):
    # g = s^2 q(s) and its terms all vanish as s_hat -> 0, so only a
    # backward-error test can accept these roots.  1200 seeded s0 cluster at
    # the three crossings, 1e-17 to 1e-2 away, each at all three l0; every
    # root must be accepted, on both sides of 0 and down to |s_hat| < 1e-14.
    rng = np.random.default_rng(21)
    offsets = rng.choice([-1.0, 1.0], size=(3, 400)) * 10.0 ** rng.uniform(-17.0, -2.0, size=(3, 400))
    s0 = (np.array(ZERO_CROSSINGS[tau])[:, None] + offsets).ravel()
    l0 = (0.005, 0.1, 0.25)
    results = compute_oracles([InitialState(s0=float(s), l0=l) for s in s0 for l in l0], base_params, tau)
    s_hat = np.array([result.s_hat for result in results]).reshape(s0.size, len(l0))
    assert (s_hat < 0.0).any(axis=0).all() and (s_hat > 0.0).any(axis=0).all()
    assert np.abs(s_hat).min(axis=0).max() < 1e-14


@pytest.mark.parametrize("tau", [1e-150, 1e-200, 1e-300])
def test_tiny_maturity_roots_are_rejected(base_params, tau):
    # Every term of g is below 1e-150 here, and the root the Newton loop
    # stops at (0.49, where the true root is near -0.05) has no correct digit; its
    # residual is above the rounding floor, so no root is returned.
    with pytest.raises(NumericalFailure, match="root refinement stalled"):
        compute_oracle(InitialState(s0=-0.05, l0=BASE_L0), base_params, tau)


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
    _, tau_lbar = integrate_ell(state, base_params, BASE_TAU, 4000, 2)
    result = solve_shat_numeric(tau_lbar, BASE_L0, base_params, BASE_TAU, eps_hint=0.0)
    assert result.residual < 1e-12
    assert result.s_hat > 0.1
    expansion = build_expansion(base_params, BASE_L0, 3)
    series = solve_shat_series(expansion, BASE_TAU, BASE_L0, base_params, 3)
    # eps = 0.31 is outside the asymptotic regime; just sanity-check agreement.
    assert result.s_hat == pytest.approx(series.value(0.31), rel=0.05)


def test_batched_solve_counters_equal_single_solves(monkeypatch, base_params):
    # The first state is the far root of the widening test above, with a
    # bracket sized by eps_hint = 0, in one grid with ordinary states of
    # distinct l0 and eps_hint at two maturities.  Chunks of 5 entries
    # straddle the maturities of 7 states: each entry's root, bracket and
    # counters are those of the entry solved alone.
    taus = (BASE_TAU, 2.5)
    s0s, l0s = (-0.06, -0.05, -0.02, 0.0, 0.05, 0.08), (0.01, 0.2, 0.05, 0.15, 0.005, 0.3)
    states = [InitialState(s0=s0, l0=l0) for s0, l0 in zip(s0s, l0s)]
    near = [compute_oracles(states, base_params, tau) for tau in taus]
    far = [integrate_ell(InitialState(s0=0.3, l0=BASE_L0), base_params, tau, 4000, 2)[1] for tau in taus]
    tau_lbar = np.array([[tl] + [result.tau_lbar for result in row] for tl, row in zip(far, near)])
    l0 = np.array([BASE_L0] + [state.l0 for state in states])
    eps_hint = np.array([0.0] + [state.s0 - base_params.mu_hat for state in states])
    monkeypatch.setattr(sshat.oracle, "_ROOT_CHUNK", 5)
    roots = _solve_roots(tau_lbar, l0, base_params, np.array(taus), eps_hint)
    assert roots.widenings[:, 0].all() and not roots.widenings[:, 1:].any()
    for i, tau in enumerate(taus):
        for j in range(l0.size):
            alone = solve_shat_numeric(tau_lbar[i, j].item(), l0[j].item(), base_params, tau, eps_hint[j].item())
            fields = (alone.s_hat, alone.residual, alone.bracket_lo, alone.bracket_hi)
            counters = (alone.iterations, alone.bisections, alone.widenings)
            assert fields + counters == tuple(a[i, j].item() for a in roots)
            assert 1 <= alone.iterations <= 200 and 0 <= alone.bisections <= alone.iterations
    assert near[0] == [compute_oracle(state, base_params, BASE_TAU) for state in states]


def test_batched_solve_raises_for_an_entry_that_never_brackets(base_params):
    # The tau_lbar = -5 entry of test_solve_unbracketable_raises, batched
    # with the widening far root and ordinary states, fails as it does alone.
    with pytest.raises(BracketingError) as alone:
        solve_shat_numeric(-5.0, BASE_L0, base_params, BASE_TAU)
    assert "after 5 widenings" in str(alone.value)
    _, far = integrate_ell(InitialState(s0=0.3, l0=BASE_L0), base_params, BASE_TAU, 4000, 2)
    near = compute_oracles([InitialState(s0=s0, l0=BASE_L0) for s0 in TABLE_S0], base_params, BASE_TAU)
    tau_lbar = np.array([[far, near[0].tau_lbar, -5.0, near[1].tau_lbar, near[2].tau_lbar]])
    eps_hint = np.array([0.0, TABLE_S0[0] - BASE_MU_HAT, 0.0, TABLE_S0[1] - BASE_MU_HAT, TABLE_S0[2] - BASE_MU_HAT])
    with pytest.raises(BracketingError) as batched:
        _solve_roots(tau_lbar, np.full(eps_hint.size, BASE_L0), base_params, np.array([BASE_TAU]), eps_hint)
    assert str(batched.value) == str(alone.value)


def test_chunked_solve_raises_the_first_failure_in_index_order(monkeypatch, base_params):
    # Entries 2 and 4 never bracket, in the second and third chunks of 2, and
    # their brackets differ: the first of them is raised.
    with pytest.raises(BracketingError) as alone:
        solve_shat_numeric(-5.0, BASE_L0, base_params, BASE_TAU)
    near = compute_oracles([InitialState(s0=s0, l0=BASE_L0) for s0 in TABLE_S0], base_params, BASE_TAU)
    tau_lbar = np.array([[near[0].tau_lbar, near[1].tau_lbar, -5.0, near[2].tau_lbar, -5.0]])
    eps_hint = np.array([TABLE_S0[0] - BASE_MU_HAT, TABLE_S0[1] - BASE_MU_HAT, 0.0, TABLE_S0[2] - BASE_MU_HAT, 1.0])
    monkeypatch.setattr(sshat.oracle, "_ROOT_CHUNK", 2)
    with pytest.raises(BracketingError) as batched:
        _solve_roots(tau_lbar, np.full(eps_hint.size, BASE_L0), base_params, np.array([BASE_TAU]), eps_hint)
    assert str(batched.value) == str(alone.value)


def test_chunked_oracle_grid_equals_per_entry_solves(monkeypatch, base_params):
    # Chunks of 7 entries straddle the maturities of 12 states: each entry's
    # root, bracket and counters are those of one chunk and of the entry alone.
    states = [InitialState(s0=s0, l0=l0) for s0 in (-0.06, -0.02, base_params.mu_hat, 0.05) for l0 in (0.005, 0.1, 0.2)]
    eps = np.array([state.s0 - base_params.mu_hat for state in states])
    l0 = np.array([state.l0 for state in states])
    taus = [0.5, 1.0, 2.5]
    _, one_chunk, _ = _oracle_grid(eps, l0, base_params, taus)
    monkeypatch.setattr(sshat.oracle, "_ROOT_CHUNK", 7)
    tau_lbar, roots, _ = _oracle_grid(eps, l0, base_params, taus)
    assert [a.tolist() for a in roots] == [a.tolist() for a in one_chunk]
    for i, tau in enumerate(taus):
        for j in range(eps.size):
            alone = solve_shat_numeric(tau_lbar[i, j].item(), l0[j].item(), base_params, tau, eps[j].item())
            fields = (alone.s_hat, alone.residual, alone.bracket_lo, alone.bracket_hi)
            counters = (alone.iterations, alone.bisections, alone.widenings)
            assert fields + counters == tuple(a[i, j].item() for a in roots)


def test_root_solve_memory_is_bounded(base_params):
    # 10^5 entries solve _ROOT_CHUNK at a time; one batch of them peaked at
    # about 100 MB, of which the (4, 16, entries) table of _phi was 51 MB.
    near = compute_oracles([InitialState(s0=s0, l0=BASE_L0) for s0 in TABLE_S0], base_params, BASE_TAU)
    size = 10**5
    tau_lbar = np.resize([result.tau_lbar for result in near], (1, size))
    eps_hint = np.resize(np.array(TABLE_S0) - BASE_MU_HAT, size)
    l0, tau = np.full(size, BASE_L0), np.array([BASE_TAU])
    tracemalloc.start()
    try:
        roots = _solve_roots(tau_lbar, l0, base_params, tau, eps_hint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert roots.s_hat[0].tolist() == np.resize([result.s_hat for result in near], size).tolist()
    assert peak < 20_000_000


@pytest.mark.parametrize("l0", [math.nan, -0.1, 0.0, math.inf])
def test_solve_rejects_invalid_consol_rate(base_params, l0):
    with pytest.raises(ValueError, match="l0"):
        solve_shat_numeric(0.1, l0, base_params, BASE_TAU)


@pytest.mark.parametrize("eps_hint", [math.nan, math.inf, -math.inf])
def test_solve_rejects_non_finite_eps_hint(base_params, eps_hint):
    with pytest.raises(ValueError, match="eps_hint must be finite"):
        solve_shat_numeric(0.1, BASE_L0, base_params, BASE_TAU, eps_hint)


def test_solve_bisects_a_non_finite_newton_step(monkeypatch, base_params):
    # At s0 = -800 the bracket spans +-8000 and the second bisection lands
    # where q overflows to -inf with a NaN slope.  The step bisects, and the
    # root (tau_lbar ~ 1e244, where the residual's rounding floor is far
    # above 1e-12) is found in a few passes, not after every Newton pass
    # with a NaN one.
    state = InitialState(s0=-800.0, l0=BASE_L0)
    _, tau_lbar = integrate_ell(state, base_params, 1.0, 1000, 2)
    calls = []
    deflated = sshat.oracle._deflated
    monkeypatch.setattr(sshat.oracle, "_deflated", lambda *args: calls.append(args) or deflated(*args))
    result = solve_shat_numeric(tau_lbar, state.l0, base_params, 1.0, state.s0 - base_params.mu_hat)
    assert len(calls) <= 100
    assert result.bisections >= 2
    assert result.s_hat == pytest.approx(ROOT_REFERENCE["base", -800.0, BASE_L0, 1.0][1], rel=1e-14)


@pytest.mark.parametrize("case", sorted(ROOT_REFERENCE), ids=lambda case: "_".join(map(str, case)))
def test_roots_beyond_the_absolute_tolerance_are_correctly_rounded(case):
    # At these inputs the rounding floor of g, which alone accepts a root, is
    # far above 1e-12: the root must be within 1 ulp of the 60-digit root for
    # the same tau_lbar, and the oracle must reach it.
    name, s0, l0, tau = case
    tau_lbar, s_ref = ROOT_REFERENCE[case]
    params = ModelParams(**ROOT_PARAMS[name])
    result = solve_shat_numeric(tau_lbar, l0, params, tau, s0 - params.mu_hat)
    assert result.residual > 1e-12
    assert abs(result.s_hat - s_ref) <= math.ulp(s_ref)
    oracle = compute_oracle(InitialState(s0=s0, l0=l0), params, tau)
    assert abs(oracle.tau_lbar - tau_lbar) <= 1e-12 * tau_lbar
    assert oracle.s_hat == pytest.approx(s_ref, rel=1e-12)


@pytest.mark.parametrize("x", sorted(PHI_REFERENCE))
def test_phi_matches_mpmath(x):
    # Within 1e-15 relative on both sides of the cutoff |x| = 4 (the frozen
    # points 3.96 and 4.04) and near zero, where the closed forms cancel.
    with np.errstate(all="ignore"):
        got = _phi(np.array([x]))[:, 0]
    for name, value, expected in zip(("phi1", "phi2", "phi1'", "phi2'"), got.tolist(), PHI_REFERENCE[x]):
        assert value == pytest.approx(expected, rel=1e-15, abs=0), name


def test_phi_at_zero():
    with np.errstate(all="ignore"):
        got = _phi(np.array([0.0]))[:, 0]
    assert got.tolist() == pytest.approx([1.0, -0.5, -0.5, 1.0 / 6.0], rel=1e-15, abs=0)


def test_deflated_residual_increases_in_s():
    # _solve_roots takes q(lo) <= 0 <= q(hi) for granted: q's slope
    # tau^2 (-l0 phi1' + sigma2 tau phi2') is a sum of two positive terms.
    # Where q and its slope are finite, the slope is > 0 and q, rounded, does
    # not decrease along sorted s, across the phi cutoff |s tau| = 4 too.
    x = np.unique(np.concatenate([np.linspace(-700.0, 700.0, 2801), np.linspace(-8.0, 8.0, 1601)]))
    checked = 0
    for tau in (1e-9, 1e-4, 0.01, 1.0, 10.0, 100.0, 1e4):
        s = x / tau
        for l0 in (1e-3, 0.1, 10.0):
            for sigma2 in (1e-6, 3e-4, 1e-2):
                with np.errstate(all="ignore"):
                    q, dq = _deflated(s, np.zeros_like(s), np.full_like(s, l0), sigma2, np.full_like(s, tau))
                finite = np.isfinite(q) & np.isfinite(dq)
                assert finite[x >= -8.0].all()
                assert (dq[finite] > 0.0).all(), (tau, l0, sigma2)
                assert (np.diff(q[finite]) >= 0.0).all(), (tau, l0, sigma2)
                checked += finite.sum()
    assert checked > 200_000


def test_solve_unbracketable_raises(base_params):
    with pytest.raises(BracketingError):
        solve_shat_numeric(-5.0, BASE_L0, base_params, BASE_TAU)


def test_oracle_matches_order3_expansion_closely(base_params, base_expansion):
    series = solve_shat_series(base_expansion, BASE_TAU, BASE_L0, base_params, 3)
    for s0 in TABLE_S0:
        result = compute_oracle(InitialState(s0=s0, l0=BASE_L0), base_params, BASE_TAU, 20000)
        assert abs(series.value(s0 - base_params.mu_hat) - result.s_hat) <= 1e-6


def test_residual_cleared_at_true_root_is_tiny(base_params):
    res = _cleared_residual(TRUE_SHAT[-0.05], TRUE_TAU_LBAR[-0.05], BASE_L0, base_params.sigma2, BASE_TAU)[0]
    assert abs(res) < 1e-16
