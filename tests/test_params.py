"""Parameter validation, the risk-adjusted equilibrium and config files."""

import math

import numpy as np
import pytest

from sshat import (
    DegenerateRateError,
    InitialState,
    ModelParams,
    N_MAX,
    build_expansion,
    compute_oracle,
    load_config,
    solve_shat_series,
)

from _reference import BASE, BASE_L0


def test_mu_hat_base_parameters(base_params):
    # lam = 0 makes the risk adjustment vanish.
    assert base_params.mu_hat == -0.01


def test_mu_hat_zero_gamma_ignores_lambda():
    p = ModelParams(m=1.0, mu=0.02, gamma=0.0, sigma2=1e-4, lam=5.0)
    assert p.mu_hat == 0.02


def test_mu_hat_risk_adjustment():
    p = ModelParams(m=0.5, mu=-0.01, gamma=0.01, sigma2=1e-4, lam=0.25)
    assert p.mu_hat == pytest.approx(-0.015, rel=1e-15)


@pytest.mark.parametrize("m", [0.0, -1.0])
def test_rejects_nonpositive_mean_reversion(m):
    with pytest.raises(ValueError):
        ModelParams(m=m, mu=-0.01, gamma=0.007, sigma2=3e-4)


@pytest.mark.parametrize("sigma2", [0.0, -1e-4])
def test_rejects_nonpositive_sigma2(sigma2):
    with pytest.raises(ValueError):
        ModelParams(m=0.72, mu=-0.01, gamma=0.007, sigma2=sigma2)


def test_rejects_negative_gamma():
    with pytest.raises(ValueError):
        ModelParams(m=0.72, mu=-0.01, gamma=-0.001, sigma2=3e-4)


class _OldNumpyArray(np.ndarray):
    """An array that converts with float() at size 1, as before numpy 2.4."""

    def __float__(self):
        return float(self.reshape(-1)[0])


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        ModelParams(m=math.inf, mu=-0.01, gamma=0.007, sigma2=3e-4)
    with pytest.raises(ValueError):
        ModelParams(m=0.72, mu=math.nan, gamma=0.007, sigma2=3e-4)
    # Finite constants whose risk adjustment lam*gamma/m overflows.
    with pytest.raises(ValueError, match="mu_hat must be finite"):
        ModelParams(m=1e-300, mu=0.0, gamma=1e10, sigma2=1e-4, lam=1.0)
    # Text, bytes and booleans convert with float(), but are not numbers;
    # None, complex numbers and 1-element arrays do not convert, or convert
    # only on some numpy versions (_OldNumpyArray converts as numpy < 2.4 does).
    cases = (
        ("m", "0.72"), ("m", True), ("mu", b"-0.01"), ("gamma", np.False_), ("lam", "0"),
        ("m", None), ("sigma2", 1 + 0j), ("m", np.array([0.72])), ("m", np.array([0.72]).view(_OldNumpyArray)),
        ("m", np.array("0.72")), ("mu", np.array(True)), ("gamma", np.complex128(1)),
    )
    for name, value in cases:
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            ModelParams(**{**BASE, name: value})


def test_numeric_inputs_are_stored_as_floats():
    # A float32 m would carry mu_hat in float32; a 0-d array would make the
    # frozen dataclass unhashable.
    for m in (np.float32(0.72), np.array(0.72), 1):
        p = ModelParams(**{**BASE, "lam": 0.1, "m": m})
        assert type(p.m) is type(p.mu_hat) is float
        assert hash(p) == hash(ModelParams(**{**BASE, "lam": 0.1, "m": float(m)}))
    for s0, l0 in ((np.float32(-0.05), np.array(0.1)), (0, 1)):
        state = InitialState(s0=s0, l0=l0)
        assert type(state.s0) is type(state.l0) is float
        assert hash(state) == hash(InitialState(s0=float(s0), l0=float(l0)))


# ModelParams accepts every finite mu_hat.  Only the closed form of the
# expansion (EllExpansion.alpha and .beta) divides by mu_hat - k m, so it alone
# raises DegenerateRateError, inside 1e-8 max(|mu_hat|, m) of some k m.  The
# reported values come from the quadrature and hold there too.


def _assert_series_matches_oracle(p, l0=0.1):
    """The order-N_MAX series is within 1e-13 of the RK4 oracle at p."""
    expansion = build_expansion(p, l0, N_MAX)
    for tau in (0.5, 5.0):
        series = solve_shat_series(expansion, tau, l0, p, N_MAX)
        for eps in (-0.05, 0.05):
            state = InitialState(s0=p.mu_hat + eps, l0=l0)
            oracle = compute_oracle(state, p, tau)
            assert series.value(state.s0 - p.mu_hat) == pytest.approx(oracle.s_hat, abs=1e-13)


def _assert_closed_form_rejects(p):
    expansion = build_expansion(p, 0.1, N_MAX)
    with pytest.raises(DegenerateRateError):
        expansion.alpha
    with pytest.raises(DegenerateRateError):
        expansion.beta


def test_rejects_mu_hat_zero():
    # The closed form divides by mu_hat itself (alpha_0 = sigma2/mu_hat).
    _assert_closed_form_rejects(ModelParams(m=0.72, mu=0.0, gamma=0.0, sigma2=3e-4, lam=0.0))


@pytest.mark.parametrize("mu", [0.0, 1e-12, 5e-324, 0.72, -0.72, 1.44, -1.44])
def test_accepts_mu_hat_zero_and_multiples_of_m(mu):
    p = ModelParams(m=0.72, mu=mu, gamma=0.0, sigma2=3e-4)
    assert p.mu_hat == mu
    _assert_series_matches_oracle(p)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_genericity_rejects_near_multiples(j):
    # mu_hat = j*m*(1 + 0.5e-8) sits half a tolerance away from j*m: the
    # closed form rejects it, and the series still holds.
    m = 0.72
    p = ModelParams(m=m, mu=j * m * (1 + 0.5e-8), gamma=0.0, sigma2=3e-4)
    _assert_closed_form_rejects(p)
    _assert_series_matches_oracle(p)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_genericity_accepts_just_outside_band(j):
    m = 0.72
    p = ModelParams(m=m, mu=j * m * (1 + 3e-8), gamma=0.0, sigma2=3e-4)
    assert p.mu_hat == pytest.approx(j * m, rel=1e-7)
    assert np.isfinite(build_expansion(p, 0.1, N_MAX).alpha).all()


@pytest.mark.parametrize("mu", [-0.72 + 5e-9, -1.44 + 1e-8])
def test_genericity_rejects_near_negative_multiples(mu):
    # mu_hat - k m is at least |mu_hat| for mu_hat < 0, so nothing divides by
    # a small number near -j m: the closed form and the series both hold.
    p = ModelParams(m=0.72, mu=mu, gamma=0.0, sigma2=3e-4)
    assert np.isfinite(build_expansion(p, 0.1, N_MAX).beta).all()
    _assert_series_matches_oracle(p)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_genericity_accepts_just_outside_negative_band(j):
    m = 0.72
    p = ModelParams(m=m, mu=-j * m * (1 + 3e-8), gamma=0.0, sigma2=3e-4)
    assert np.isfinite(build_expansion(p, 0.1, N_MAX).alpha).all()


def test_genericity_accepts_base(base_params):
    alpha = build_expansion(base_params, BASE_L0, N_MAX).alpha
    assert alpha.shape == (N_MAX + 1,) and np.isfinite(alpha).all()


def test_initial_state_requires_positive_l0():
    with pytest.raises(ValueError):
        InitialState(s0=0.0, l0=0.0)
    with pytest.raises(ValueError):
        InitialState(s0=0.0, l0=-0.1)
    cases = (
        (-0.05, "0.1", "l0"), (-0.05, True, "l0"), (b"0", 0.1, "s0"), (np.True_, 0.1, "s0"),
        (None, 0.1, "s0"), (-0.05, 1 + 0j, "l0"), (-0.05, np.array([0.1]), "l0"),
        (-0.05, np.array([0.1]).view(_OldNumpyArray), "l0"), (np.array(b"0"), 0.1, "s0"),
    )
    for s0, l0, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            InitialState(s0=s0, l0=l0)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_config_roundtrip(tmp_path):
    cfg = _write(
        tmp_path / "base.cfg",
        "# base configuration\n"
        "m = 0.72\nmu = -0.01\ngamma = 0.007\nsigma2 = 0.0003\nlambda = 0\n"
        "s0 = -0.05\nl0 = 0.1\n",
    )
    params, state = load_config(cfg)
    assert params == ModelParams(**BASE)
    assert state == InitialState(s0=-0.05, l0=0.1)


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = _write(tmp_path / "bad.cfg", "m = 0.72\nM = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(cfg)


def test_load_config_rejects_missing_keys(tmp_path):
    cfg = _write(tmp_path / "partial.cfg", "m = 0.72\nmu = -0.01\n")
    with pytest.raises(ValueError, match="missing"):
        load_config(cfg)


def test_load_config_rejects_duplicates_and_garbage(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        load_config(_write(tmp_path / "dup.cfg", "m = 0.72\nm = 0.8\n"))
    with pytest.raises(ValueError, match="expected"):
        load_config(_write(tmp_path / "garbage.cfg", "m 0.72\n"))
    with pytest.raises(ValueError, match="invalid number"):
        load_config(_write(tmp_path / "nan.cfg", "m = fast\n"))
