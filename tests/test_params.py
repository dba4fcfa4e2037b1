"""Parameter validation, the risk-adjusted equilibrium and config files."""

import math

import pytest

from sshat import (
    DegenerateRateError,
    InitialState,
    ModelParams,
    N_MAX,
    build_expansion,
    load_config,
)

from _reference import BASE


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


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        ModelParams(m=math.inf, mu=-0.01, gamma=0.007, sigma2=3e-4)
    with pytest.raises(ValueError):
        ModelParams(m=0.72, mu=math.nan, gamma=0.007, sigma2=3e-4)


def test_rejects_mu_hat_zero():
    with pytest.raises(DegenerateRateError):
        ModelParams(m=0.72, mu=0.0, gamma=0.0, sigma2=3e-4, lam=0.0)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_genericity_rejects_near_multiples(j):
    # mu_hat = j*m*(1 + 0.5e-8) sits half a tolerance away from j*m.
    m = 0.72
    with pytest.raises(DegenerateRateError):
        ModelParams(m=m, mu=j * m * (1 + 0.5e-8), gamma=0.0, sigma2=3e-4)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_genericity_accepts_just_outside_band(j):
    m = 0.72
    p = ModelParams(m=m, mu=j * m * (1 + 3e-8), gamma=0.0, sigma2=3e-4)
    assert p.mu_hat == pytest.approx(j * m, rel=1e-7)
    assert build_expansion(p, 0.1, N_MAX).order == N_MAX


@pytest.mark.parametrize("mu", [-0.72 + 5e-9, -1.44 + 1e-8])
def test_genericity_rejects_near_negative_multiples(mu):
    # Inside the band around -j*m the expansion build would fail, so
    # validation must reject the parameters up front.
    with pytest.raises(DegenerateRateError):
        ModelParams(m=0.72, mu=mu, gamma=0.0, sigma2=3e-4)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_genericity_accepts_just_outside_negative_band(j):
    m = 0.72
    p = ModelParams(m=m, mu=-j * m * (1 + 3e-8), gamma=0.0, sigma2=3e-4)
    assert build_expansion(p, 0.1, N_MAX).order == N_MAX


def test_genericity_accepts_base(base_params):
    assert base_params.delta_gen == pytest.approx(7.2e-9)


def test_initial_state_requires_positive_l0():
    with pytest.raises(ValueError):
        InitialState(s0=0.0, l0=0.0)
    with pytest.raises(ValueError):
        InitialState(s0=0.0, l0=-0.1)


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
