"""Model parameters, initial state and the risk-adjusted equilibrium.

The two-factor model is parametrized by the spread dynamics (mean-reversion
speed ``m``, equilibrium ``mu``, volatility ``gamma``), the squared consol-rate
volatility scale ``sigma2`` and the market price of spread risk ``lam``.  The
risk-adjusted equilibrium is

    mu_hat = mu - lam * gamma / m

and the deterministic (noise-free) spread path started at ``s0`` is

    s(t) = mu_hat + eps * exp(-m t),   eps = s0 - mu_hat.

``eps`` is the small parameter of every expansion in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "N_MAX",
    "ModelParams",
    "InitialState",
    "load_config",
]

# Largest supported expansion order, far beyond the 3 orders needed in practice.
N_MAX = 16


def _require_finite(value: float, name: str) -> float:
    # float() takes text, bytes, booleans and, on some numpy versions, 1-element arrays and numpy complexes.
    is_numpy = isinstance(value, (np.ndarray, np.generic))
    if isinstance(value, (str, bytes, bool)) or (is_numpy and (value.ndim != 0 or value.dtype.kind not in "iuf")):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_maturity(tau: float) -> float:
    tau = _require_finite(tau, "maturity tau")
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
    return tau


def _require_index(value: int, name: str, lo: int, hi: int) -> None:
    """Raise ValueError unless ``value`` is an integer, not a float or bool, in [lo, hi]."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


def _require_order(order: int) -> None:
    _require_index(order, "expansion order", 0, N_MAX)


def _require_consol_rate(l0: float) -> float:
    value = _require_finite(l0, "l0")
    if value <= 0:
        raise ValueError(f"initial consol rate l0 must be > 0, got {l0}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """The five model constants.

    Attributes:
        m: spread mean-reversion speed (1/year), must be positive.
        mu: spread equilibrium level (decimal rate).
        gamma: spread volatility (decimal), non-negative.
        sigma2: squared consol-rate volatility scale, must be positive.
        lam: market price of spread risk (dimensionless).

    Construction checks that every constant and mu_hat are finite, and the
    signs above, and stores each constant as a float.  Any finite mu_hat is
    accepted, 0 and multiples of m included.
    """

    m: float
    mu: float
    gamma: float
    sigma2: float
    lam: float = 0.0

    def __post_init__(self):
        for name in ("m", "mu", "gamma", "sigma2", "lam"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
        if self.m <= 0:
            raise ValueError(f"mean-reversion speed m must be > 0, got {self.m}")
        if self.sigma2 <= 0:
            raise ValueError(f"volatility scale sigma2 must be > 0, got {self.sigma2}")
        if self.gamma < 0:
            raise ValueError(f"spread volatility gamma must be >= 0, got {self.gamma}")
        _require_finite(self.mu_hat, "risk-adjusted equilibrium mu_hat")

    @property
    def mu_hat(self) -> float:
        """Risk-adjusted spread equilibrium mu - lam*gamma/m."""
        return self.mu - self.lam * self.gamma / self.m


@dataclass(frozen=True)
class InitialState:
    """Initial spread and consol rate for which a bond is priced, stored as Python floats."""

    s0: float
    l0: float

    def __post_init__(self):
        object.__setattr__(self, "s0", _require_finite(self.s0, "s0"))
        object.__setattr__(self, "l0", _require_consol_rate(self.l0))


# Config files are flat "key = value" lines; keys are case-sensitive and
# limited to the documented set.  '#' starts a comment.
_PARAM_KEYS = ("m", "mu", "gamma", "sigma2", "lambda")
_STATE_KEYS = ("s0", "l0")


def load_config(path) -> tuple[ModelParams, InitialState]:
    """Load parameters and initial state from a key-value config file.

    Recognized keys: m, mu, gamma, sigma2, lambda, s0, l0 (all required).
    Unknown keys and malformed lines raise ValueError.
    """
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _PARAM_KEYS + _STATE_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = float(text.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: invalid number {text.strip()!r} for {key!r}") from None
    missing = [k for k in _PARAM_KEYS + _STATE_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    params = ModelParams(
        m=values["m"],
        mu=values["mu"],
        gamma=values["gamma"],
        sigma2=values["sigma2"],
        lam=values["lambda"],
    )
    state = InitialState(s0=values["s0"], l0=values["l0"])
    return params, state
