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

from .errors import DegenerateRateError

__all__ = [
    "N_MAX",
    "ModelParams",
    "InitialState",
    "load_config",
]

# Largest supported expansion order.  Caps the genericity scan; far beyond
# the 3 orders needed in practice.
N_MAX = 16


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_maturity(tau: float) -> float:
    tau = _require_finite(tau, "maturity tau")
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
    return tau


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

    Construction validates positivity and the genericity condition: the
    risk-adjusted equilibrium mu_hat must be nonzero and must not coincide
    with any integer multiple +-j*m (1 <= j <= N_MAX) within ``delta_gen``.
    Rate collisions below that scale would make expansion-coefficient
    denominators blow up, so they are rejected up front.
    """

    m: float
    mu: float
    gamma: float
    sigma2: float
    lam: float = 0.0

    def __post_init__(self):
        for name in ("m", "mu", "gamma", "sigma2", "lam"):
            _require_finite(getattr(self, name), name)
        if self.m <= 0:
            raise ValueError(f"mean-reversion speed m must be > 0, got {self.m}")
        if self.sigma2 <= 0:
            raise ValueError(f"volatility scale sigma2 must be > 0, got {self.sigma2}")
        if self.gamma < 0:
            raise ValueError(f"spread volatility gamma must be >= 0, got {self.gamma}")
        mh = self.mu_hat
        tol = self.delta_gen
        if abs(mh) < tol:
            raise DegenerateRateError(
                f"risk-adjusted equilibrium mu_hat={mh!r} is within {tol!r} of zero"
            )
        for j in range(1, N_MAX + 1):
            if abs(abs(mh) - j * self.m) < tol:
                raise DegenerateRateError(
                    f"mu_hat={mh!r} collides with {math.copysign(j, mh):+.0f}*m "
                    f"(tolerance {tol!r}); expansion denominators degenerate"
                )

    @property
    def mu_hat(self) -> float:
        """Risk-adjusted spread equilibrium mu - lam*gamma/m."""
        return self.mu - self.lam * self.gamma / self.m

    @property
    def delta_gen(self) -> float:
        """Half-width of the genericity band around 0 and +-j*m: 1e-8 * max(|mu_hat|, m)."""
        return 1e-8 * max(abs(self.mu_hat), self.m)


@dataclass(frozen=True)
class InitialState:
    """Initial spread and consol rate for which a bond is priced."""

    s0: float
    l0: float

    def __post_init__(self):
        _require_finite(self.s0, "s0")
        _require_consol_rate(self.l0)


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
