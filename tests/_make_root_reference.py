"""Regenerate the roots at large tau*lbar frozen in _reference.py.

Run ``python tests/_make_root_reference.py`` from the repository root; it
needs mpmath, which the package itself does not use, and takes about a
minute.  It prints the ``ROOT_REFERENCE`` table to paste into _reference.py.

At these inputs tau*lbar is large (5e5 to 8e243), and so is the rounding
floor of the cleared residual

    g(s) = tau_lbar s^2 - (l0 s - sigma2)(1 - exp(-s tau)) - sigma2 s tau,

far above the absolute tolerance TOL_ROOT = 1e-12.  Each row holds
tau_lbar, the discrete RK4 value A(tau) of ``_make_rk4_reference.rk4`` at the
default 1000 steps per year (40 digits, rounded to a double), and the root
of the defining equation with that double as an exact input, by bisection
of the deflated residual g(s) / s^2 (strictly monotone, with no root at
s = 0) in 60-digit arithmetic.  The bisection is repeated at 80 digits and
must agree to 1e-50.  The script shares no code with the package.
"""

import math

import mpmath as mp

from _make_rk4_reference import rk4

PARAMS = {
    "base": dict(m=0.72, mu=-0.01, gamma=0.007, sigma2=0.0003, lam=0.0),
    "fast": dict(m=0.5, mu=-0.3, gamma=0.007, sigma2=0.0003, lam=0.0),
}
# (parameter set, s0, l0, tau)
CASES = (
    ("base", -800.0, 0.005, 1.0),
    ("base", -800.0, 0.1, 1.0),
    ("fast", -0.6, 0.05, 50.0),
    ("fast", -0.25, 0.05, 50.0),
)


def bisect_root(tau_lbar, l0, sigma2, tau, lo, hi):
    """The root of g(s) / s^2 in [lo, hi], to the current mpmath precision."""
    tau_lbar, l0, sigma2, tau = (mp.mpf(v) for v in (tau_lbar, l0, sigma2, tau))

    def q(s):
        return tau_lbar - (l0 * s - sigma2) * (-mp.expm1(-s * tau)) / s**2 - sigma2 * tau / s

    lo, hi = mp.mpf(lo), mp.mpf(hi)
    q_lo = q(lo)
    assert q_lo * q(hi) < 0, (lo, hi)
    for _ in range(400):
        mid = (lo + hi) / 2
        if (q(mid) < 0) == (q_lo < 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def main():
    rows = {}
    for name, s0, l0, tau in CASES:
        p = PARAMS[name]
        mu_hat = p["mu"] - p["lam"] * p["gamma"] / p["m"]
        eps = s0 - mu_hat
        n_steps = max(1000, math.ceil(1000 * tau))
        mp.mp.dps = 40
        tau_lbar = float(rk4(eps, mu_hat, p["m"], p["sigma2"], l0, tau / n_steps, n_steps)[0])
        # The root lies between mu_hat and the initial spread (the spread
        # moves monotonically from s0 to mu_hat); widen by 1 on each side.
        lo, hi = min(s0, mu_hat) - 1.0, max(s0, mu_hat) + 1.0
        mp.mp.dps = 60
        root = bisect_root(tau_lbar, l0, p["sigma2"], tau, lo, hi)
        mp.mp.dps = 80
        fine = bisect_root(tau_lbar, l0, p["sigma2"], tau, lo, hi)
        assert abs(root - fine) < mp.mpf("1e-50") * abs(fine), (name, s0, l0, tau)
        rows[name, s0, l0, tau] = (tau_lbar, float(root))
    print("ROOT_REFERENCE = {")
    for key, (tau_lbar, root) in rows.items():
        print(f"    {key!r}: ({tau_lbar!r}, {root!r}),")
    print("}")


if __name__ == "__main__":
    main()
