"""Regenerate the exact-arithmetic RK4 values frozen in _reference.py.

Run ``python tests/_make_rk4_reference.py``; it needs mpmath, which the
package itself does not use, and takes about two minutes.  It prints the
``RK4_REFERENCE`` and ``RK4_REFERENCE_LONG`` tables to paste into
_reference.py.

The values are the discrete classical RK4 solution of

    dl/dt = sigma2 - (mu_hat + eps exp(-m t)) l,   dA/dt = l,

with l(0) = l0 and A(0) = 0, after n steps of size h.  The inputs are the
doubles a double-precision integrator starts from (mu_hat = mu - lam*gamma/m,
eps = s0 - mu_hat and h = tau/n, each rounded to a double); every step after
that runs in 40-digit arithmetic, with exact h/2, h/6 and step times i*h.
The table therefore holds what RK4 gives without rounding, so it measures
the rounding error of a double-precision RK4 alone, not its truncation
error.  The script shares no code with the package.

As a check, each value is recomputed at 60 digits and must agree to 1e-30,
and A(tau) must lie within the RK4 truncation error (1e-11) of the 60-digit
integral of the exact solution
l(t) = exp(-G(t)) (l0 + sigma2 int_0^t exp(G(u)) du),
G(t) = mu_hat t + eps (1 - exp(-m t))/m.
"""

import mpmath as mp

BASE = dict(m=0.72, mu=-0.01, gamma=0.007, sigma2=0.0003, lam=0.0)
L0 = 0.1
CASES = ((1.0, 1000), (10.0, 10000))
# tau = 100 at the default 1000 steps per year: 391 blocks of the package's scan.
LONG_CASES = ((100.0, 100000),)


def double_inputs(s0_of, tau, n_steps):
    """The double-precision inputs of the integration, as Python floats."""
    m, sigma2 = BASE["m"], BASE["sigma2"]
    mu_hat = BASE["mu"] - BASE["lam"] * BASE["gamma"] / m
    s0 = s0_of(mu_hat)
    return s0, dict(eps=s0 - mu_hat, mu_hat=mu_hat, m=m, sigma2=sigma2, l0=L0, h=tau / n_steps, n_steps=n_steps)


def rk4(eps, mu_hat, m, sigma2, l0, h, n_steps):
    """(A, l) after n_steps classical RK4 steps, in the current mpmath precision."""
    eps, mu_hat, m, sigma2, h = (mp.mpf(v) for v in (eps, mu_hat, m, sigma2, h))
    half = h / 2
    sixth = h / 6
    ell = mp.mpf(l0)
    acc = mp.mpf(0)
    for i in range(n_steps):
        t = i * h
        s_a = mu_hat + eps * mp.exp(-m * t)
        s_mid = mu_hat + eps * mp.exp(-m * (t + half))
        s_b = mu_hat + eps * mp.exp(-m * (t + h))
        k1 = sigma2 - s_a * ell
        y2 = ell + half * k1
        k2 = sigma2 - s_mid * y2
        y3 = ell + half * k2
        k3 = sigma2 - s_mid * y3
        y4 = ell + h * k3
        k4 = sigma2 - s_b * y4
        acc += sixth * (ell + 2 * y2 + 2 * y3 + y4)
        ell += sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    return acc, ell


def exact_integral(eps, mu_hat, m, sigma2, l0, h, n_steps):
    """int_0^tau l(t) dt of the exact solution, by nested quadrature."""
    eps, mu_hat, m, sigma2, l0 = (mp.mpf(v) for v in (eps, mu_hat, m, sigma2, l0))
    tau = mp.mpf(h) * n_steps
    G = lambda t: mu_hat * t - eps * mp.expm1(-m * t) / m
    ell = lambda t: mp.exp(-G(t)) * (l0 + sigma2 * mp.quad(lambda u: mp.exp(G(u)), [0, t]))
    return mp.quad(ell, mp.linspace(0, tau, 5))


def table(cases):
    """(n_steps, A(tau), l(tau)) keyed by (s0, tau), for each (tau, n_steps) of ``cases``."""
    rows = {}
    for name, s0_of in (("-0.05", lambda mh: -0.05), ("mu_hat", lambda mh: mh), ("0.05", lambda mh: 0.05)):
        for tau, n_steps in cases:
            s0, inputs = double_inputs(s0_of, tau, n_steps)
            mp.mp.dps = 40
            acc, ell = rk4(**inputs)
            mp.mp.dps = 60
            acc_fine, ell_fine = rk4(**inputs)
            assert abs(acc - acc_fine) < mp.mpf("1e-30") * abs(acc), (name, tau)
            assert abs(ell - ell_fine) < mp.mpf("1e-30") * abs(ell), (name, tau)
            mp.mp.dps = 30
            exact = exact_integral(**inputs)
            assert abs(acc - exact) < mp.mpf("1e-11"), (name, tau, acc - exact)
            rows[s0, tau] = (n_steps, float(acc), float(ell))
    return rows


def main():
    for title, cases in (("RK4_REFERENCE", CASES), ("RK4_REFERENCE_LONG", LONG_CASES)):
        print(f"{title} = {{")
        for (s0, tau), (n_steps, acc, ell) in table(cases).items():
            print(f"    ({s0!r}, {tau!r}): ({n_steps}, {acc!r}, {ell!r}),")
        print("}")


if __name__ == "__main__":
    main()
