"""Regenerate the high-precision s_hat coefficients frozen in _reference.py.

Run ``python tests/_make_shat_reference.py``; it needs mpmath, which the
package itself does not use, and takes about a minute.  It prints the
``SHAT_K_REFERENCE`` and ``MOMENT_REFERENCE`` tables to paste into
_reference.py.

The computation shares no code and no formula with the package:

- L_k(tau) come from the integral representation of the consol-rate path,
  l(t) = exp(-A(t)) (l0 + sigma2 int_0^t exp(A(u)) du) with
  A(t) = mu_hat t + eps g(t), g(t) = (1 - exp(-m t))/m, expanded in eps
  under the integral and integrated by tensor Gauss-Legendre quadrature;
- the Taylor coefficients of F(s) = l0 tau phi1(s tau) - sigma2 tau^2 phi2(s tau)
  come from mpmath's numerical differentiation of its closed form;
- the reversion F(k_0 + delta(eps)) = sum_k L_k eps^k runs in 60-digit
  arithmetic.

Each stage is checked against a second route (a finer quadrature, the
moment integrals of F, and a root solve at a sample eps) before printing.
"""

import mpmath as mp

mp.mp.dps = 60

BASE = dict(m=0.72, mu=-0.01, gamma=0.007, sigma2=0.0003, lam=0.0)
L0 = 0.1
TAUS = (1.0, 10.0)
ORDER = 16
MOMENT_X = (-15.0, -3.0, -0.1, 0.1, 3.0, 9.0, 15.0)
MOMENT_J = 17


def gauss_legendre(a, b, degree):
    """(node, weight) pairs on [a, b]; 3 * 2**(degree-1) points."""
    nodes = mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)
    half = (b - a) / 2
    return [(a + half * (1 + x), half * w) for x, w in nodes]


def scaled_powers(x, order):
    """x^k / k! for k = 0..order."""
    out = [mp.mpf(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * x / k)
    return out


def tau_lbar_coefficients(m, mu_hat, sigma2, l0, tau, order, degree):
    """L_0..L_order, the eps-coefficients of int_0^tau l(t) dt."""
    g = lambda t: -mp.expm1(-m * t) / m
    L = [mp.mpf(0)] * (order + 1)
    inner = gauss_legendre(0, 1, degree)
    for t, wt in gauss_legendre(0, tau, degree):
        gt = g(t)
        outer = l0 * mp.exp(-mu_hat * t) * wt
        for k, p in enumerate(scaled_powers(-gt, order)):
            L[k] += outer * p
        # The sigma2 term, with u = t v: t exp(-mu_hat t (1 - v)) (g(t v) - g(t))^k / k!.
        for v, wv in inner:
            weight = sigma2 * wt * wv * t * mp.exp(-mu_hat * t * (1 - v))
            for k, p in enumerate(scaled_powers(g(t * v) - gt, order)):
                L[k] += weight * p
    return L


def F(s, tau, l0, sigma2):
    x = s * tau
    phi1 = -mp.expm1(-x) / x
    phi2 = (-mp.expm1(-x) - x) / (x * x)
    return l0 * tau * phi1 - sigma2 * tau * tau * phi2


def taylor_moments(k0, tau, l0, sigma2, order, degree):
    """Second route to the Taylor coefficients of F: its moment integrals."""
    out = []
    for j in range(order + 1):
        total = mp.mpf(0)
        for u, w in gauss_legendre(0, 1, degree):
            total += w * u**j * (l0 + sigma2 * tau * (1 - u)) * mp.exp(-k0 * tau * u)
        out.append(tau * (-tau) ** j / mp.factorial(j) * total)
    return out


def revert(f, L):
    """k_0..k_N with sum_j f_j (k(eps) - k_0)^j = sum_k L_k eps^k, order by order."""
    order = len(L) - 1
    delta = [mp.mpf(0)] * (order + 1)
    for n in range(1, order + 1):
        power = delta[:]  # delta^1, with delta_n still 0
        nonlinear = mp.mpf(0)
        for j in range(2, n + 1):
            power = [mp.fsum(power[i] * delta[n_ - i] for i in range(n_ + 1)) for n_ in range(order + 1)]
            nonlinear += f[j] * power[n]
        delta[n] = (L[n] - nonlinear) / f[1]
    return delta


def check(ok, message):
    if not ok:
        raise SystemExit(f"reference check failed: {message}")


def relative_gap(a, b):
    return max(abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b))


def main():
    m, mu, gamma, sigma2, lam = (BASE[k] for k in ("m", "mu", "gamma", "sigma2", "lam"))
    k0 = mp.mpf(mu - lam * gamma / m)  # the double the package uses for mu_hat
    m, sigma2, l0 = mp.mpf(m), mp.mpf(sigma2), mp.mpf(L0)
    table = {}
    for tau_float in TAUS:
        tau = mp.mpf(tau_float)
        L = tau_lbar_coefficients(m, k0, sigma2, l0, tau, ORDER, 6)
        L_fine = tau_lbar_coefficients(m, k0, sigma2, l0, tau, ORDER, 7)
        check(relative_gap(L, L_fine) < mp.mpf(10) ** -45, "quadrature not converged")
        f = mp.taylor(lambda s: F(s, tau, l0, sigma2), k0, ORDER)
        f_moments = taylor_moments(k0, tau, l0, sigma2, ORDER, 7)
        check(relative_gap(f, f_moments) < mp.mpf(10) ** -40, "Taylor coefficients disagree")
        delta = revert(f, L)
        k = [k0] + delta[1:]
        # The truncated reversion must solve F(s) = sum_k L_k eps^k to O(eps^(N+1)).
        eps = mp.mpf("1e-3")
        root = mp.findroot(lambda s: F(s, tau, l0, sigma2) - mp.polyval(L[::-1], eps), k0)
        gap = abs(root - mp.polyval(k[::-1], eps))
        check(gap < 10 * abs(k[ORDER]) * eps ** (ORDER + 1) + mp.mpf(10) ** -50, "reversion misses the root")
        table[tau_float] = k
    print("SHAT_K_REFERENCE = {")
    for tau_float, k in table.items():
        print(f"    {tau_float!r}: (")
        for kn in k:
            print(f"        {float(kn)!r},")
        print("    ),")
    print("}")
    # I_j(x) = int_0^1 u^j exp(-x u) du by adaptive quadrature.
    print("MOMENT_REFERENCE = {")
    for x in MOMENT_X:
        values = [mp.quad(lambda u: u**j * mp.exp(-mp.mpf(x) * u), [0, 1]) for j in range(MOMENT_J + 1)]
        print(f"    {x!r}: (")
        for row in range(0, len(values), 3):
            print("        " + " ".join(f"{float(v)!r}," for v in values[row : row + 3]))
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
