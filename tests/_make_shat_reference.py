"""Regenerate the high-precision s_hat coefficients frozen in _reference.py.

Run ``python tests/_make_shat_reference.py``; it needs mpmath, which the
package itself does not use, and takes a few minutes.  It prints the
``SHAT_K_REFERENCE``, ``SHAT_K_SHORT_REFERENCE``, ``COEFFICIENT_REFERENCE``,
``BOX_REFERENCE``, ``MOMENT_REFERENCE``, ``PHI_REFERENCE`` and
``PATH_REFERENCE`` tables to paste into _reference.py.

The computation shares no code with the package:

- L_k(tau) = A_k + l0 B_k come from the integral representation of the
  consol-rate path, l(t) = exp(-A(t)) (l0 + sigma2 int_0^t exp(A(u)) du)
  with A(t) = mu_hat t + eps g(t), g(t) = (1 - exp(-m t))/m, expanded in
  eps under the integral and integrated by tensor Gauss-Legendre
  quadrature: B_k is the l0 term, A_k the sigma2 term;
- the Taylor coefficients f_j = a_j + l0 b_j of
  F(s) = l0 tau phi1(s tau) - sigma2 tau^2 phi2(s tau) come from mpmath's
  numerical differentiation of its closed form, b_j of the l0 term and
  a_j of the sigma2 term;
- the reversion F(k_0 + delta(eps)) = sum_k L_k eps^k runs in 100-digit
  arithmetic.

Each stage is checked against a second route (a finer quadrature, an
adaptive ``mpmath.quad`` of the one-dimensional integrals

    (-1)^k k! B_k = int_0^tau e(v) g(v)^k dv,
    (-1)^k k! A_k = sigma2 int_0^tau e(v) g(v)^k h_k(tau - v) dv,
    (-1)^j j! b_j = int_0^tau e(v) v^j dv,
    (-1)^j j! a_j = sigma2 int_0^tau e(v) v^j (tau - v) dv,

with e(v) = exp(-mu_hat v) and h_k(w) = (1 - exp(-k m w))/(k m),
h_0(w) = w, and a root solve at a sample eps) before printing.

The path coefficients c_k(t) come from the same representation of l(t),
expanded in eps at fixed t:

    (-1)^k k! c_k(t) = l0 e(t) g(t)^k + sigma2 int_0^t e(v) g(v)^k exp(-k m (t - v)) dv,

by adaptive ``mpmath.quad`` at 60 digits, and are checked against the
closed form c_k(t) = alpha_k exp(-k m t) + sum_j beta_kj exp(-(mu_hat + j m) t)
of its recursion, summed at 100 digits.
"""

import mpmath as mp

mp.mp.dps = 100

BASE = dict(m=0.72, mu=-0.01, gamma=0.007, sigma2=0.0003, lam=0.0)
L0 = 0.1
TAUS = (1.0, 10.0)
SHORT_TAUS = (0.01, 0.1)
COEFFICIENT_TAUS = (0.01, 0.1, 1.0, 10.0)
ORDER = 16
MOMENT_X = (-15.0, -3.0, -0.1, 0.1, 3.0, 9.0, 15.0)
MOMENT_J = 17
# Points for the oracle's phi functions: near zero, and 0.99 and 1.01 times
# its quadrature cutoff |x| = 4.
PATH_TIMES = (0.01, 0.1, 1.0, 10.0)
PHI_X = tuple(sign * x for x in (1e-8, 1.01e-4, 1e-2, 3.96, 4.04, 10.0) for sign in (-1.0, 1.0))
# Sets across the parameter box, (m, mu_hat, sigma2, tau) with l0 = L0 and
# gamma = lambda = 0: slow and fast mean reversion, mu_hat at 0 and at m,
# maturities from 0.01 to 50.  At m = 0.5, mu_hat = 0.3, tau = 50 the tensor
# quadrature at degree 6 misses degree 7 by 1.6e-35, so the box runs at
# degrees 7 and 8.
BOX = (
    (0.72, -0.01, 3e-4, 1.0),
    (0.72, -0.01, 3e-4, 0.01),
    (3.0, 0.25, 3e-4, 5.0),
    (0.1, -0.05, 5e-4, 50.0),
    (0.72, 0.0, 3e-4, 1.0),
    (0.72, 0.72, 3e-4, 2.0),
    (0.5, 0.3, 3e-4, 50.0),
    (5.0, -0.3, 1e-4, 0.5),
)
BOX_DEGREE = 7


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


def tau_lbar_coefficients(m, mu_hat, sigma2, tau, order, degree):
    """A_0..A_order and B_0..B_order, the eps-coefficients of int_0^tau l(t) dt = sum_k (A_k + l0 B_k) eps^k."""
    g = lambda t: -mp.expm1(-m * t) / m
    A = [mp.mpf(0)] * (order + 1)
    B = [mp.mpf(0)] * (order + 1)
    inner = gauss_legendre(0, 1, degree)
    for t, wt in gauss_legendre(0, tau, degree):
        gt = g(t)
        outer = mp.exp(-mu_hat * t) * wt
        for k, p in enumerate(scaled_powers(-gt, order)):
            B[k] += outer * p
        # The sigma2 term, with u = t v: t exp(-mu_hat t (1 - v)) (g(t v) - g(t))^k / k!.
        for v, wv in inner:
            weight = sigma2 * wt * wv * t * mp.exp(-mu_hat * t * (1 - v))
            for k, p in enumerate(scaled_powers(g(t * v) - gt, order)):
                A[k] += weight * p
    return A, B


def taylor_parts(k0, tau, sigma2, order):
    """a_0..a_order and b_0..b_order: the Taylor coefficients at k0 of the two terms of F."""
    b = mp.taylor(lambda s: tau * phi1(s * tau), k0, order)
    a = mp.taylor(lambda s: -sigma2 * tau * tau * phi2(s * tau), k0, order)
    return a, b


def phi1(x):
    return -mp.expm1(-x) / x if x else mp.mpf(1)


def phi2(x):
    return (-mp.expm1(-x) - x) / (x * x) if x else -mp.mpf(1) / 2


def F(s, tau, l0, sigma2):
    return l0 * tau * phi1(s * tau) - sigma2 * tau * tau * phi2(s * tau)


def one_dimensional_integrals(m, mu_hat, sigma2, tau, order):
    """Second route to A_k, B_k, a_j and b_j: adaptive quadrature of the integrals in the docstring."""
    e = lambda v: mp.exp(-mu_hat * v)
    g = lambda v: -mp.expm1(-m * v) / m

    def h(k, w):
        return w if k == 0 else -mp.expm1(-k * m * w) / (k * m)

    def integral(f, k):
        return (-1) ** k / mp.factorial(k) * mp.quad(f, [0, tau])

    A = [sigma2 * integral(lambda v: e(v) * g(v) ** k * h(k, tau - v), k) for k in range(order + 1)]
    B = [integral(lambda v: e(v) * g(v) ** k, k) for k in range(order + 1)]
    a = [sigma2 * integral(lambda v: e(v) * v**j * (tau - v), j) for j in range(order + 1)]
    b = [integral(lambda v: e(v) * v**j, j) for j in range(order + 1)]
    return A, B, a, b


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


def phi_functions(x):
    """phi1, phi2, phi1' and phi2' at x != 0 from their closed forms, and by quadrature as a check."""
    e = mp.exp(-x)
    closed = (
        -mp.expm1(-x) / x,
        (-mp.expm1(-x) - x) / x**2,
        (x * e + mp.expm1(-x)) / x**2,
        (mp.expm1(-x) * (x + 2) + 2 * x) / x**3,
    )
    weights = (lambda u: 1, lambda u: u - 1, lambda u: -u, lambda u: u * (1 - u))
    integrals = [mp.quad(lambda u: w(u) * mp.exp(-x * u), [0, 1]) for w in weights]
    check(relative_gap(closed, integrals) < mp.mpf(10) ** -40, f"phi functions at {x}")
    return closed


def path_coefficients(m, mu_hat, sigma2, l0, t, order):
    """c_0(t)..c_order(t): the integral form at 60 digits, checked against the closed form at 100."""
    g = lambda v: -mp.expm1(-m * v) / m

    def integral_form(k):
        tail = mp.quad(lambda v: mp.exp(-mu_hat * v) * g(v) ** k * mp.exp(-k * m * (t - v)), [0, t])
        return (l0 * mp.exp(-mu_hat * t) * g(t) ** k + sigma2 * tail) * (-1) ** k / mp.factorial(k)

    with mp.workdps(60):
        integral = [integral_form(k) for k in range(order + 1)]
    alpha = [sigma2 / mu_hat]
    beta = [l0 - alpha[0]]
    closed = [alpha[0] + beta[0] * mp.exp(-mu_hat * t)]
    for k in range(1, order + 1):
        alpha.append(-alpha[-1] / (mu_hat - k * m))
        beta = [b / (j * m) for j, b in enumerate(beta, start=1)]
        beta.insert(0, -(alpha[-1] + mp.fsum(beta)))
        terms = [b * mp.exp(-(mu_hat + j * m) * t) for j, b in enumerate(beta)]
        closed.append(alpha[-1] * mp.exp(-k * m * t) + mp.fsum(terms))
    check(relative_gap(integral, closed) < mp.mpf(10) ** -40, f"path coefficients at t={t}")
    return integral


def print_table(name, rows):
    """``name = {key: (values...), ...}``, three values to a line."""
    print(f"{name} = {{")
    for key, values in rows.items():
        print(f"    {key!r}: (")
        for row in range(0, len(values), 3):
            print("        " + " ".join(f"{float(v)!r}," for v in values[row : row + 3]))
        print("    ),")
    print("}")


def reference_set(m, k0, sigma2, l0, tau, degree):
    """``(k, (A, B, a, b))`` at one set: k_0..ORDER and both sides of the reversion, each stage checked."""
    A, B = tau_lbar_coefficients(m, k0, sigma2, tau, ORDER, degree)
    A_fine, B_fine = tau_lbar_coefficients(m, k0, sigma2, tau, ORDER, degree + 1)
    check(relative_gap(A + B, A_fine + B_fine) < mp.mpf(10) ** -45, "quadrature not converged")
    a, b = taylor_parts(k0, tau, sigma2, ORDER)
    second = one_dimensional_integrals(m, k0, sigma2, tau, ORDER)
    check(relative_gap(A + B + a + b, sum(second, [])) < mp.mpf(10) ** -40, "the two routes disagree")
    L = [x + l0 * y for x, y in zip(A, B)]
    f = [x + l0 * y for x, y in zip(a, b)]
    delta = revert(f, L)
    k = [k0] + delta[1:]
    # The truncated reversion must solve F(s) = sum_k L_k eps^k to O(eps^(N+1)).
    eps = mp.mpf("1e-3")
    root = mp.findroot(lambda s: F(s, tau, l0, sigma2) - mp.polyval(L[::-1], eps), k0)
    gap = abs(root - mp.polyval(k[::-1], eps))
    check(gap < 10 * abs(k[ORDER]) * eps ** (ORDER + 1) + mp.mpf(10) ** -50, "reversion misses the root")
    return k, (A, B, a, b)


def print_families(name, table):
    """``name = {key: {family: (values...), ...}, ...}``, three values to a line."""
    print(f"{name} = {{")
    for key, families in table.items():
        print(f"    {key!r}: {{")
        for family, values in families.items():
            print(f"        {family!r}: (")
            for row in range(0, len(values), 3):
                print("            " + " ".join(f"{float(v)!r}," for v in values[row : row + 3]))
            print("        ),")
        print("    },")
    print("}")


def box_reference():
    """``{(m, mu_hat, sigma2, tau): {"k": ..., "A": ..., "B": ..., "a": ..., "b": ...}}`` over BOX."""
    table = {}
    for key in BOX:
        m, mu_hat, sigma2, tau = (mp.mpf(x) for x in key)
        k, sides = reference_set(m, mu_hat, sigma2, mp.mpf(L0), tau, BOX_DEGREE)
        table[key] = dict(zip("kABab", (k, *sides)))
    return table


def main():
    m, mu, gamma, sigma2, lam = (BASE[k] for k in ("m", "mu", "gamma", "sigma2", "lam"))
    k0 = mp.mpf(mu - lam * gamma / m)  # the double the package uses for mu_hat
    m, sigma2, l0 = mp.mpf(m), mp.mpf(sigma2), mp.mpf(L0)
    shat = {}
    coefficients = {}
    for tau_float in COEFFICIENT_TAUS:
        shat[tau_float], coefficients[tau_float] = reference_set(m, k0, sigma2, l0, mp.mpf(tau_float), 6)
    print("SHAT_K_REFERENCE = {")
    for tau_float in TAUS:
        print(f"    {tau_float!r}: (")
        for kn in shat[tau_float]:
            print(f"        {float(kn)!r},")
        print("    ),")
    print("}")
    print_table("SHAT_K_SHORT_REFERENCE", {tau: shat[tau] for tau in SHORT_TAUS})
    print_families("COEFFICIENT_REFERENCE", {tau: dict(zip("ABab", sides)) for tau, sides in coefficients.items()})
    print_families("BOX_REFERENCE", box_reference())
    # I_j(x) = int_0^1 u^j exp(-x u) du by adaptive quadrature.
    moments = {}
    for x in MOMENT_X:
        moments[x] = [mp.quad(lambda u: u**j * mp.exp(-mp.mpf(x) * u), [0, 1]) for j in range(MOMENT_J + 1)]
    print_table("MOMENT_REFERENCE", moments)
    print_table("PHI_REFERENCE", {x: phi_functions(mp.mpf(x)) for x in PHI_X})
    print_table("PATH_REFERENCE", {t: path_coefficients(m, k0, sigma2, l0, mp.mpf(t), ORDER) for t in PATH_TIMES})

if __name__ == "__main__":
    main()
