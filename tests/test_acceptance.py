"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 2 and 3 compare against the embedded 7-decimal reference tables.
Ground truth (see _reference.py) shows four of those reference cells carry
about 1e-7 of root-solver error, beyond the 5e-8 gate, so those two criteria
fail honestly on exactly those cells; every other check passes.
"""

import math
import random
import time


from sshat import (
    InitialState,
    build_expansion,
    compute_oracle,
    integrate_ell,
    rhs1_printed,
    solve_shat_series,
    tau_lbar_terms,
)
from sshat.cli import REFERENCE_SHAT, REFERENCE_TAU_LBAR, TABLE_S0, main

from _reference import BASE_L0, BASE_TAU

from test_perturbation import (
    _coeff_at,
    _max_abs_coeff,
    _ode_residual,
    _random_valid_params,
    closed_form_L_coeffs,
    closed_form_c_coeffs,
)

TOLERANCE_TABLE = 5e-8


def _report(number: int, label: str, failures: list[str]):
    status = "FAIL" if failures else "PASS"
    detail = f"  [{'; '.join(failures)}]" if failures else ""
    print(f"criterion {number} ({label}): {status}{detail}")
    assert not failures, f"criterion {number}: {'; '.join(failures)}"


def test_criterion_1_integral_table(base_params):
    failures = []
    started = time.perf_counter()
    expansion = build_expansion(base_params, BASE_L0, 3)
    terms = tau_lbar_terms(expansion, BASE_TAU)
    for order in range(4):
        for s0, expected in zip(TABLE_S0, REFERENCE_TAU_LBAR[order]):
            eps = s0 - base_params.mu_hat
            got = math.fsum(terms[k] * eps**k for k in range(order + 1))
            if abs(got - expected) > TOLERANCE_TABLE:
                failures.append(f"order {order} s0={s0:+.2f}: {got:.9f} vs {expected} ({abs(got - expected):.2e})")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "integral-term table within 5e-8", failures)


def test_criterion_2_constant_table(base_params):
    failures = []
    started = time.perf_counter()
    expansion = build_expansion(base_params, BASE_L0, 3)
    shat = solve_shat_series(expansion, BASE_TAU, BASE_L0, base_params, 3)
    for order in range(4):
        for s0, expected in zip(TABLE_S0, REFERENCE_SHAT[order]):
            got = shat.value(s0 - base_params.mu_hat, order=order)
            if abs(got - expected) > TOLERANCE_TABLE:
                failures.append(f"order {order} s0={s0:+.2f}: {got:.9f} vs {expected} ({abs(got - expected):.2e})")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(2, "constant table within 5e-8", failures)


def test_criterion_3_oracle_rows(base_params):
    failures = []
    for s0, tl_ref, sh_ref in zip(TABLE_S0, REFERENCE_TAU_LBAR[4], REFERENCE_SHAT[4]):
        result = compute_oracle(InitialState(s0=s0, l0=BASE_L0), base_params, BASE_TAU)
        if abs(result.tau_lbar - tl_ref) > TOLERANCE_TABLE:
            failures.append(
                f"tau_lbar s0={s0:+.2f}: {result.tau_lbar:.9f} vs {tl_ref} ({abs(result.tau_lbar - tl_ref):.2e})"
            )
        if abs(result.s_hat - sh_ref) > TOLERANCE_TABLE:
            failures.append(
                f"s_hat s0={s0:+.2f}: {result.s_hat:.9f} vs {sh_ref} ({abs(result.s_hat - sh_ref):.2e})"
            )
    for s0 in TABLE_S0:
        state = InitialState(s0=s0, l0=BASE_L0)
        values = {}
        for n in (64, 128, 256):
            _, values[n] = integrate_ell(state, base_params, BASE_TAU, n)
        ratio = abs(values[64] - values[128]) / abs(values[128] - values[256])
        if not 12.0 <= ratio <= 20.0:
            failures.append(f"step-halving ratio {ratio:.2f} outside [12, 20] at s0={s0:+.2f}")
    _report(3, "oracle rows within 5e-8 and 4th-order step halving", failures)


def test_criterion_4_convergence_rates(base_params):
    failures = []
    expansion = build_expansion(base_params, BASE_L0, 3)
    terms = tau_lbar_terms(expansion, BASE_TAU)
    shat = solve_shat_series(expansion, BASE_TAU, BASE_L0, base_params, 3)
    reference = {
        eps: compute_oracle(InitialState(s0=base_params.mu_hat + eps, l0=BASE_L0), base_params, BASE_TAU, 40000)
        for eps in (0.04, 0.02)
    }
    for order in range(4):
        lo, hi = 2 ** (order + 1) * 0.8, 2 ** (order + 1) * 1.25
        tl_err = {
            eps: abs(math.fsum(terms[k] * eps**k for k in range(order + 1)) - reference[eps].tau_lbar)
            for eps in (0.04, 0.02)
        }
        sh_err = {eps: abs(shat.value(eps, order=order) - reference[eps].s_hat) for eps in (0.04, 0.02)}
        tl_ratio = tl_err[0.04] / tl_err[0.02]
        sh_ratio = sh_err[0.04] / sh_err[0.02]
        if not lo <= tl_ratio <= hi:
            failures.append(f"tau_lbar N={order}: ratio {tl_ratio:.2f} outside [{lo}, {hi}]")
        if not lo <= sh_ratio <= hi:
            failures.append(f"s_hat N={order}: ratio {sh_ratio:.2f} outside [{lo}, {hi}]")
    _report(4, "truncation error scales as eps^(N+1)", failures)


def test_criterion_5_symbolic_conformance(base_params):
    failures = []
    rng = random.Random(50505)
    for params in (base_params, _random_valid_params(rng), _random_valid_params(rng)):
        mh, m = params.mu_hat, params.m
        tol = params.delta_gen
        l0 = 0.1
        c01 = params.sigma2 / mh
        c02 = l0 - c01
        expansion = build_expansion(params, l0, 6)
        expected_c = closed_form_c_coeffs(mh, m, c01, c02)
        for k in (1, 2, 3):
            for rate, coeff in expected_c[k].items():
                got = _coeff_at(expansion.c[k], 0, rate, tol)
                if not math.isclose(got, coeff, rel_tol=1e-12):
                    failures.append(f"c_{k} coefficient at rate {rate:.4f}: {got} vs {coeff}")
        expected_L = closed_form_L_coeffs(mh, m, c01, c02)
        for k in range(4):
            exp_part, const, slope = expected_L[k]
            for rate, coeff in exp_part.items():
                got = _coeff_at(expansion.L[k], 0, rate, tol)
                if not math.isclose(got, coeff, rel_tol=1e-12):
                    failures.append(f"L_{k} coefficient at rate {rate:.4f}: {got} vs {coeff}")
            got_const = _coeff_at(expansion.L[k], 0, 0.0, tol)
            if not math.isclose(got_const, const, rel_tol=1e-12):
                failures.append(f"L_{k} constant: {got_const} vs {const}")
            if slope and not math.isclose(_coeff_at(expansion.L[k], 1, 0.0, tol), slope, rel_tol=1e-12):
                failures.append(f"L_{k} linear slope mismatch")
        for k in range(1, 7):
            ck, prev = expansion.c[k], expansion.c[k - 1]
            residual = max(map(abs, _ode_residual(ck, prev, mh, m, tol)))
            if residual > 1e-12 * _max_abs_coeff(ck):
                failures.append(f"ODE residual for c_{k}: {residual:.2e}")
    _report(5, "closed-form coefficients and ODE identity", failures)


def test_criterion_6_generic_solver_cross_check():
    failures = []
    rng = random.Random(606060)
    checked = 0
    while checked < 50:
        params = _random_valid_params(rng)
        l0 = rng.uniform(0.02, 0.2)
        tau = rng.uniform(0.25, 5.0)
        expansion = build_expansion(params, l0, 3)
        try:
            shat = solve_shat_series(expansion, tau, l0, params, 3)
        except Exception:
            continue
        rhs1 = rhs1_printed(expansion, tau, l0, params)
        if not math.isclose(shat.k[1] * shat.bracket, rhs1, rel_tol=1e-12):
            failures.append(
                f"set {checked}: k1*bracket {shat.k[1] * shat.bracket} vs rhs1 {rhs1}"
            )
        bad = [r for r in shat.residuals if r > 1e-12]
        if bad:
            failures.append(f"set {checked}: residuals {bad}")
        checked += 1
    _report(6, "order-1 closed form and vanishing residuals on 50 random sets", failures)


def test_criterion_7_path_deviation_ordering(base_params):
    failures = []
    expansion = build_expansion(base_params, BASE_L0, 3)
    samples = 201
    per_cell = 10
    for s0 in TABLE_S0:
        state = InitialState(s0=s0, l0=BASE_L0)
        eps = s0 - base_params.mu_hat
        path, _ = integrate_ell(state, base_params, 1.0, per_cell * (samples - 1))
        deviations = []
        for order in range(4):
            worst = 0.0
            for i in range(samples):
                t, reference = path[i * per_cell]
                value = math.fsum(
                    expansion.c[k].evaluate(t) * eps**k for k in range(order + 1)
                )
                worst = max(worst, abs(value - reference))
            deviations.append(worst)
        for order in range(3):
            if deviations[order + 1] > deviations[order]:
                failures.append(
                    f"s0={s0:+.2f}: max deviation rose from order {order} to {order + 1}"
                )
        if deviations[3] >= 1e-6:
            failures.append(f"s0={s0:+.2f}: order-3 max deviation {deviations[3]:.2e} >= 1e-6")
    _report(7, "path deviation non-increasing in order, order-3 below 1e-6", failures)


def test_criterion_8_domain_sweep(tmp_path, capsys):
    failures = []
    out = tmp_path / "sweep.csv"
    started = time.perf_counter()
    rc = main(
        [
            "sweep",
            "--s0-grid=-0.05:0.05:10",
            "--l0-grid=0.005:0.2:10",
            "--tau-grid=1:1:1",
            "--oracle",
            "--out",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    if rc != 0:
        failures.append(f"sweep exit code {rc}")
    else:
        rows = [line for line in out.read_text(encoding="utf-8").strip().split("\n") if not line.startswith("#")]
        if len(rows) != 101:
            failures.append(f"expected 100 data rows, got {len(rows) - 1}")
        worst = max(float(row.split(",")[5]) for row in rows[1:])
        if worst >= 1e-4:
            failures.append(f"max |shat_3 - oracle| = {worst:.2e} >= 1e-4")
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(8, "order-3 vs oracle within 1e-4 over the sweep domain", failures)
