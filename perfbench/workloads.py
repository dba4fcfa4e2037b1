"""Seeded inputs, one timed pass and the correctness checks of each workload.

Three closed-loop, single-thread workloads, each one caller that waits for
its previous pass to finish:

  sweep_series  ``sshat sweep`` over a 100x100x10 (s0, l0, tau) grid at order
                3 without the oracle: 100k rows, 100 expansion builds, 1000
                series solves, 100k evaluations.  The bulk CLI path.
  sweep_oracle  ``sshat sweep --oracle`` over 10x10 (s0, l0) and four
                maturities 1..10: 400 oracle runs with 1000-10000 RK4 steps
                each.  Almost all RK4, almost no expansion work.
  calibrate     library calls only: 200 configurations, each with its own
                parameters, l0, tau and an order in 3..16, evaluated at eight
                eps values.  Few evaluations per build, high orders.

The seed draws the model parameters and grid endpoints (or configurations);
grid sizes, the sweep maturity grids and the eps/order ranges are fixed.
The program only ever receives the generated inputs: a ``--params`` file and
grid flags for the CLI, ``ModelParams`` and plain numbers for the library.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

import sshat
import sshat.cli
from sshat import DegenerateRateError, NumericalFailure

# Parameter box around the standard configuration (m=0.72, mu=-0.01,
# gamma=0.007, sigma2=0.0003, lam=0).  It keeps mu_hat in [-0.024, -0.004],
# away from zero and from every +-j*m, so the expansion stays meaningful.
PARAM_RANGES = {
    "m": (0.5, 1.0),
    "mu": (-0.02, -0.008),
    "gamma": (0.003, 0.01),
    "sigma2": (1e-4, 5e-4),
    "lam": (-0.2, 0.2),
}
S0_LO_RANGE = (-0.06, -0.04)
S0_HI_RANGE = (0.04, 0.06)
L0_LO_RANGE = (0.005, 0.02)
L0_HI_RANGE = (0.15, 0.25)

CALIBRATE_CONFIGS = 200
CALIBRATE_TAUS = (0.5, 1.0, 2.0, 5.0, 10.0)
CALIBRATE_ORDERS = (3, 16)
CALIBRATE_EPS = 8
CALIBRATE_MAX_EPS = 0.05
CALIBRATE_L0_RANGE = (0.005, 0.25)

# Rows (or configuration-eps points) of each run recomputed with the oracle.
CHECK_SAMPLE = 120
# Largest |order-3 partial sum - oracle| a checked point may show.  Over 40
# seeds of each workload the largest seen was 1.7e-7 (sweeps: |eps| up to
# 0.085, tau up to 10) and 4.4e-8 (calibrate: |eps| up to 0.05).
ERR_GATE_ORDER3 = 1e-6

# The accuracy probe is the same in every run: max_err_order3 is a property
# of the code, not of the seed, so it can carry a tight bound.
PROBE_SEED = 20140101
PROBE_POINTS = 120
PROBE_TAU_RANGE = (0.5, 10.0)


def draw_params(rng: random.Random) -> sshat.ModelParams:
    """Model parameters from PARAM_RANGES; draws ModelParams rejects are redrawn."""
    while True:
        values = {name: rng.uniform(lo, hi) for name, (lo, hi) in PARAM_RANGES.items()}
        try:
            return sshat.ModelParams(**values)
        except ValueError:
            continue


def params_file_text(params: sshat.ModelParams) -> str:
    """A --params file; repr keeps every float exact through load_config."""
    return (
        f"m = {params.m!r}\nmu = {params.mu!r}\ngamma = {params.gamma!r}\n"
        f"sigma2 = {params.sigma2!r}\nlambda = {params.lam!r}\n"
        # s0 and l0 are required keys but the sweep grids override them.
        "s0 = -0.05\nl0 = 0.1\n"
    )


def _g17(x: float) -> str:
    return f"{x:.17g}"


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Outcome:
    """What one pass produced: operations attempted and failed, and a fingerprint."""

    points: int
    failed: int
    fingerprint: object
    output_bytes: int = 0


@dataclass
class CheckReport:
    problems: list
    checked: int
    max_err_order3: float
    max_err_full_order: float


class CliSweep:
    """``sshat sweep`` called in-process through ``sshat.cli.main``."""

    ROOT_SPAN = "cli.cmd_sweep"

    def __init__(self, seed: int, work_dir, oracle: bool, n_s0: int, n_l0: int, tau_grid: str):
        rng = random.Random(seed)
        self.oracle = oracle
        self.params = draw_params(rng)
        s0_lo, s0_hi = rng.uniform(*S0_LO_RANGE), rng.uniform(*S0_HI_RANGE)
        l0_lo, l0_hi = rng.uniform(*L0_LO_RANGE), rng.uniform(*L0_HI_RANGE)
        tau_lo, tau_hi, n_tau = tau_grid.split(":")
        self.s0_spec = f"{s0_lo!r}:{s0_hi!r}:{n_s0}"
        self.l0_spec = f"{l0_lo!r}:{l0_hi!r}:{n_l0}"
        self.tau_spec = tau_grid
        self.grids = (
            np.linspace(s0_lo, s0_hi, n_s0),
            np.linspace(l0_lo, l0_hi, n_l0),
            np.linspace(float(tau_lo), float(tau_hi), int(n_tau)),
        )
        self.points = n_s0 * n_l0 * int(n_tau)
        self.sample = sorted(rng.sample(range(self.points), min(CHECK_SAMPLE, self.points)))

        params_path = work_dir / "params.txt"
        params_path.write_text(params_file_text(self.params), encoding="utf-8")
        self.out_path = work_dir / "sweep.csv"
        self.argv = [
            "sweep",
            "--params", str(params_path),
            "--order", "3",
            f"--s0-grid={self.s0_spec}",
            f"--l0-grid={self.l0_spec}",
            f"--tau-grid={self.tau_spec}",
            "--out", str(self.out_path),
        ] + (["--oracle"] if oracle else [])

    def run(self) -> int:
        """The timed region: one CLI call; returns its exit code."""
        return sshat.cli.main(self.argv)

    def outcome(self, rc: int) -> Outcome:
        """Fingerprint the output of the pass just run (outside the timed region)."""
        if rc != 0 or not self.out_path.exists():
            return Outcome(self.points, self.points, None)
        return Outcome(self.points, 0, file_digest(self.out_path), self.out_path.stat().st_size)

    def expected_header(self) -> list[str]:
        columns = ["s0", "l0", "tau", "shat_order3"]
        if self.oracle:
            columns += ["oracle_s_hat", "abs_diff"]
        return [
            f"# s0_grid={self.s0_spec} l0_grid={self.l0_spec} tau_grid={self.tau_spec} order=3",
            "# rows ordered by grid index (s0 outer, l0 middle, tau inner)",
            ",".join(columns),
        ]

    def check(self, last: Outcome) -> CheckReport:
        """Header, row count, grid coordinates and oracle agreement on a seeded sample."""
        problems = []
        if last.fingerprint is None:
            return CheckReport(["the last pass produced no output"], 0, math.inf, math.inf)
        lines = self.out_path.read_text(encoding="utf-8").split("\n")
        header = self.expected_header()
        if lines[: len(header)] != header:
            problems.append(f"header {lines[:len(header)]!r} != {header!r}")
        if lines[-1] != "":
            problems.append("output does not end with a newline")
        rows = lines[len(header):-1]
        if len(rows) != self.points:
            return CheckReport(problems + [f"{len(rows)} rows, expected {self.points}"], 0, math.inf, math.inf)

        s0_grid, l0_grid, tau_grid = self.grids
        n_l0, n_tau = len(l0_grid), len(tau_grid)
        worst = 0.0
        for index in self.sample:
            fields = rows[index].split(",")
            i_s0, rest = divmod(index, n_l0 * n_tau)
            i_l0, i_tau = divmod(rest, n_tau)
            s0, l0, tau = float(s0_grid[i_s0]), float(l0_grid[i_l0]), float(tau_grid[i_tau])
            if fields[:3] != [_g17(s0), _g17(l0), _g17(tau)]:
                problems.append(f"row {index}: grid point {fields[:3]} != {[s0, l0, tau]}")
                continue
            value = float(fields[3])
            oracle = sshat.compute_oracle(sshat.InitialState(s0=s0, l0=l0), self.params, tau)
            err = abs(value - oracle.s_hat)
            worst = max(worst, err)
            if err > ERR_GATE_ORDER3:
                problems.append(f"row {index}: |order-3 - oracle| = {err:.3e} > {ERR_GATE_ORDER3:g}")
            if self.oracle and fields[4:] != [_g17(oracle.s_hat), _g17(err)]:
                problems.append(f"row {index}: oracle columns {fields[4:]} != {[oracle.s_hat, err]}")
        # The sweep order is 3, so its full order and order 3 coincide.
        return CheckReport(problems, len(self.sample), worst, worst)


@dataclass(frozen=True)
class CalibrationConfig:
    params: sshat.ModelParams
    l0: float
    tau: float
    order: int
    eps: tuple


class Calibrate:
    """Many-configuration library calls: build, solve, then a few evaluations."""

    ROOT_SPAN = "calibrate.pass"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # Orders and maturities are spread evenly over their ranges and then
        # shuffled, so every seed asks for nearly the same amount of work.
        lo, hi = CALIBRATE_ORDERS
        orders = [lo + i % (hi - lo + 1) for i in range(CALIBRATE_CONFIGS)]
        taus = [CALIBRATE_TAUS[i % len(CALIBRATE_TAUS)] for i in range(CALIBRATE_CONFIGS)]
        rng.shuffle(orders)
        rng.shuffle(taus)
        self.configs = [
            CalibrationConfig(
                params=draw_params(rng),
                l0=rng.uniform(*CALIBRATE_L0_RANGE),
                tau=tau,
                order=order,
                eps=tuple(rng.uniform(-CALIBRATE_MAX_EPS, CALIBRATE_MAX_EPS) for _ in range(CALIBRATE_EPS)),
            )
            for order, tau in zip(orders, taus)
        ]
        self.points = CALIBRATE_CONFIGS * CALIBRATE_EPS
        self.sample = sorted(rng.sample(range(self.points), CHECK_SAMPLE))
        self.solved = []

    def run(self) -> list:
        """The timed region: per configuration one build, one solve and the evaluations.

        Looks the functions up on ``sshat`` at call time so that a traced run
        can wrap them.
        """
        solved = []
        for cfg in self.configs:
            try:
                expansion = sshat.build_expansion(cfg.params, cfg.l0, cfg.order)
                series = sshat.solve_shat_series(expansion, cfg.tau, cfg.l0, cfg.params, cfg.order)
                solved.append((series, [series.value(eps) for eps in cfg.eps]))
            except (DegenerateRateError, NumericalFailure):
                solved.append(None)
        return solved

    def outcome(self, solved: list) -> Outcome:
        self.solved = solved
        failed = CALIBRATE_EPS * sum(entry is None for entry in solved)
        fingerprint = [None if entry is None else entry[1] for entry in solved]
        return Outcome(self.points, failed, fingerprint)

    def check(self, last: Outcome) -> CheckReport:
        """Order-3 and full-order partial sums against compute_oracle on a seeded sample."""
        problems = []
        worst3 = worst_full = 0.0
        for index in self.sample:
            i_cfg, i_eps = divmod(index, CALIBRATE_EPS)
            cfg = self.configs[i_cfg]
            entry = self.solved[i_cfg]
            if entry is None:
                problems.append(f"configuration {i_cfg} failed")
                continue
            series, values = entry
            eps = cfg.eps[i_eps]
            state = sshat.InitialState(s0=cfg.params.mu_hat + eps, l0=cfg.l0)
            oracle = sshat.compute_oracle(state, cfg.params, cfg.tau)
            err3 = abs(series.value(eps, order=3) - oracle.s_hat)
            worst3 = max(worst3, err3)
            worst_full = max(worst_full, abs(values[i_eps] - oracle.s_hat))
            if err3 > ERR_GATE_ORDER3:
                problems.append(f"point {index}: |order-3 - oracle| = {err3:.3e} > {ERR_GATE_ORDER3:g}")
        return CheckReport(problems, len(self.sample), worst3, worst_full)


def make_workload(name: str, seed: int, work_dir):
    if name == "sweep_series":
        return CliSweep(seed, work_dir, oracle=False, n_s0=100, n_l0=100, tau_grid="1:10:10")
    if name == "sweep_oracle":
        return CliSweep(seed, work_dir, oracle=True, n_s0=10, n_l0=10, tau_grid="1:10:4")
    if name == "calibrate":
        return Calibrate(seed)
    raise ValueError(f"unknown workload {name!r}")


def accuracy_probe() -> tuple[float, list]:
    """Largest |order-3 partial sum - oracle| over the fixed probe points.

    The points cover the sweep domain (each with its own parameters, s0 in
    [-0.06, 0.06], l0 in [0.005, 0.25], tau in [0.5, 10]) and do not depend
    on the run's seed.
    """
    rng = random.Random(PROBE_SEED)
    worst = 0.0
    problems = []
    for index in range(PROBE_POINTS):
        params = draw_params(rng)
        s0 = rng.uniform(S0_LO_RANGE[0], S0_HI_RANGE[1])
        l0 = rng.uniform(L0_LO_RANGE[0], L0_HI_RANGE[1])
        tau = rng.uniform(*PROBE_TAU_RANGE)
        expansion = sshat.build_expansion(params, l0, 3)
        value = sshat.solve_shat_series(expansion, tau, l0, params, 3).value(s0 - params.mu_hat)
        oracle = sshat.compute_oracle(sshat.InitialState(s0=s0, l0=l0), params, tau)
        err = abs(value - oracle.s_hat)
        worst = max(worst, err)
        if err > ERR_GATE_ORDER3:
            problems.append(f"probe point {index}: |order-3 - oracle| = {err:.3e} > {ERR_GATE_ORDER3:g}")
    return worst, problems
