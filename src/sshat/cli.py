"""Command-line front end.

Subcommands:
    shat    per-order coefficients and partial sums of the constant, with the
            numerical root and absolute differences
    abar    same report shape for the integral term tau*lbar
    path    CSV of the consol-rate path: RK4 reference next to each expansion
            order on a uniform time grid
    tables  the two reference tables (three initial spreads, orders 0..3 plus
            the numerical row); --check compares against the embedded
            reference values
    sweep   CSV over a (s0, l0, tau) grid, optionally with the oracle

Exit codes: 0 success, 1 validation error or an --out path that cannot be
opened, 2 numerical failure, 3 reference mismatch under --check.  Table
output prints values at 7 decimal places; CSV output uses 17 significant
digits, comma separators, LF line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .epsseries import solve_shat_series
from .errors import NumericalFailure
from .oracle import compute_oracle, compute_oracles, default_n_steps, integrate_ell
from .params import InitialState, ModelParams, _require_finite, load_config
from .perturbation import build_expansion, tau_lbar_terms

__all__ = ["main", "console_main", "REFERENCE_TAU_LBAR", "REFERENCE_SHAT"]

BASE_PARAMS = ModelParams(m=0.72, mu=-0.01, gamma=0.007, sigma2=0.0003, lam=0.0)
DEFAULT_S0 = -0.05
DEFAULT_L0 = 0.1
DEFAULT_TAU = 1.0
DEFAULT_ORDER = 3

TABLE_S0 = (-0.05, 0.0, 0.05)
CHECK_TOLERANCE = 5e-8

# Embedded reference tables for the base configuration: rows are orders
# 0..3 plus the numerical value, columns follow TABLE_S0.
REFERENCE_TAU_LBAR = (
    (0.1006522, 0.1006522, 0.1006522),
    (0.1022593, 0.1002504, 0.0982415),
    (0.1022755, 0.1002514, 0.0982780),
    (0.1022756, 0.1002514, 0.0982776),
    (0.1022756, 0.1002514, 0.0982776),
)
REFERENCE_SHAT = (
    (-0.01, -0.01, -0.01),
    (-0.0418965, -0.0020259, 0.0378448),
    (-0.0418789, -0.0020248, 0.0378844),
    (-0.0418789, -0.0020248, 0.0378844),
    (-0.0418789, -0.0020248, 0.0378844),
)

MAX_SWEEP_POINTS = 10**6


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    state: InitialState
    tau: float
    order: int
    n_steps: int
    fmt: str
    out: str | None


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2 on usage errors; route them
    through ValueError so bad configuration consistently exits 1."""

    def error(self, message):
        raise ValueError(message)


_OPTIONS = {
    "params": dict(metavar="FILE", help="key-value config file (keys: m, mu, gamma, sigma2, lambda, s0, l0)"),
    "s0": dict(type=float, help="initial spread"),
    "l0": dict(type=float, help="initial consol rate"),
    "tau": dict(type=float, help="maturity in years"),
    "order": dict(type=int, help="expansion truncation order"),
    "steps": dict(type=int, help="integrator step count"),
    "format": dict(choices=("table", "csv"), default="table", dest="fmt"),
    "out": dict(metavar="PATH", help="write output to PATH instead of stdout"),
}


def _add_options(parser: argparse.ArgumentParser, names: str):
    """Add the shared options named in ``names`` (space-separated) to ``parser``."""
    for name in names.split():
        parser.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sshat", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_shat = sub.add_parser("shat", help="effective spread constant, per order, with the numerical root")
    _add_options(p_shat, "params s0 l0 tau order steps format out")
    p_abar = sub.add_parser("abar", help="integral term tau*lbar, per order, with the numerical value")
    _add_options(p_abar, "params s0 l0 tau order steps format out")

    p_path = sub.add_parser("path", help="CSV of the consol-rate path: RK4 next to each expansion order")
    _add_options(p_path, "params s0 l0 tau order steps out")
    p_path.add_argument("--samples", type=int, default=101, help="grid points over [0, tau] (>= 2)")

    p_tables = sub.add_parser("tables", help="reference tables for the three standard initial spreads")
    _add_options(p_tables, "params l0 tau steps format out")
    p_tables.add_argument("--check", action="store_true", help="compare against embedded reference values; exit 3 on mismatch")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a (s0, l0, tau) grid")
    _add_options(p_sweep, "params order steps out")
    p_sweep.add_argument("--s0-grid", default="-0.05:0.05:10", metavar="LO:HI:N")
    p_sweep.add_argument("--l0-grid", default="0.005:0.2:10", metavar="LO:HI:N")
    p_sweep.add_argument("--tau-grid", default="1:1:1", metavar="LO:HI:N")
    p_sweep.add_argument("--oracle", action="store_true", help="add the numerical root and absolute difference per row")
    p_sweep.add_argument(
        "--timing",
        action="store_true",
        help="add an elapsed_ms column: per row, an equal share of the series work (builds, solves, "
        "evaluation) plus an equal share of its tau's oracle batch (not byte-deterministic)",
    )
    return parser


def _resolve_config(args) -> RunConfig:
    file_params = file_state = None
    if getattr(args, "params", None):
        file_params, file_state = load_config(args.params)

    def pick(flag, file_value, default):
        if flag is not None:
            return flag
        if file_value is not None:
            return file_value
        return default

    params = file_params if file_params is not None else BASE_PARAMS
    s0 = pick(getattr(args, "s0", None), file_state.s0 if file_state else None, DEFAULT_S0)
    l0 = pick(getattr(args, "l0", None), file_state.l0 if file_state else None, DEFAULT_L0)
    tau = pick(getattr(args, "tau", None), None, DEFAULT_TAU)
    order = pick(getattr(args, "order", None), None, DEFAULT_ORDER)
    _require_finite(tau, "maturity tau")
    if tau <= 0:
        raise ValueError(f"maturity must be > 0, got {tau}")
    steps = pick(getattr(args, "steps", None), None, default_n_steps(tau))
    return RunConfig(
        params=params,
        state=InitialState(s0=s0, l0=l0),
        tau=tau,
        order=order,
        n_steps=steps,
        fmt=getattr(args, "fmt", "csv"),
        out=getattr(args, "out", None),
    )


def _output(out: str | None):
    """The stream for a command's output: stdout, or the file at ``out``."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="\n")


def _emit(text: str, out: str | None):
    with _output(out) as fh:
        fh.write(text)


def _f7(x: float) -> str:
    return f"{x:.7f}"


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _partial_sums(terms, eps) -> list[float]:
    """Partial sums of sum_n terms[n] eps^n, in increasing powers as ShatExpansion.value sums them."""
    sums = []
    total = 0.0
    power = 1.0
    for term in terms:
        total += term * power
        power *= eps
        sums.append(total)
    return sums


def _report(cfg: RunConfig, label: str, name: str, terms, oracle: float) -> str:
    """Per-order ``terms``, their partial sums and the distance of each from ``oracle``."""
    eps = cfg.state.s0 - cfg.params.mu_hat
    rows = list(enumerate(zip(terms, _partial_sums(terms, eps))))
    if cfg.fmt == "csv":
        lines = [f"n,{label},partial_sum,oracle_{name},abs_diff"]
        for n, (term, partial) in rows:
            lines.append(f"{n},{_g17(term)},{_g17(partial)},{_g17(oracle)},{_g17(abs(partial - oracle))}")
    else:
        lines = [f"eps = {_f7(eps)}", f"n  {label:<12}partial_sum  |diff_oracle|"]
        for n, (term, partial) in rows:
            lines.append(f"{n}  {_f7(term):>10}  {_f7(partial):>10}  {_f7(abs(partial - oracle))}")
        lines.append(f"oracle {name} = {_f7(oracle)}")
    return "\n".join(lines) + "\n"


def cmd_shat(args) -> int:
    cfg = _resolve_config(args)
    expansion = build_expansion(cfg.params, cfg.state.l0, cfg.order)
    shat = solve_shat_series(expansion, cfg.tau, cfg.state.l0, cfg.params, cfg.order)
    oracle = compute_oracle(cfg.state, cfg.params, cfg.tau, cfg.n_steps)
    _emit(_report(cfg, "k_n", "s_hat", shat.k, oracle.s_hat), cfg.out)
    return 0


def cmd_abar(args) -> int:
    cfg = _resolve_config(args)
    expansion = build_expansion(cfg.params, cfg.state.l0, cfg.order)
    terms = tau_lbar_terms(expansion, cfg.tau)
    _, oracle_tl = integrate_ell(cfg.state, cfg.params, cfg.tau, cfg.n_steps)
    _emit(_report(cfg, "L_n", "tau_lbar", terms, oracle_tl), cfg.out)
    return 0


def cmd_path(args) -> int:
    cfg = _resolve_config(args)
    samples = args.samples
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    expansion = build_expansion(cfg.params, cfg.state.l0, cfg.order)
    eps = cfg.state.s0 - cfg.params.mu_hat

    # Round the step count up so grid points land exactly on RK4 nodes.
    per_cell = max(1, -(-cfg.n_steps // (samples - 1)))
    n_steps = per_cell * (samples - 1)
    path, _ = integrate_ell(cfg.state, cfg.params, cfg.tau, n_steps)

    header = ["t", "ell_rk4"] + [f"ell_order{n}" for n in range(cfg.order + 1)]
    lines = [",".join(header)]
    for i in range(samples):
        t, ell_ref = path[i * per_cell]
        values = [t, ell_ref] + _partial_sums([ck.evaluate(t) for ck in expansion.c], eps)
        lines.append(",".join(_g17(v) for v in values))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _table_values(params: ModelParams, l0: float, tau: float, n_steps: int):
    """Both reference tables: rows orders 0..3 plus the numerical row, columns TABLE_S0."""
    expansion = build_expansion(params, l0, 3)
    terms = tau_lbar_terms(expansion, tau)
    shat = solve_shat_series(expansion, tau, l0, params, 3)
    tl_columns = []
    shat_columns = []
    for s0 in TABLE_S0:
        eps = s0 - params.mu_hat
        result = compute_oracle(InitialState(s0=s0, l0=l0), params, tau, n_steps)
        tl_columns.append(_partial_sums(terms, eps) + [result.tau_lbar])
        shat_columns.append(_partial_sums(shat.k, eps) + [result.s_hat])
    return list(zip(*tl_columns)), list(zip(*shat_columns))


def _format_table(title: str, rows, fmt) -> str:
    labels = ["0", "1", "2", "3", "numerical"]
    lines = [title] if title else []
    if fmt == "csv":
        lines.append("order," + ",".join(f"s0={s0:+.2f}" for s0 in TABLE_S0))
        for label, row in zip(labels, rows):
            lines.append(label + "," + ",".join(_f7(v) for v in row))
    else:
        lines.append("order      " + "  ".join(f"s0={s0:+.2f}".rjust(10) for s0 in TABLE_S0))
        for label, row in zip(labels, rows):
            lines.append(f"{label:<9}  " + "  ".join(_f7(v).rjust(10) for v in row))
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> int:
    cfg = _resolve_config(args)
    tl_rows, shat_rows = _table_values(cfg.params, cfg.state.l0, cfg.tau, cfg.n_steps)

    if cfg.fmt == "csv":
        prefix = cfg.out if cfg.out else "tables"
        _emit(_format_table("", tl_rows, "csv"), prefix + "_abar.csv")
        _emit(_format_table("", shat_rows, "csv"), prefix + "_shat.csv")
    else:
        text = _format_table("tau*lbar approximations", tl_rows, "table")
        text += "\n" + _format_table("s_hat approximations", shat_rows, "table")
        _emit(text, cfg.out)

    if not args.check:
        return 0
    mismatches = []
    for name, got_rows, ref_rows in (
        ("tau_lbar", tl_rows, REFERENCE_TAU_LBAR),
        ("s_hat", shat_rows, REFERENCE_SHAT),
    ):
        labels = ["order0", "order1", "order2", "order3", "numerical"]
        for label, got_row, ref_row in zip(labels, got_rows, ref_rows):
            for s0, got, ref in zip(TABLE_S0, got_row, ref_row):
                if abs(got - ref) > CHECK_TOLERANCE:
                    mismatches.append(
                        f"{name} {label} s0={s0:+.2f}: computed {_g17(got)} vs reference {ref} "
                        f"(diff {abs(got - ref):.3g})"
                    )
    if mismatches:
        sys.stderr.write("reference check failed:\n" + "\n".join(mismatches) + "\n")
        return 3
    sys.stderr.write("reference check passed\n")
    return 0


def _parse_grid(spec: str, name: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must look like LO:HI:N, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"{name} must look like LO:HI:N, got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name}: LO and HI must be finite, got {spec!r}")
    if count < 1:
        raise ValueError(f"{name}: N must be >= 1, got {count}")
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    params, order = cfg.params, cfg.order

    s0_grid = _parse_grid(args.s0_grid, "--s0-grid")
    l0_grid = _parse_grid(args.l0_grid, "--l0-grid")
    tau_grid = _parse_grid(args.tau_grid, "--tau-grid")
    total = len(s0_grid) * len(l0_grid) * len(tau_grid)
    if total > MAX_SWEEP_POINTS:
        raise ValueError(f"grid has {total} points, maximum is {MAX_SWEEP_POINTS}")
    if np.any(l0_grid <= 0):
        raise ValueError("l0 grid must be strictly positive (use a floor such as 0.005)")
    if np.any(tau_grid <= 0):
        raise ValueError("tau grid must be strictly positive")

    # All numerical work is done before the first output byte, into arrays
    # indexed [s0, l0, tau]: entry [i_s0] is one block of rows in row order.
    shape = (len(s0_grid), len(l0_grid), len(tau_grid))
    shares = np.zeros(len(tau_grid))  # per row, an equal share of its tau's oracle batch
    if args.oracle:
        oracle = np.empty(shape)
        states = [InitialState(s0=s0, l0=l0) for s0 in s0_grid.tolist() for l0 in l0_grid.tolist()]
        for i_tau, tau in enumerate(tau_grid.tolist()):
            started = time.perf_counter()
            batch = compute_oracles(states, params, tau, args.steps)
            shares[i_tau] = (time.perf_counter() - started) / len(states)
            oracle[:, :, i_tau] = np.reshape([result.s_hat for result in batch], shape[:2])

    # One expansion per distinct l0; one series solve and one evaluation over
    # the whole s0 grid per distinct (l0, tau).
    started = time.perf_counter()
    eps = s0_grid - params.mu_hat
    values = np.empty(shape)
    expansions = {}
    evaluated = {}
    for i_l0, l0 in enumerate(l0_grid.tolist()):
        for i_tau, tau in enumerate(tau_grid.tolist()):
            if (l0, tau) not in evaluated:
                if l0 not in expansions:
                    expansions[l0] = build_expansion(params, l0, order)
                evaluated[l0, tau] = solve_shat_series(expansions[l0], tau, l0, params, order).value(eps)
            values[:, i_l0, i_tau] = evaluated[l0, tau]
    series_share = (time.perf_counter() - started) / total

    header = ["s0", "l0", "tau", f"shat_order{order}"]
    columns = [values]
    if args.oracle:
        header += ["oracle_s_hat", "abs_diff"]
        columns += [oracle, np.abs(values - oracle)]
    # The l0, tau and elapsed_ms columns are the same in every s0 block.
    tau_text = [_g17(tau) for tau in tau_grid.tolist()]
    l0_tau_text = [f"{_g17(l0)},{tau}" for l0 in l0_grid.tolist() for tau in tau_text]
    if args.timing:
        header.append("elapsed_ms")
        elapsed_text = [f"{(series_share + share) * 1e3:.3f}" for share in shares.tolist()] * len(l0_grid)
    g17 = "{:.17g}".format  # _g17 without a Python call per value
    with _output(cfg.out) as fh:
        fh.write(
            f"# s0_grid={args.s0_grid} l0_grid={args.l0_grid} tau_grid={args.tau_grid} order={order}\n"
            "# rows ordered by grid index (s0 outer, l0 middle, tau inner)\n"
            f"{','.join(header)}\n"
        )
        for i_s0, s0 in enumerate(s0_grid.tolist()):
            prefix = _g17(s0) + ","
            fields = [[prefix + text for text in l0_tau_text]]
            fields += [map(g17, column[i_s0].ravel().tolist()) for column in columns]
            if args.timing:
                fields.append(elapsed_text)
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
    return 0


_HANDLERS = {
    "shat": cmd_shat,
    "abar": cmd_abar,
    "path": cmd_path,
    "tables": cmd_tables,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
