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
output, and the CSV files of tables, print values at 7 decimal places; the
CSV of shat, abar, path and sweep gives each value as the exact '%.17g' % x
text.  CSV uses comma separators and LF line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
import time
from collections import deque

import numpy as np

from ._g17 import _g17_bytes
from .epsseries import _partial_sums, _solve_grid, solve_shat_series
from .errors import NumericalFailure
from .oracle import _n_steps, _oracle_grid, compute_oracle, compute_oracles, integrate_ell
from .params import InitialState, ModelParams, _require_order, load_config
from .perturbation import _ell_terms, build_expansion, tau_lbar_terms

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
# (l0, tau) pairs per span of sweep's row templates.
_SPAN = 4096
# Values per _fill call where sweep and path can group rows.
_TEXT_BATCH = 8192


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2 on usage errors; route them
    through ValueError so bad configuration consistently exits 1."""

    def error(self, message):
        raise ValueError(message)


_OPTIONS = {
    "params": dict(metavar="FILE", help="key-value config file (keys: m, mu, gamma, sigma2, lambda, s0, l0)"),
    "s0": dict(type=float, help="initial spread"),
    "l0": dict(type=float, help="initial consol rate"),
    "tau": dict(type=float, default=DEFAULT_TAU, help="maturity in years (default %(default)s)"),
    "order": dict(type=int, default=DEFAULT_ORDER, help="expansion truncation order (default %(default)s)"),
    "steps": dict(type=int, help="integrator step count"),
    "format": dict(choices=("table", "csv"), default="table", dest="fmt", help="output format (default %(default)s)"),
    "out": dict(metavar="PATH", help="write output to PATH instead of stdout"),
    "samples": dict(type=int, default=101, help="grid points in [0, tau] (>= 2; default %(default)s)"),
    "check": dict(action="store_true", help="compare against embedded reference values; exit 3 on mismatch"),
    "s0-grid": dict(default="-0.05:0.05:10", metavar="LO:HI:N", help="s0 axis (default %(default)s)"),
    "l0-grid": dict(default="0.005:0.2:10", metavar="LO:HI:N", help="l0 axis (default %(default)s)"),
    "tau-grid": dict(default="1:1:1", metavar="LO:HI:N", help="tau axis (default %(default)s)"),
    "oracle": dict(action="store_true", help="add the numerical root and absolute difference per row"),
    "timing": dict(
        action="store_true",
        help="add an elapsed_ms column: per row, an equal share of the batched series solve and "
        "evaluation plus an equal share of the whole oracle batch, its shared RK4 scans and its "
        "batched root solve (not byte-deterministic)",
    ),
}


def _resolve_config(args) -> tuple[ModelParams, InitialState, int]:
    """``(params, state, n_steps)`` of a command's parsed options.

    ``params`` and ``state`` are the base settings, or a ``--params`` file's
    in their place; ``--s0`` and ``--l0`` win over either.  ``n_steps`` is the
    RK4 step count for ``--tau`` (1 year for ``sweep``, which has none) and
    ``--steps``.  Errors come in this order: the file, then the maturity and
    the step count, then ``s0`` and ``l0``.
    """
    params, state = BASE_PARAMS, InitialState(s0=DEFAULT_S0, l0=DEFAULT_L0)
    if getattr(args, "params", None):
        params, state = load_config(args.params)
    s0, l0 = getattr(args, "s0", None), getattr(args, "l0", None)
    n_steps = _n_steps(getattr(args, "tau", DEFAULT_TAU), args.steps)
    state = InitialState(s0=state.s0 if s0 is None else s0, l0=state.l0 if l0 is None else l0)
    return params, state, n_steps


class _Decoding:
    """A binary face on a text stream with no ``.buffer``, such as an ``io.StringIO``."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, data: bytes):
        return self.stream.write(data.decode())


@contextlib.contextmanager
def _output(out: str | None):
    """The binary stream for a command's output: the file at ``out``, or stdout's buffer.

    Text already written to ``sys.stdout`` is flushed first, so it comes
    before the output, and the output is flushed at the end, as a
    line-buffered stdout would have it before any later stderr message.  A
    stdout without ``.buffer`` (``io.StringIO`` under
    ``contextlib.redirect_stdout``, say) is written through ``_Decoding``.
    """
    if out is not None:
        with open(out, "wb") as fh:
            yield fh
        return
    sys.stdout.flush()
    yield getattr(sys.stdout, "buffer", None) or _Decoding(sys.stdout)
    sys.stdout.flush()


def _emit(data: bytes, out: str | None):
    with _output(out) as fh:
        fh.write(data)


def _f7(x: float) -> str:
    return f"{x:.7f}"


def _fill(template: bytes, values) -> bytes:
    """The bytes of ``template`` with its ``%s`` fields filled, in order, by the exact ``%.17g`` text of ``values`` in C order."""
    return template % tuple(_g17_bytes(values))


def _report(fmt: str, eps: float, label: str, name: str, terms, oracle: float) -> bytes:
    """Per-order ``terms``, their partial sums at ``eps`` and the distance of each from ``oracle``."""
    partials = _partial_sums(terms, eps)
    rows = [(n, term, partial, oracle, abs(partial - oracle)) for n, (term, partial) in enumerate(zip(terms, partials))]
    if fmt == "csv":
        # A whole float n has the %.17g text of the integer.
        header = f"n,{label},partial_sum,oracle_{name},abs_diff\n".encode()
        return header + _fill(b"%s,%s,%s,%s,%s\n" * len(rows), np.array(rows))
    lines = [f"eps = {_f7(eps)}", f"n  {label:<12}partial_sum  |diff_oracle|"]
    for n, term, partial, _, diff in rows:
        lines.append(f"{n}  {_f7(term):>10}  {_f7(partial):>10}  {_f7(diff)}")
    lines.append(f"oracle {name} = {_f7(oracle)}")
    return ("\n".join(lines) + "\n").encode()


def cmd_shat(args) -> int:
    params, state, n_steps = _resolve_config(args)
    expansion = build_expansion(params, state.l0, args.order)
    shat = solve_shat_series(expansion, args.tau, state.l0, params, args.order)
    oracle = compute_oracle(state, params, args.tau, n_steps)
    _emit(_report(args.fmt, state.s0 - params.mu_hat, "k_n", "s_hat", shat.k, oracle.s_hat), args.out)
    return 0


def cmd_abar(args) -> int:
    params, state, n_steps = _resolve_config(args)
    expansion = build_expansion(params, state.l0, args.order)
    terms = tau_lbar_terms(expansion, args.tau)
    _, oracle_tl = integrate_ell(state, params, args.tau, n_steps, 2)
    _emit(_report(args.fmt, state.s0 - params.mu_hat, "L_n", "tau_lbar", terms, oracle_tl), args.out)
    return 0


def cmd_path(args) -> int:
    params, state, n_steps = _resolve_config(args)
    expansion = build_expansion(params, state.l0, args.order)
    eps = state.s0 - params.mu_hat
    path, _ = integrate_ell(state, params, args.tau, n_steps, args.samples)

    # Every value is computed before the first output byte; rows are then
    # written _TEXT_BATCH values at a time, each write one _fill call.
    terms = np.array([_ell_terms(expansion, t) for t in path[:, 0].tolist()])
    # An overflowing eps^n gives inf or nan without a warning; the first such cell is named.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.column_stack((path, *_partial_sums(terms.T, eps)))
    header = ["t", "ell_rk4"] + [f"ell_order{n}" for n in range(args.order + 1)]
    if not np.isfinite(values).all():
        i, j = divmod(int(np.isfinite(values).argmin()), values.shape[1])
        raise NumericalFailure(f"the series value {header[j]} is not finite at t={values[i, 0].item()!r}")
    row = b",".join([b"%s"] * values.shape[1]) + b"\n"
    step = max(1, _TEXT_BATCH // values.shape[1])
    with _output(args.out) as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, len(values), step):
            span = values[lo : lo + step]
            fh.write(_fill(row * len(span), span))
    return 0


def _table_values(params: ModelParams, l0: float, tau: float, n_steps: int):
    """Both reference tables as (5, 3) arrays: rows orders 0..3 plus the numerical row, columns TABLE_S0."""
    expansion = build_expansion(params, l0, 3)
    terms = tau_lbar_terms(expansion, tau)
    shat = solve_shat_series(expansion, tau, l0, params, 3)
    results = compute_oracles([InitialState(s0=s0, l0=l0) for s0 in TABLE_S0], params, tau, n_steps)
    eps = np.array(TABLE_S0) - params.mu_hat
    tl_rows = np.array([*_partial_sums(terms, eps), [r.tau_lbar for r in results]])
    shat_rows = np.array([*_partial_sums(shat.k, eps), [r.s_hat for r in results]])
    return tl_rows, shat_rows


def _format_table(rows, fmt) -> bytes:
    """A reference table's header and rows, as CSV or as aligned columns."""
    lines = [["order", *(f"s0={s0:+.2f}" for s0 in TABLE_S0)]]
    lines += [[label, *map(_f7, row)] for label, row in zip(["0", "1", "2", "3", "numerical"], rows)]
    if fmt == "csv":
        return "".join(",".join(cells) + "\n" for cells in lines).encode()
    return "".join(f"{cells[0]:<9}  " + "  ".join(cell.rjust(10) for cell in cells[1:]) + "\n" for cells in lines).encode()


def cmd_tables(args) -> int:
    params, state, n_steps = _resolve_config(args)
    tl_rows, shat_rows = _table_values(params, state.l0, args.tau, n_steps)

    if args.fmt == "csv":
        prefix = args.out if args.out else "tables"
        _emit(_format_table(tl_rows, "csv"), prefix + "_abar.csv")
        _emit(_format_table(shat_rows, "csv"), prefix + "_shat.csv")
    else:
        text = b"tau*lbar approximations\n" + _format_table(tl_rows, "table")
        text += b"\ns_hat approximations\n" + _format_table(shat_rows, "table")
        _emit(text, args.out)

    if not args.check:
        return 0
    labels = ["order0", "order1", "order2", "order3", "numerical"]
    mismatches = []
    for name, rows, reference in (("tau_lbar", tl_rows, REFERENCE_TAU_LBAR), ("s_hat", shat_rows, REFERENCE_SHAT)):
        diff = np.abs(rows - reference)
        for i, j in np.argwhere(diff > CHECK_TOLERANCE).tolist():
            mismatches.append(
                f"{name} {labels[i]} s0={TABLE_S0[j]:+.2f}: computed {rows[i, j]:.17g} vs reference "
                f"{reference[i][j]} (diff {diff[i, j]:.3g})"
            )
    if mismatches:
        sys.stderr.write("reference check failed:\n" + "\n".join(mismatches) + "\n")
        return 3
    sys.stderr.write("reference check passed\n")
    return 0


def _parse_grid(spec: str, name: str) -> tuple[float, float, int]:
    """``(lo, hi, count)`` of a LO:HI:N grid spec."""
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"{name} must look like LO:HI:N, got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name}: LO and HI must be finite, got {spec!r}")
    if count < 1:
        raise ValueError(f"{name}: N must be >= 1, got {count}")
    # np.linspace over a span that overflows loses its ends to inf and nan.
    if count > 1 and not math.isfinite(hi - lo):
        raise ValueError(f"{name}: HI - LO must be finite, got {spec!r}")
    return lo, hi, count


def cmd_sweep(args) -> int:
    params, _, _ = _resolve_config(args)
    order = args.order

    specs = [_parse_grid(getattr(args, f"{axis}_grid"), f"--{axis}-grid") for axis in ("s0", "l0", "tau")]
    total = math.prod(count for _, _, count in specs)
    if total > MAX_SWEEP_POINTS:
        raise ValueError(f"grid has {total} points, maximum is {MAX_SWEEP_POINTS}")
    # No grid is allocated before the size check.
    s0_grid, l0_grid, tau_grid = (np.linspace(lo, hi, n) if n > 1 else np.array([lo]) for lo, hi, n in specs)
    if np.any(l0_grid <= 0):
        raise ValueError("l0 grid must be strictly positive (use a floor such as 0.005)")
    if np.any(tau_grid <= 0):
        raise ValueError("tau grid must be strictly positive")

    # All numerical work is done before the first output byte, into one table
    # indexed [s0, pair, column] with the (l0, tau) pairs l0-major: row [i_s0]
    # holds the rows of one s0 in output order.  Column 0 is the series value;
    # under --oracle, columns 1 and 2 are the oracle value and abs_diff.
    n_tau = len(tau_grid)
    pairs = len(l0_grid) * n_tau
    _require_order(order)  # before the oracle batch
    started = time.perf_counter()
    table = np.empty((len(s0_grid), pairs, 3 if args.oracle else 1))
    values = table[:, :, 0]
    if args.oracle:
        # One batch over every (s0, l0) state, s0-major, at every tau.
        eps = np.repeat(s0_grid - params.mu_hat, len(l0_grid))
        _, roots, _ = _oracle_grid(eps, np.tile(l0_grid, len(s0_grid)), params, tau_grid.tolist(), args.steps)
        table[:, :, 1] = roots.s_hat.T.reshape(len(s0_grid), pairs)

    # One batched solve over every (l0, tau) pair; each block of pairs is
    # evaluated over the whole s0 grid at once.
    eps = (s0_grid - params.mu_hat)[:, None]
    for start, k, _, _ in _solve_grid(params, order, l0_grid, tau_grid):
        with np.errstate(over="ignore", invalid="ignore"):
            values[:, start : start + k.shape[1]] = deque(_partial_sums(k, eps), maxlen=1)[0]
    if not np.isfinite(values).all():
        i_s0, p = divmod(int(np.isfinite(values).argmin()), pairs)
        raise NumericalFailure(
            f"the series value shat_order{order} is not finite at s0={s0_grid[i_s0].item()!r}, "
            f"l0={l0_grid[p // n_tau].item()!r}, tau={tau_grid[p % n_tau].item()!r}"
        )
    share = (time.perf_counter() - started) / total  # per row: an equal share of the oracle batch and the series

    header = ["s0", "l0", "tau", f"shat_order{order}"]
    if args.oracle:
        header += ["oracle_s_hat", "abs_diff"]
        table[:, :, 2] = np.abs(values - table[:, :, 1])
    # Rows are written in blocks: one s0 over a span of at most _SPAN
    # (l0, tau) pairs, or, when the grid is one span, as many s0 as fit in
    # _TEXT_BATCH values, so the text held at once stays bounded.  A span's
    # template is per pair an l0 head ("\0" where the s0 text goes, then the
    # l0 text) and a tau tail (the tau text, "%s" per value column and the
    # --timing text), each built once.  Over two or more s0 every span's
    # template is kept (about 45 B a pair), so each is built once for all s0;
    # over one s0 only the last is kept.  A block is the template
    # with each s0's text in place of "\0", filled by one _fill call over the
    # table's slice [s0 rows, span] (C order is row order, no copy) and
    # written at once as bytes.  The coordinates take % directly, which is
    # faster than a kernel call below about 150 values.
    # No %.17g or %.3f text contains "%" or "\0".
    row_end = b"\n"
    if args.timing:
        header.append("elapsed_ms")
        row_end = b",%.3f\n" % (share * 1e3)
    heads = [b"\0,%.17g," % l0 for l0 in l0_grid.tolist()]
    tails = [b"%.17g" % tau + b",%s" * table.shape[2] + row_end for tau in tau_grid.tolist()]

    @functools.lru_cache(maxsize=None if len(s0_grid) > 1 else 1)
    def template(lo, hi):
        return b"".join(heads[p // n_tau] + tails[p % n_tau] for p in range(lo, hi))

    spans = [(lo, min(lo + _SPAN, pairs)) for lo in range(0, pairs, _SPAN)]
    group = max(1, _TEXT_BATCH // table[0].size) if len(spans) == 1 else 1
    with _output(args.out) as fh:
        fh.write(
            (
                f"# s0_grid={args.s0_grid} l0_grid={args.l0_grid} tau_grid={args.tau_grid} order={order}\n"
                "# rows ordered by grid index (s0 outer, l0 middle, tau inner)\n"
                f"{','.join(header)}\n"
            ).encode()
        )
        for r0 in range(0, len(s0_grid), group):
            s0_rows = s0_grid[r0 : r0 + group].tolist()
            for lo, hi in spans:
                block = b"".join(template(lo, hi).replace(b"\0", b"%.17g" % s0) for s0 in s0_rows)
                fh.write(_fill(block, table[r0 : r0 + group, lo:hi]))
    return 0


# Each subcommand: its handler, its --help line and its options, in --help order.
_COMMANDS = {
    "shat": (cmd_shat, "effective spread constant, per order, with the numerical root", "params s0 l0 tau order steps format out"),
    "abar": (cmd_abar, "integral term tau*lbar, per order, with the numerical value", "params s0 l0 tau order steps format out"),
    "path": (cmd_path, "CSV of the consol-rate path: RK4 next to each expansion order", "params s0 l0 tau order steps out samples"),
    "tables": (cmd_tables, "reference tables for the three standard initial spreads", "params l0 tau steps format out check"),
    "sweep": (cmd_sweep, "CSV sweep over a (s0, l0, tau) grid", "params order steps out s0-grid l0-grid tau-grid oracle timing"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sshat`` parser, built on first use and shared by every later ``main`` call."""
    parser = _Parser(prog="sshat", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False)
    # main dispatches on the handler default; dest names the missing command in the usage error.
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line, allow_abbrev=False)
        command.set_defaults(handler=handler)
        for option in options.split():
            command.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
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
