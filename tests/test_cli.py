"""Command-line contract: outputs, formats, exit codes, determinism."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sshat.cli
import sshat.oracle
from sshat import InitialState, build_expansion, compute_oracle, integrate_ell, solve_shat_series
from sshat._g17 import _g17_bytes
from sshat.cli import BASE_PARAMS, DEFAULT_L0, main
from sshat.epsseries import _BLOCK, _partial_sums
from sshat.perturbation import _ell_terms, tau_lbar_terms

from _reference import BASE_L0, TRUE_SHAT

BASE_CONFIG = (
    "m = 0.72\nmu = -0.01\ngamma = 0.007\nsigma2 = 0.0003\nlambda = 0\n"
    "s0 = -0.05\nl0 = 0.1\n"
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _no_scan(*args, **kwargs):
    raise AssertionError("RK4 scan started")


def test_no_command_is_validation_error(capsys):
    rc, _, err = run(capsys, )
    assert rc == 1
    assert "error" in err


def test_unknown_flag_is_validation_error(capsys):
    rc, _, _ = run(capsys, "shat", "--frobnicate")
    assert rc == 1


COMMAND_FLAGS = {
    "shat": "params s0 l0 tau order steps format out",
    "abar": "params s0 l0 tau order steps format out",
    "path": "params s0 l0 tau order steps out samples",
    "tables": "params l0 tau steps format out check",
    "sweep": "params order steps out s0-grid l0-grid tau-grid oracle timing",
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_subcommand_has_its_own_flags(capsys, command):
    # Every flag but --help that the command's --help names, in the order it names them.
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    named = dict.fromkeys(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
    assert [flag for flag in named if flag != "help"] == COMMAND_FLAGS[command].split()


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # Not at import, so start-up does not pay for it; then once for every call.
    probe = "import sshat.cli; print(sshat.cli.build_parser.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout == "0\n"
    built = []
    parser_type = sshat.cli._Parser
    monkeypatch.setattr(sshat.cli, "_Parser", lambda *args, **kwargs: built.append(1) or parser_type(*args, **kwargs))
    sshat.cli.build_parser.cache_clear()
    assert run(capsys, "shat")[0] == 0
    assert run(capsys, "abar", "--format", "csv")[0] == 0
    assert run(capsys, "shat", "--frobnicate")[0] == 1
    assert len(built) == 1


def test_shat_table_output(capsys):
    rc, out, _ = run(capsys, "shat", "--s0", "-0.05")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps = -0.0400000"
    # Partial sums per order; the last two digits reflect the true values.
    assert lines[2].split()[2] == "-0.0100000"
    assert lines[3].split()[2] == "-0.0418965"
    assert lines[4].split()[2] == "-0.0418789"
    assert lines[5].split()[2] == "-0.0418790"
    assert lines[6] == "oracle s_hat = -0.0418790"


def test_shat_at_equilibrium_prints_mu_hat_everywhere(capsys):
    rc, out, _ = run(capsys, "shat", "--s0", "-0.01")
    assert rc == 0
    for line in out.strip().split("\n")[2:6]:
        assert line.split()[2] == "-0.0100000"


def test_shat_middle_column_order2(capsys):
    rc, out, _ = run(capsys, "shat", "--s0", "0", "--order", "2")
    assert rc == 0
    assert out.strip().split("\n")[4].split()[2] == "-0.0020248"


def test_shat_csv_values_match_library(capsys):
    rc, out, _ = run(capsys, "shat", "--s0", "0.05", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k_n,partial_sum,oracle_s_hat,abs_diff"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    final = float(rows[-1][2])
    oracle = float(rows[-1][3])
    assert final == pytest.approx(TRUE_SHAT[0.05], abs=1e-9)
    assert oracle == pytest.approx(TRUE_SHAT[0.05], abs=1e-9)
    assert float(rows[-1][4]) == pytest.approx(abs(final - oracle), abs=1e-15)


def _reference_report(command, order, s0):
    """The shat or abar CSV built row by row: float partial sums, one %.17g join per row."""
    state = InitialState(s0=s0, l0=DEFAULT_L0)
    expansion = build_expansion(BASE_PARAMS, DEFAULT_L0, order)
    if command == "shat":
        terms = solve_shat_series(expansion, 1.0, DEFAULT_L0, BASE_PARAMS, order).k
        oracle = compute_oracle(state, BASE_PARAMS, 1.0).s_hat
        lines = ["n,k_n,partial_sum,oracle_s_hat,abs_diff"]
    else:
        terms = tau_lbar_terms(expansion, 1.0)
        oracle = integrate_ell(state, BASE_PARAMS, 1.0, None, 2)[1]
        lines = ["n,L_n,partial_sum,oracle_tau_lbar,abs_diff"]
    for n, (term, partial) in enumerate(zip(terms, _partial_sums(terms, s0 - BASE_PARAMS.mu_hat))):
        lines.append(",".join([str(n)] + [f"{x:.17g}" for x in (term, partial, oracle, abs(partial - oracle))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("s0", [BASE_PARAMS.mu_hat, 0.05], ids=["mu_hat", "0.05"])
@pytest.mark.parametrize("order", [0, 3, 16])
@pytest.mark.parametrize("command", ["shat", "abar"])
def test_report_csv_bytes_equal_row_by_row_reference(tmp_path, capsys, command, order, s0, to_file):
    # At s0 = mu_hat, eps = 0: every partial sum is the order-0 term and every
    # abs_diff lies below 1e-4, where the text kernel falls back to %.
    target = tmp_path / "report.csv"
    argv = [command, "--format", "csv", "--order", str(order), f"--s0={s0!r}"]
    rc, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (rc, err) == (0, "")
    if to_file:
        assert out == ""
        out = target.read_bytes().decode("utf-8")
    assert out == _reference_report(command, order, s0)


def test_abar_order_column(capsys):
    rc, out, _ = run(capsys, "abar", "--s0", "0.05")
    assert rc == 0
    lines = out.strip().split("\n")
    partials = [line.split()[2] for line in lines[2:6]]
    assert partials == ["0.1006522", "0.0982415", "0.0982780", "0.0982776"]
    assert lines[6] == "oracle tau_lbar = 0.0982776"


def test_abar_first_order_low_spread(capsys):
    rc, out, _ = run(capsys, "abar", "--s0", "-0.05", "--order", "1")
    assert rc == 0
    assert out.strip().split("\n")[3].split()[2] == "0.1022593"


def test_path_csv_structure(capsys):
    rc, out, _ = run(capsys, "path", "--s0", "0.05", "--samples", "21")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,ell_rk4,ell_order0,ell_order1,ell_order2,ell_order3"
    assert len(lines) == 22
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    for value in first[1:]:
        assert value == pytest.approx(BASE_L0, abs=1e-15)


def test_path_equilibrium_order0_matches_rk4(capsys):
    rc, out, _ = run(capsys, "path", "--s0", "-0.01", "--samples", "51")
    assert rc == 0
    for line in out.strip().split("\n")[1:]:
        vals = [float(v) for v in line.split(",")]
        assert abs(vals[2] - vals[1]) < 1e-9
        # At eps = 0 every higher-order column is exactly the order-0 one.
        assert vals[3:] == [vals[2]] * 3


def test_path_order3_tracks_rk4(capsys):
    rc, out, _ = run(capsys, "path", "--s0", "0.05")
    assert rc == 0
    for line in out.strip().split("\n")[1:]:
        vals = [float(v) for v in line.split(",")]
        assert abs(vals[5] - vals[1]) < 1e-6


def _reference_path(order, s0, tau, samples, steps):
    """The path CSV built row by row: _ell_terms per row, float partial sums, %.17g joins."""
    expansion = build_expansion(BASE_PARAMS, DEFAULT_L0, order)
    path, _ = integrate_ell(InitialState(s0=s0, l0=DEFAULT_L0), BASE_PARAMS, tau, steps, samples)
    lines = [",".join(["t", "ell_rk4"] + [f"ell_order{n}" for n in range(order + 1)])]
    for t, ell in path.tolist():
        sums = _partial_sums(_ell_terms(expansion, t).tolist(), s0 - BASE_PARAMS.mu_hat)
        lines.append(",".join(f"{x:.17g}" for x in [t, ell, *sums]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("batch", [None, "5 rows", 12], ids=["one_span", "spans_of_5", "text_batch_12"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("order", [0, 3, 16])
def test_path_bytes_equal_row_by_row_reference(monkeypatch, tmp_path, capsys, order, to_file, batch):
    # 701 samples and 1400 steps, a multiple of the 700 cells, so cmd_path
    # keeps the count.  Rows are written _TEXT_BATCH // columns at a time, at
    # least one, each one _g17_bytes call: at 5 columns' worth 5 rows; at 12
    # values 4 rows of 3 columns, 2 of 6 and 1 of 19.
    columns = order + 3
    rows = {None: sshat.cli._TEXT_BATCH // columns, "5 rows": 5, 12: {0: 4, 3: 2, 16: 1}[order]}[batch]
    if batch:
        monkeypatch.setattr("sshat.cli._TEXT_BATCH", 5 * columns if batch == "5 rows" else batch)
    calls = []
    monkeypatch.setattr("sshat.cli._g17_bytes", lambda values: calls.append(values.size) or _g17_bytes(values))
    argv = ["path", "--order", str(order), "--s0", "0.05", "--tau", "2", "--samples", "701", "--steps", "1400"]
    target = tmp_path / "path.csv"
    rc, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (rc, err) == (0, "")
    if to_file:
        assert out == ""
        out = target.read_bytes().decode("utf-8")
    assert out == _reference_path(order, 0.05, 2.0, 701, 1400)
    assert out.split("\n")[1].startswith("0,")
    assert calls == [rows * columns] * (701 // rows) + [701 % rows * columns] * (701 % rows > 0)


def test_path_overflow_message_prints_a_plain_float(capsys):
    # exp(-mu_hat t) overflows at the last sample, mu_hat t = -1000.
    rc, out, err = run(capsys, "path", "--order", "16", "--tau", "1e5", "--samples", "3", "--steps", "16")
    assert (rc, out) == (2, "")
    assert err == "numerical failure: path coefficients overflowed at k0*t=-1000.0\n"


@pytest.mark.filterwarnings("error")
def test_path_rejects_a_series_value_that_is_not_finite(tmp_path, capsys):
    # eps^16 overflows at s0 = 1e20 and c_16(0) = 0, so ell_order16 is nan
    # from the row t = 0 on; nothing reaches stdout or an existing --out file.
    argv = ("path", "--s0", "1e20", "--tau", "1e-25", "--order", "16", "--samples", "3")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "numerical failure: the series value ell_order16 is not finite at t=0.0\n"
    target = tmp_path / "path.csv"
    target.write_text("previous run\n", encoding="utf-8")
    rc, out, _ = run(capsys, *argv, "--out", str(target))
    assert (rc, out) == (2, "")
    assert target.read_text(encoding="utf-8") == "previous run\n"


@pytest.mark.parametrize(
    "argv", [("path", "--tau", "1000", "--samples", "11"), ("abar", "--tau", "1000")], ids=["path", "abar"]
)
def test_long_path_memory_does_not_grow_with_the_steps(capsys, argv):
    # 10^6 RK4 steps: path prints 11 rows of l and abar reads only A(tau),
    # so neither keeps a value per step (that would be 8 MB per array here).
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out
    assert peak < 2e6, f"peak {peak / 1e6:.1f} MB"


def test_path_order3_beats_order1(capsys):
    rc, out, _ = run(capsys, "path", "--s0", "0.05", "--samples", "101")
    assert rc == 0
    dev1 = dev3 = 0.0
    for line in out.strip().split("\n")[1:]:
        vals = [float(v) for v in line.split(",")]
        dev1 = max(dev1, abs(vals[3] - vals[1]))
        dev3 = max(dev3, abs(vals[5] - vals[1]))
    assert dev3 < dev1


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--oracle", "--s0-grid=0:0:1", "--l0-grid=0.1:0.1:1", "--tau-grid=1e12:1e12:1"),
        ("shat", "--steps", "100000000000"),
        ("abar", "--steps", "10000001"),
        ("path", "--tau", "20000"),
        # 1000 steps per year is inf past tau = 1.8e305.
        ("shat", "--tau", "1e306"),
        ("abar", "--tau", "1e306"),
        ("path", "--tau", "1e306"),
        ("tables", "--tau", "1e306"),
        ("sweep", "--oracle", "--tau-grid=1e306:1e306:1"),
        # A count below 16 is rejected before path rounds it up to the sample grid.
        ("path", "--steps", "-5"),
        ("path", "--steps", "0"),
        ("path", "--steps", "3"),
        ("sweep", "--steps", "3"),
    ],
    ids=[
        "sweep_default_steps",
        "shat_steps",
        "abar_steps",
        "path_default_steps",
        "shat_overflow",
        "abar_overflow",
        "path_overflow",
        "tables_overflow",
        "sweep_overflow",
        "path_negative_steps",
        "path_zero_steps",
        "path_few_steps",
        "sweep_few_steps",
    ],
)
def test_step_count_bound_is_validation_error(monkeypatch, capsys, argv):
    monkeypatch.setattr("sshat.oracle._rk4", _no_scan)
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert "n_steps must be in [16, 10000000]" in err


def test_sweep_without_oracle_takes_no_step_count_from_its_maturities(monkeypatch, capsys):
    # A 2e4-year maturity's default count (2e7 steps) exceeds the bound, but
    # a sweep without --oracle never integrates: it checks --steps alone and
    # writes its rows.  The same grid with --oracle exits 1.
    monkeypatch.setattr("sshat.oracle._rk4", _no_scan)
    argv = ["sweep", "--s0-grid=-0.05:0.05:2", "--l0-grid=0.1:0.1:1", "--tau-grid=20000:20000:1"]
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    rows = [row.split(",") for row in out.strip().split("\n")[3:]]
    assert [(float(s0), float(tau)) for s0, _, tau, _ in rows] == [(-0.05, 20000.0), (0.05, 20000.0)]
    rc, out, err = run(capsys, *argv, "--oracle")
    assert rc == 1 and out == ""
    assert "n_steps must be in [16, 10000000]" in err


def test_path_rejects_single_sample(capsys):
    rc, _, _ = run(capsys, "path", "--samples", "1")
    assert rc == 1


def test_path_rounds_down_at_the_step_bound(capsys):
    # Rounding 10^7 up to a multiple of 6 would give 10000002 steps; path
    # takes 9999996 instead.
    rc, out, err = run(capsys, "path", "--steps", "10000000", "--samples", "7", "--tau", "0.001")
    assert rc == 0 and err == ""
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 7
    assert rows[1][0] == 1666666 * (0.001 / 9999996)


@pytest.mark.parametrize(
    "argv, steps",
    [
        # The default 1000 steps rounds up to 1002 and down to 996 (as tau = 10^4 with 10^6 samples would).
        (("--samples", "7"), 996),
        (("--steps", "1000", "--samples", "1001"), 1000),
        (("--steps", "16", "--samples", "101"), 100),
    ],
)
def test_path_step_count_stays_within_the_bound(monkeypatch, capsys, argv, steps):
    # Sample i sits at step i * steps / (samples - 1), and its t is that
    # step count times tau / steps, bit for bit.  At tau = 0.3 the t column
    # of 996 steps differs from that of 1002 in 4 of its 7 rows.
    monkeypatch.setattr(sshat.oracle, "_MAX_STEPS", 1000)
    rc, out, err = run(capsys, "path", "--tau", "0.3", *argv)
    assert rc == 0 and err == ""
    t = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    per_cell = steps // (len(t) - 1)
    assert t == [i * per_cell * (0.3 / steps) for i in range(len(t))]


def test_path_rejects_more_cells_than_steps(monkeypatch, capsys):
    monkeypatch.setattr("sshat.oracle._rk4", _no_scan)
    rc, out, err = run(capsys, "path", "--samples", "10000002")
    assert rc == 1 and out == ""
    assert err == "error: samples must be in [2, 10000001], got 10000002\n"


def test_tables_default_prints_both_tables(capsys):
    rc, out, _ = run(capsys, "tables")
    assert rc == 0
    assert "tau*lbar approximations" in out
    assert "s_hat approximations" in out
    assert "0.1006522" in out
    assert "-0.0418965" in out


def test_tables_check_reports_known_deviations(capsys):
    # The embedded reference for the constant's bottom rows at s0 = +/-0.05
    # carries ~1e-7 of solver error; an exact recomputation must flag exactly
    # those four cells and nothing else.
    rc, _, err = run(capsys, "tables", "--check")
    assert rc == 3
    lines = [line for line in err.strip().split("\n") if ": computed" in line]
    assert len(lines) == 4
    for line in lines:
        assert line.startswith("s_hat order3") or line.startswith("s_hat numerical")
        assert "s0=-0.05" in line or "s0=+0.05" in line
    assert not any("tau_lbar" in line for line in lines)


def test_stdout_is_flushed_before_the_check_message():
    # stdout and stderr share one block-buffered pipe: the tables are flushed
    # when written, so they come before the message, as on a line-buffered
    # terminal.
    probe = "import sshat.cli; raise SystemExit(sshat.cli.main(['tables', '--check']))"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    run = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    assert run.returncode == 3
    assert run.stdout.startswith("tau*lbar approximations\n")
    assert run.stdout.index("reference check failed") > run.stdout.index("s_hat approximations")


def test_tables_check_passes_against_the_printed_rows(monkeypatch, capsys):
    rc, out, _ = run(capsys, "tables")
    assert rc == 0
    tables = out.split("\n\n")
    rows = [tuple(tuple(float(v) for v in line.split()[1:]) for line in table.strip().split("\n")[2:]) for table in tables]
    monkeypatch.setattr(sshat.cli, "REFERENCE_TAU_LBAR", rows[0])
    monkeypatch.setattr(sshat.cli, "REFERENCE_SHAT", rows[1])
    rc, _, err = run(capsys, "tables", "--check")
    assert rc == 0 and err == "reference check passed\n"


def test_tables_check_perturbed_parameters_fails(tmp_path, capsys):
    cfg = tmp_path / "perturbed.cfg"
    cfg.write_text(BASE_CONFIG.replace("m = 0.72", "m = 0.73"), encoding="utf-8")
    rc, _, err = run(capsys, "tables", "--check", "--params", str(cfg))
    assert rc == 3
    assert "reference check failed" in err


def test_tables_csv_writes_two_files(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    rc, _, _ = run(capsys, "tables", "--format", "csv", "--out", prefix)
    assert rc == 0
    for suffix in ("_abar.csv", "_shat.csv"):
        text = (tmp_path / ("run" + suffix)).read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "order,s0=-0.05,s0=+0.00,s0=+0.05"
        assert len(lines) == 6


def test_tables_csv_without_out_writes_into_the_working_directory(tmp_path, monkeypatch, capsys):
    # Without --out the two files are those that --out tables names, in the working directory.
    (tmp_path / "named").mkdir()
    monkeypatch.chdir(tmp_path / "named")
    assert run(capsys, "tables", "--format", "csv", "--out", "tables") == (0, "", "")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "tables", "--format", "csv") == (0, "", "")
    for name in ("tables_abar.csv", "tables_shat.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "named" / name).read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["named", "tables_abar.csv", "tables_shat.csv"]


@pytest.mark.parametrize("tau, l0, n_steps", [(1.0, 0.1, 1000), (10.0, 0.2, 10000), (0.3, 0.05, 777)])
def test_table_numerical_rows_are_compute_oracle_bits(tau, l0, n_steps):
    # tables prints 7 decimals; the rows it prints from hold every bit of
    # compute_oracle for each s0 of the table.
    tl_rows, shat_rows = sshat.cli._table_values(BASE_PARAMS, l0, tau, n_steps)
    oracles = [compute_oracle(InitialState(s0=s0, l0=l0), BASE_PARAMS, tau, n_steps) for s0 in sshat.cli.TABLE_S0]
    assert [x.hex() for x in tl_rows[-1].tolist()] == [oracle.tau_lbar.hex() for oracle in oracles]
    assert [x.hex() for x in shat_rows[-1].tolist()] == [oracle.s_hat.hex() for oracle in oracles]


def test_tables_deterministic(capsys):
    _, first, _ = run(capsys, "tables")
    _, second, _ = run(capsys, "tables")
    assert first == second


def test_sweep_single_point_matches_shat(capsys):
    rc, out, _ = run(
        capsys,
        "sweep",
        "--s0-grid=-0.05:-0.05:1",
        "--l0-grid=0.1:0.1:1",
        "--tau-grid=1:1:1",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("#") and lines[1].startswith("#")
    assert lines[2] == "s0,l0,tau,shat_order3"
    row = lines[3].split(",")
    rc2, out2, _ = run(capsys, "shat", "--s0", "-0.05", "--format", "csv")
    assert rc2 == 0
    final_partial = out2.strip().split("\n")[-1].split(",")[2]
    assert float(row[3]) == float(final_partial)


def test_sweep_row_count_and_determinism(capsys):
    args = (
        "sweep",
        "--s0-grid=-0.05:0.05:10",
        "--l0-grid=0.005:0.2:10",
        "--tau-grid=0.5:2:10",
    )
    rc, first, _ = run(capsys, *args)
    assert rc == 0
    lines = first.strip().split("\n")
    assert len(lines) == 3 + 1000
    rc, second, _ = run(capsys, *args)
    assert first == second


def test_sweep_with_oracle_small_grid(capsys):
    rc, out, _ = run(
        capsys,
        "sweep",
        "--s0-grid=-0.05:0.05:3",
        "--l0-grid=0.05:0.15:2",
        "--tau-grid=1:1:1",
        "--oracle",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[2] == "s0,l0,tau,shat_order3,oracle_s_hat,abs_diff"
    for line in lines[3:]:
        assert float(line.split(",")[5]) < 1e-4


ORACLE_SWEEP = (
    "sweep",
    "--s0-grid=-0.05:0.05:3",
    "--l0-grid=0.05:0.15:2",
    "--tau-grid=1:4:2",
    "--oracle",
)


def test_sweep_oracle_columns_equal_compute_oracle(capsys):
    rc, out, _ = run(capsys, *ORACLE_SWEEP)
    assert rc == 0
    rows = out.strip().split("\n")[3:]
    assert len(rows) == 12
    for line in rows:
        s0, l0, tau, value, oracle_s_hat, abs_diff = line.split(",")
        oracle = compute_oracle(InitialState(s0=float(s0), l0=float(l0)), BASE_PARAMS, float(tau))
        assert oracle_s_hat == f"{oracle.s_hat:.17g}"
        assert abs_diff == f"{abs(float(value) - oracle.s_hat):.17g}"


def _assert_timing_column(capsys, args, rows):
    """Each --timing row is the plain row plus one non-negative elapsed_ms field, the same on every row."""
    rc, plain, _ = run(capsys, *args)
    rc2, timed, _ = run(capsys, *args, "--timing")
    assert rc == rc2 == 0
    plain_lines = plain.strip().split("\n")
    timed_lines = timed.strip().split("\n")
    assert timed_lines[:2] == plain_lines[:2]
    assert timed_lines[2] == plain_lines[2] + ",elapsed_ms"
    assert len(timed_lines) == len(plain_lines) == 3 + rows
    shares = set()
    for timed_row, plain_row in zip(timed_lines[3:], plain_lines[3:]):
        head, elapsed = timed_row.rsplit(",", 1)
        assert head == plain_row
        assert float(elapsed) >= 0.0
        shares.add(elapsed)
    assert len(shares) == 1


def test_sweep_timing_column(capsys):
    _assert_timing_column(capsys, ORACLE_SWEEP, 12)


def test_sweep_timing_column_without_oracle(capsys):
    _assert_timing_column(capsys, ("sweep", "--s0-grid=-0.05:0.05:3", "--l0-grid=0.05:0.15:2", "--tau-grid=1:4:2"), 12)


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["series", "oracle"])
def test_sweep_timing_column_multi_span(monkeypatch, capsys, oracle):
    # 3 l0 x 4 tau = 12 pairs, written in spans of 5, 5 and 2 at 5 pairs' worth
    # of values a call.
    monkeypatch.setattr("sshat.cli._TEXT_BATCH", 5 * (3 if oracle else 1))
    args = ("sweep", "--s0-grid=-0.05:0.05:2", "--l0-grid=0.05:0.15:3", "--tau-grid=1:4:4", *oracle)
    _assert_timing_column(capsys, args, 24)


def _reference_sweep(order, s0_spec, l0_spec, tau_spec, oracle):
    """The sweep CSV built row by row: a scalar value() per row, %.17g, one join."""

    def grid(spec):
        lo, hi, count = spec.split(":")
        return np.linspace(float(lo), float(hi), int(count)).tolist()

    header = ["s0", "l0", "tau", f"shat_order{order}"] + (["oracle_s_hat", "abs_diff"] if oracle else [])
    lines = [
        f"# s0_grid={s0_spec} l0_grid={l0_spec} tau_grid={tau_spec} order={order}",
        "# rows ordered by grid index (s0 outer, l0 middle, tau inner)",
        ",".join(header),
    ]
    for s0 in grid(s0_spec):
        for l0 in grid(l0_spec):
            expansion = build_expansion(BASE_PARAMS, l0, order)
            for tau in grid(tau_spec):
                value = solve_shat_series(expansion, tau, l0, BASE_PARAMS, order).value(s0 - BASE_PARAMS.mu_hat)
                row = [s0, l0, tau, value]
                if oracle:
                    s_hat = compute_oracle(InitialState(s0=s0, l0=l0), BASE_PARAMS, tau).s_hat
                    row += [s_hat, abs(value - s_hat)]
                lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def _sweep_output(tmp_path, capsys, order, oracle, to_file, specs):
    argv = ["sweep", "--order", str(order), f"--s0-grid={specs[0]}", f"--l0-grid={specs[1]}", f"--tau-grid={specs[2]}"]
    argv += ["--oracle"] if oracle else []
    target = tmp_path / "sweep.csv"
    argv += ["--out", str(target)] if to_file else []
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    if to_file:
        assert out == ""
        out = target.read_bytes().decode("utf-8")
    return out


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("oracle", [False, True], ids=["series", "oracle"])
@pytest.mark.parametrize("order", [0, 1, 3, 8, 16])
def test_sweep_bytes_equal_row_by_row_reference(monkeypatch, tmp_path, capsys, order, oracle, to_file):
    specs = ("-0.06:0.05:4", "0.02:0.2:3", "0.5:4:3")
    out = _sweep_output(tmp_path, capsys, order, oracle, to_file, specs)
    assert out == _reference_sweep(order, *specs, oracle)

    # Here s_hat crosses zero; at order 3, 6 of its 40 values lie inside
    # +-1e-4, where _g17_bytes falls back to %, as it does for every abs_diff.  At 20 values a
    # call, the 5 s0 rows of 8 pairs take calls of 2, 2 and 1 rows, or, with
    # the oracle's three columns, each row spans of 6 and 2 pairs.
    calls = []
    monkeypatch.setattr("sshat.cli._TEXT_BATCH", 20)
    monkeypatch.setattr("sshat.cli._g17_bytes", lambda values: calls.append(values.size) or _g17_bytes(values))
    specs = ("0.0012:0.0014:5", "0.02:0.2:2", "0.3:0.7:4")
    out = _sweep_output(tmp_path, capsys, order, oracle, to_file, specs)
    assert out == _reference_sweep(order, *specs, oracle)
    assert calls == ([18, 6] * 5 if oracle else [16, 16, 8])


@pytest.mark.parametrize("oracle", [False, True], ids=["series", "oracle"])
@pytest.mark.parametrize("order", [0, 1, 3, 8, 16])
def test_sweep_bytes_equal_row_by_row_reference_repeated_grid(tmp_path, capsys, order, oracle):
    # Repeated l0 and tau values, each solved as its own pair.
    specs = ("-0.06:0.05:3", "0.1:0.1:3", "2:2:2")
    out = _sweep_output(tmp_path, capsys, order, oracle, False, specs)
    assert out == _reference_sweep(order, *specs, oracle)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("oracle", [False, True], ids=["series", "oracle"])
@pytest.mark.parametrize("order", [0, 3])
def test_sweep_bytes_equal_row_by_row_reference_multi_span(monkeypatch, tmp_path, capsys, order, oracle, to_file):
    # 3 l0 x 4 tau = 12 pairs, written in spans of 5, 5 and a short last 2 at
    # 5 pairs' worth of values a call.
    monkeypatch.setattr("sshat.cli._TEXT_BATCH", 5 * (3 if oracle else 1))
    specs = ("-0.06:0.05:3", "0.02:0.2:3", "0.5:4:4")
    out = _sweep_output(tmp_path, capsys, order, oracle, to_file, specs)
    assert out == _reference_sweep(order, *specs, oracle)


def _record_text_calls(monkeypatch):
    """Route sshat.cli's _g17_bytes through a recorder; returns its list of (size, columns) per call."""
    calls = []

    def g17(values):
        calls.append((values.size, values.shape[-1]))
        return _g17_bytes(values)

    monkeypatch.setattr("sshat.cli._g17_bytes", g17)
    return calls


_BOUNDED_GRIDS = {
    # The CI's multi-span grid, 5000 pairs x 3 columns: spans of 2730 and 2270 pairs.
    "ci_multi_span": (
        ["sweep", "--oracle", "--timing", "--s0-grid=0:0:1", "--l0-grid=0.01:0.2:100", "--tau-grid=1:2:50"],
        [8190, 6810],
    ),
    # 3 s0 x 4000 pairs x 3 columns, 12000 values an s0: each s0 in spans of
    # 2730 and 1270 pairs.
    "one_span_oracle": (
        ["sweep", "--oracle", "--s0-grid=-0.05:0.05:3", "--l0-grid=0.01:0.2:400", "--tau-grid=1:2:10"],
        [8190, 3810] * 3,
    ),
}


@pytest.mark.parametrize("case", list(_BOUNDED_GRIDS))
def test_every_text_call_stays_within_the_batch(monkeypatch, tmp_path, case):
    # No _g17_bytes call of sweep formats more than max(_TEXT_BATCH, columns)
    # values, whatever the grid's shape.
    argv, expected = _BOUNDED_GRIDS[case]
    calls = _record_text_calls(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert [size for size, _ in calls] == expected
    assert all(size <= max(sshat.cli._TEXT_BATCH, columns) for size, columns in calls)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--s0-grid=-0.05:0.05:3", "--l0-grid=0.01:0.2:3", "--tau-grid=1:2:4"],
        ["sweep", "--oracle", "--s0-grid=-0.05:0.05:3", "--l0-grid=0.01:0.2:3", "--tau-grid=1:2:4"],
        ["path", "--order", "16", "--samples", "21"],
        ["shat", "--format", "csv", "--order", "16"],
        ["abar", "--format", "csv", "--order", "16"],
    ],
    ids=["sweep", "sweep_oracle", "path", "shat_csv", "abar_csv"],
)
def test_small_text_batches_give_the_same_bytes(monkeypatch, tmp_path, argv):
    # Down to one value a call, each call stays within max(_TEXT_BATCH,
    # columns) values, every value is formatted once and the bytes are those
    # of the default batch.
    calls = _record_text_calls(monkeypatch)
    target = tmp_path / "out.csv"
    assert main(argv + ["--out", str(target)]) == 0
    expected = target.read_bytes()
    total = sum(size for size, _ in calls)
    for batch in (1, 2, 3, 7, 40):
        monkeypatch.setattr("sshat.cli._TEXT_BATCH", batch)
        calls.clear()
        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_bytes() == expected
        assert all(size <= max(batch, columns) for size, columns in calls), (batch, calls)
        assert sum(size for size, _ in calls) == total


# Each case's argv and its count of text kernel calls at 40 values a call.
_STDOUT_CASES = {
    # 7 s0 of 15 values: groups of 2 s0.
    "sweep": (["sweep", "--s0-grid=-0.05:0.05:7", "--l0-grid=0.01:0.2:5", "--tau-grid=1:3:3"], 4),
    # 4 s0 of 45 values: each s0 in spans of 13 and 2 pairs.
    "sweep_oracle": (["sweep", "--oracle", "--s0-grid=-0.05:0.05:4", "--l0-grid=0.01:0.2:5", "--tau-grid=1:3:3"], 8),
    # 101 rows of 19 values: groups of 2 rows.
    "path": (["path", "--order", "16", "--samples", "101"], 51),
    # 4 rows of 5 values: one call.
    "shat_csv": (["shat", "--format", "csv"], 1),
    # 17 rows of 5 values: groups of 8 rows.
    "abar_csv": (["abar", "--format", "csv", "--order", "16"], 3),
    # Text at 7 decimal places: no call.
    "tables": (["tables"], 0),
}


class _NoneBuffer(io.StringIO):
    """A text stream whose ``buffer`` attribute is there but ``None``."""

    buffer = None


@pytest.mark.parametrize("stdout", ["capsys", "string_io", "none_buffer", "text_io_wrapper"])
@pytest.mark.parametrize("case", list(_STDOUT_CASES))
def test_stdout_gives_the_bytes_of_out(monkeypatch, tmp_path, capsys, case, stdout):
    # The CLI writes bytes to stdout's binary buffer, or decoded to stdout
    # itself where the buffer is missing (io.StringIO) or None.  Text
    # already written to sys.stdout comes first: the TextIOWrapper holds it
    # pending until the CLI flushes it.  At 40 values a call the sweeps take
    # several blocks and path several groups of rows.
    monkeypatch.setattr("sshat.cli._TEXT_BATCH", 40)
    calls = []
    monkeypatch.setattr("sshat.cli._g17_bytes", lambda values: calls.append(values.size) or _g17_bytes(values))
    argv, count = _STDOUT_CASES[case]
    target = tmp_path / "out.csv"
    assert main(argv + ["--out", str(target)]) == 0
    expected = b"pending text\n" + target.read_bytes()
    assert len(calls) == count
    capsys.readouterr()
    if stdout == "capsys":
        sys.stdout.write("pending text\n")
        assert main(argv) == 0
        got = capsys.readouterr().out.encode()
    else:
        if stdout == "text_io_wrapper":
            stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
        else:
            stream = io.StringIO() if stdout == "string_io" else _NoneBuffer()
        stream.write("pending text\n")
        with contextlib.redirect_stdout(stream):
            assert main(argv) == 0
        stream.flush()
        got = stream.buffer.getvalue() if stdout == "text_io_wrapper" else stream.getvalue().encode()
    assert got == expected


@pytest.mark.parametrize(
    "limit, commands, rc, message",
    [
        ("500", ["sweep --s0-grid=0:0:2 --l0-grid=0.1:0.2:3", "path --samples 3"], 0, ""),
        ("1", ["sweep --s0-grid=0:0:2 --l0-grid=0.1:0.2:3", "path --samples 3"], 1, "exceeds 1 MB"),
        ("500", ["sweep --s0-grid=0:0:1", "shat --s0=-50000", "path"], 1, "sshat shat --s0=-50000 failed"),
    ],
    ids=["within", "above", "failing_command"],
)
def test_peak_rss_script(tmp_path, limit, commands, rc, message):
    # tests/_peak_rss.py, which the CI's memory steps run: every command in
    # one interpreter, the first failing one named, then the peak checked.
    script = os.path.join(os.path.dirname(__file__), "_peak_rss.py")
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path))
    done = subprocess.run([sys.executable, "-W", "error", script, limit, *commands], capture_output=True, text=True, env=env)
    assert done.returncode == rc, done.stderr
    assert message in done.stderr
    assert done.stdout.startswith("peak RSS ") == ("failed" not in message)
    assert list(tmp_path.iterdir()) == []


def test_sweep_memory_does_not_grow_with_the_pairs(tmp_path):
    # The solve runs in blocks of _BLOCK pairs; at order 16 a block's
    # (order+1)^2 table of powers takes 17^2 * _BLOCK * 8 bytes = 2.4 MB.  The
    # bound, six times that (14.2 MB), does not depend on the grid: besides
    # the block's arrays and one write span of rows, only the values array
    # (8 bytes a point, 0.7 MB here) grows with it.  The peak is about
    # 7.3 MB.  Unblocked, the table alone would take 17^2 * 90000 * 8 bytes
    # = 208 MB here.
    bound = 3 * 2 * 17**2 * _BLOCK * 8
    target = tmp_path / "wide.csv"
    argv = ["sweep", "--order", "16", "--s0-grid=0:0:1", "--l0-grid=0.01:0.2:300", "--tau-grid=0.5:10:300"]
    tracemalloc.start()
    try:
        rc = main(argv + ["--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 3 + 300 * 300


def test_oversized_sweep_is_rejected_before_any_grid_is_allocated(capsys):
    # A 5 * 10^6-point s0 axis alone would take 40 MB as an array.
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "sweep", "--s0-grid=0:1:5000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert out == ""
    assert err == "error: grid has 50000000 points, maximum is 1000000\n"
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.filterwarnings("error")
def test_sweep_series_failure_writes_nothing(tmp_path, capsys):
    # The second maturity overflows the Taylor coefficients of F; the rows of
    # the first one must not reach stdout or the --out file.
    rc, out, err = run(capsys, "sweep", "--tau-grid=1:100000:2")
    assert rc == 2
    assert out == ""
    assert "numerical failure" in err
    target = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, "sweep", "--tau-grid=1:100000:2", "--out", str(target))
    assert rc == 2
    assert out == ""
    assert not target.exists()


def test_sweep_failure_leaves_existing_out_file_untouched(tmp_path, capsys):
    # The grid is computed before --out is opened, so a numerical failure
    # does not truncate a file that is already there.
    target = tmp_path / "sweep.csv"
    target.write_text("previous run\n", encoding="utf-8")
    rc, out, _ = run(capsys, "sweep", "--tau-grid=1:100000:2", "--out", str(target))
    assert rc == 2
    assert out == ""
    assert target.read_text(encoding="utf-8") == "previous run\n"


@pytest.mark.filterwarnings("error")
def test_sweep_rejects_a_series_value_that_is_not_finite(tmp_path, capsys):
    # eps^2 and eps^3 overflow at s0 = +/-1e300; the first such row is named,
    # and nothing reaches stdout or an existing --out file.
    argv = ("sweep", "--s0-grid=-1e300:1e300:3", "--l0-grid=0.1:0.1:1")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "numerical failure: the series value shat_order3 is not finite at s0=-1e+300, l0=0.1, tau=1.0\n"
    target = tmp_path / "sweep.csv"
    target.write_text("previous run\n", encoding="utf-8")
    rc, out, _ = run(capsys, *argv, "--out", str(target))
    assert (rc, out) == (2, "")
    assert target.read_text(encoding="utf-8") == "previous run\n"
    # Finite rows come first here: s0 = 0 at every (l0, tau) pair.
    rc, _, err = run(capsys, "sweep", "--s0-grid=0:1e300:2", "--l0-grid=0.1:0.2:2", "--tau-grid=1:2:2")
    assert rc == 2
    assert err == "numerical failure: the series value shat_order3 is not finite at s0=1e+300, l0=0.1, tau=1.0\n"


def test_sweep_reads_params_file(tmp_path, capsys):
    base = tmp_path / "base.cfg"
    base.write_text(BASE_CONFIG, encoding="utf-8")
    perturbed = tmp_path / "perturbed.cfg"
    perturbed.write_text(BASE_CONFIG.replace("m = 0.72", "m = 0.73"), encoding="utf-8")
    _, default, _ = run(capsys, "sweep")
    rc, from_base, _ = run(capsys, "sweep", "--params", str(base))
    rc2, from_perturbed, _ = run(capsys, "sweep", "--params", str(perturbed))
    assert rc == rc2 == 0
    assert from_base == default
    assert from_perturbed.split("\n")[:3] == default.split("\n")[:3]
    assert from_perturbed != default


@pytest.mark.filterwarnings("error")
def test_sweep_oracle_numerical_failure_exit_code(capsys):
    rc, out, err = run(capsys, "sweep", "--s0-grid=-50000:0.05:3", "--l0-grid=0.1:0.1:1", "--oracle")
    assert rc == 2
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.filterwarnings("error")
def test_sweep_oracle_failure_in_a_shared_scan(tmp_path, capsys):
    # The three maturities share one scan; the failure is reported as the
    # per-maturity batches reported it, and no --out file is written.
    out = tmp_path / "sweep.csv"
    rc, stdout, err = run(capsys, "sweep", "--oracle", "--s0-grid=-50000:0.05:3", "--tau-grid=1:3:3", "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert err == "numerical failure: integration produced a non-finite state in state 0 of the batch (l=inf, integral=inf)\n"
    assert not out.exists()


FAILURE_ORDER = pytest.mark.parametrize(
    "tau_grid, message, without_floor",
    [
        ("1:3:3", "integration produced a non-finite state in state 10 of the batch", "root refinement stalled: "),
        ("3:1:3", "integration produced a non-finite state in state 0 of the batch", "integration produced a "),
    ],
    ids=["ascending", "descending"],
)


@pytest.mark.filterwarnings("error")
@FAILURE_ORDER
def test_sweep_oracle_failures_are_taken_in_maturity_order(monkeypatch, capsys, tau_grid, message, without_floor):
    # States 0-9 start at s0 = -600 and states 10-19 at s0 = -800.  All stay
    # finite to tau = 1, where tau_lbar reaches 1e244 and every root is found
    # within the rounding floor of g; s0 = -800 overflows before tau = 2 and
    # s0 = -600 before tau = 3.  The three maturities share one scan, and the
    # first maturity of the grid that fails names the failure.
    grid = ["sweep", "--oracle", "--s0-grid=-600:-800:2"]
    rc, out, err = run(capsys, *grid, f"--tau-grid={tau_grid}")
    assert (rc, out, err) == (2, "", f"numerical failure: {message} (l=inf, integral=inf)\n")
    rc, out, err = run(capsys, *grid, "--tau-grid=1:1:1")
    assert (rc, err, len(out.splitlines())) == (0, "", 3 + 20)
    # With the floor at 0 no root with a nonzero residual is accepted, and the
    # roots at tau = 1 fail: that failure comes first on the ascending grid
    # and after tau = 3's on the descending.
    monkeypatch.setattr("sshat.oracle._ROOT_ROUNDING", 0.0)
    rc, out, err = run(capsys, *grid, f"--tau-grid={tau_grid}")
    assert (rc, out) == (2, "") and err.startswith(f"numerical failure: {without_floor}")


@pytest.mark.filterwarnings("error")
@FAILURE_ORDER
def test_sweep_oracle_failures_in_root_chunks(monkeypatch, capsys, tau_grid, message, without_floor):
    # Root-solve chunks of 7 entries split the 20 roots at tau = 1 into three.
    monkeypatch.setattr("sshat.oracle._ROOT_CHUNK", 7)
    test_sweep_oracle_failures_are_taken_in_maturity_order(monkeypatch, capsys, tau_grid, message, without_floor)


def test_sweep_invalid_order_fails_before_the_oracle_batch(monkeypatch, capsys):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle batch ran before --order was checked")

    monkeypatch.setattr("sshat.cli._oracle_grid", no_oracle)
    rc, out, err = run(capsys, "sweep", "--oracle", "--order", "17")
    assert rc == 1
    assert out == ""
    assert err == "error: expansion order must be in [0, 16], got 17\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", ["s0", "l0", "tau"])
def test_sweep_rejects_a_grid_whose_span_overflows(tmp_path, capsys, axis):
    # np.linspace(-1e308, 1e308, 3) is [nan, inf, inf]: the negative end is
    # lost, and nan or inf would get past the positivity checks.
    grid = f"--{axis}-grid=-1e308:1e308:3"
    message = f"error: --{axis}-grid: HI - LO must be finite, got '-1e308:1e308:3'\n"
    assert run(capsys, "sweep", grid) == (1, "", message)
    target = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", grid, "--out", str(target)) == (1, "", message)
    assert not target.exists()
    # A one-point axis is [LO] whatever HI is.
    rc, _, err = run(capsys, "sweep", "--s0-grid=-1e308:1e308:1")
    assert (rc, err) == (2, "numerical failure: the series value shat_order3 is not finite at s0=-1e+308, l0=0.005, tau=1.0\n")


def test_sweep_grid_too_large(capsys):
    rc, _, err = run(capsys, "sweep", "--s0-grid", "0:1:101", "--l0-grid", "0.01:0.2:100", "--tau-grid", "1:2:100")
    assert rc == 1
    assert "maximum" in err


def test_sweep_rejects_bad_grids(capsys):
    assert run(capsys, "sweep", "--s0-grid", "nope")[0] == 1
    assert run(capsys, "sweep", "--l0-grid", "0:0.2:5")[0] == 1
    assert run(capsys, "sweep", "--tau-grid", "0:1:2")[0] == 1
    for spec in ("a:b:c", "1:2", "1:2:3:4", "", "0:1:2\n", " 0:1:2", "0:1 :2"):
        assert run(capsys, "sweep", f"--s0-grid={spec}") == (1, "", f"error: --s0-grid must look like LO:HI:N, got {spec!r}\n")
    assert run(capsys, "sweep", "--l0-grid=0.1:0.2:0") == (1, "", "error: --l0-grid: N must be >= 1, got 0\n")


@pytest.mark.parametrize("grid", ["--s0-grid=nan:nan:1", "--s0-grid=inf:inf:1", "--tau-grid=nan:nan:1"])
@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["series", "oracle"])
def test_sweep_rejects_non_finite_grid_ends(capsys, grid, oracle):
    rc, out, err = run(capsys, "sweep", grid, *oracle)
    assert rc == 1
    assert out == ""
    assert grid.split("=")[0] in err and "finite" in err


@pytest.mark.parametrize("command", ["shat", "abar", "path", "tables"])
def test_config_file_and_flag_override(tmp_path, capsys, command):
    # The file's values replace the defaults; a flag wins over the file value.
    cfg = tmp_path / "l0.cfg"
    cfg.write_text(BASE_CONFIG.replace("l0 = 0.1", "l0 = 0.2"), encoding="utf-8")
    cases = [(("--params", str(cfg)), ("--l0", "0.2")), (("--params", str(cfg), "--l0", "0.05"), ("--l0", "0.05"))]
    if command != "tables":
        cases.append((("--params", str(cfg), "--s0", "0.05"), ("--l0", "0.2", "--s0", "0.05")))
    for with_file, flags_only in cases:
        expected = run(capsys, command, *flags_only)
        assert expected[0] == 0
        assert run(capsys, command, *with_file) == expected


def test_invalid_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = 0.72\nbogus = 1\n", encoding="utf-8")
    rc, _, err = run(capsys, "shat", "--params", str(cfg))
    assert rc == 1
    assert "unknown key" in err


@pytest.mark.parametrize("command", ["shat", "sweep"])
def test_missing_params_file_is_validation_error(tmp_path, capsys, command):
    rc, out, err = run(capsys, command, "--params", str(tmp_path / "absent.cfg"))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "absent.cfg" in err


@pytest.mark.parametrize(
    "argv, code",
    [(["shat"], 0), (["shat", "--bogus"], 1), (["shat", "--s0=-50000"], 2), (["tables", "--check"], 3)],
    ids=["success", "validation", "numerical", "check"],
)
def test_console_main_exits_with_the_status_of_main(monkeypatch, capsys, argv, code):
    # The installed sshat script calls console_main, which reads sys.argv.
    monkeypatch.setattr(sys, "argv", ["sshat", *argv])
    with pytest.raises(SystemExit) as exit_info:
        sshat.cli.console_main()
    assert exit_info.value.code == code
    assert capsys.readouterr().err.startswith(("", "error: ", "numerical failure: ", "reference check failed:\n")[code])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["abar", "tables"])
def test_tau_lbar_overflow_is_numerical_failure(capsys, command):
    # The terms L_k overflow at l0 = 1e308; at l0 = 1e300 they do not.
    rc, out, err = run(capsys, command, "--l0", "1e308", "--tau", "1000")
    assert (rc, out) == (2, "")
    assert err == "numerical failure: the terms L_k of tau*lbar overflowed at k0*tau=-10.0\n"
    if command == "abar":
        rc, out, _ = run(capsys, "abar", "--l0", "1e300", "--tau", "1000")
        assert rc == 0 and out


def test_numerical_failure_exit_code(capsys):
    rc, _, err = run(capsys, "shat", "--s0", "-50000")
    assert rc == 2
    assert "numerical failure" in err


@pytest.mark.parametrize(
    "argv",
    [("shat", "--tau", "1e-300"), ("tables", "--tau", "1e-300"), ("sweep", "--tau-grid=1e-300:1e-300:1")],
    ids=["shat", "tables", "sweep"],
)
def test_subnormal_slope_is_numerical_failure(capsys, argv):
    # The series solve divides by f_1, about -l0 tau^2 / 2, subnormal here.
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "numerical failure: the slope f_1 of F underflowed at tau=1e-300" in err


def test_tiny_maturity_oracle_is_numerical_failure(tmp_path, capsys):
    # At tau = 1e-150 the series solves, but no oracle root is within the
    # rounding floor of g.  The oracle batch runs before the file is opened.
    rc, out, err = run(capsys, "shat", "--tau", "1e-150")
    assert (rc, out) == (2, "") and err.startswith("numerical failure: root refinement stalled: ")
    target = tmp_path / "tiny.csv"
    rc, out, err = run(capsys, "sweep", "--oracle", "--tau-grid=1e-150:1e-150:1", "--out", str(target))
    assert (rc, out) == (2, "") and err.startswith("numerical failure: root refinement stalled: ")
    assert not target.exists()


def test_out_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "report.csv"
    rc, out, _ = run(capsys, "abar", "--format", "csv", "--out", str(target))
    assert rc == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("n,L_n,partial_sum")
    assert "\r" not in text


@pytest.mark.parametrize(
    "argv",
    [
        ("shat",),
        ("abar", "--format", "csv"),
        ("path", "--samples", "3"),
        ("tables", "--format", "csv"),
        ("sweep", "--s0-grid=-0.05:0.05:2", "--l0-grid=0.1:0.1:1"),
    ],
    ids=lambda argv: argv[0],
)
def test_out_in_missing_directory_is_validation_error(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    rc, out, err = run(capsys, *argv, "--out", str(missing / "report"))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not missing.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["sweep", "--s0-grid=-0.05:0.05:1000", "--l0-grid=0.01:0.2:100", "--tau-grid=1:10:10"], 2),
        (["path", "--order", "16", "--samples", "20001"], 1),
    ],
    ids=["sweep", "path"],
)
def test_closed_stdout_exits_141_quietly(argv, lines):
    # A reader that stops early (| head) closes the pipe mid-output: exit
    # 128 + SIGPIPE, as `yes | head` gives, with nothing on stderr.
    proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "sshat.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "--s0", "0.05"),
        ("tables", "--order", "2"),
        ("path", "--format", "csv"),
        ("sweep", "--format", "csv"),
        ("shat", "--samples", "5"),
        ("abar", "--check"),
        ("path", "--oracle"),
        ("shat", "--ord", "5"),
        ("path", "--samp", "5"),
        ("sweep", "--tau", "2"),
        ("sweep", "--s0", "0.1"),
        ("sweep", "--s0-g=0:0:1"),
    ],
    ids=[
        "tables-s0", "tables-order", "path-format", "sweep-format", "shat-samples", "abar-check", "path-oracle",
        "shat-ord", "path-samp", "sweep-tau", "sweep-s0", "sweep-s0-g",
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("tau", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", ["shat", "abar", "path", "tables"])
def test_non_finite_tau_is_validation_error(capsys, command, tau):
    rc, out, err = run(capsys, command, f"--tau={tau}")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "tau must be finite" in err
    assert "Traceback" not in err


def test_validation_exit_codes(capsys):
    assert run(capsys, "shat", "--l0", "-0.1")[0] == 1
    assert run(capsys, "shat", "--tau", "0")[0] == 1
    assert run(capsys, "shat", "--order", "40")[0] == 1
    assert run(capsys, "shat", "--steps", "4")[0] == 1


README_DEFAULTS = ("--s0=-0.05", "--l0", "0.1", "--tau", "1", "--order", "3")


@pytest.mark.parametrize(
    "command, spelled_out",
    [
        ("shat", README_DEFAULTS + ("--format", "table")),
        ("abar", README_DEFAULTS + ("--format", "table")),
        ("path", README_DEFAULTS + ("--samples", "101")),
        ("tables", ("--l0", "0.1", "--tau", "1", "--format", "table")),
        ("sweep", ("--order", "3", "--s0-grid=-0.05:0.05:10", "--l0-grid=0.005:0.2:10", "--tau-grid=1:1:1")),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_no_flags_equal_the_readme_defaults_spelled_out(capsys, command, spelled_out):
    default = run(capsys, command)
    assert default[0] == 0
    assert run(capsys, command, *spelled_out) == default


@pytest.mark.parametrize(
    "command, defaults",
    [
        ("shat", ("default 1.0", "default 3", "default table")),
        ("path", ("default 101",)),
        ("sweep", ("default 3", "default -0.05:0.05:10", "default 0.005:0.2:10", "default 1:1:1")),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_help_names_the_parser_defaults(capsys, command, defaults):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for default in defaults:
        assert default in text


@pytest.mark.parametrize(
    "argv, message",
    [
        # The file is read before the maturity is checked.
        (("shat", "--params", "ABSENT", "--tau", "-1"), "[Errno 2] No such file or directory: 'ABSENT'"),
        # The maturity and the step count are checked before s0 and l0.
        (("shat", "--tau", "-1", "--l0", "-1"), "maturity must be > 0, got -1.0"),
        (("shat", "--steps", "3", "--l0", "-1"), "n_steps must be in [16, 10000000], got 3"),
        # sweep has no --tau, but its step count is checked against 1 year.
        (("sweep", "--steps", "3"), "n_steps must be in [16, 10000000], got 3"),
    ],
    ids=["file", "maturity", "steps", "sweep_steps"],
)
def test_validation_order(tmp_path, capsys, argv, message):
    absent = str(tmp_path / "absent.cfg")
    rc, out, err = run(capsys, *(absent if arg == "ABSENT" else arg for arg in argv))
    assert (rc, out) == (1, "")
    assert err == f"error: {message.replace('ABSENT', absent)}\n"
