"""Benchmark for sshat: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_series --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times whole passes of the workload with tracing off
and reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates plain and traced passes and reports the per-layer metrics.  Every
run checks the program's outputs.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

MIN_PASSES = 4
SETUP_RUNS = 5

# The shared host runs in slow and fast phases of seconds to minutes, which
# move raw pass times by 15-30% from one run to the next.  A fixed pure-Python
# loop, timed before the first pass and after every pass, sees much of that
# phase.  Times are reported in seconds at the loop's nominal speed: each pass
# time is multiplied by REFERENCE_NOMINAL_S / (the loop's mean time just
# before and just after that pass).
REFERENCE_ITERATIONS = 1_000_000
REFERENCE_NOMINAL_S = 0.05

# Fresh interpreter: import the CLI and make the first (one-row) sweep call,
# then time the reference loop in the same process for scaling.
SETUP_CHILD = """
import sys
from time import perf_counter
start = perf_counter()
import sshat.cli
rc = sshat.cli.main(["sweep", "--s0-grid=-0.05:-0.05:1", "--l0-grid=0.1:0.1:1",
                     "--tau-grid=1:1:1", "--out", sys.argv[1]])
setup = perf_counter() - start
sys.path.insert(0, sys.argv[2])
from run import reference_loop
print(setup, reference_loop())
sys.exit(rc)
"""


def measure_setup(work_dir: Path) -> float:
    """Median set-up time of SETUP_RUNS fresh processes after one warm-up, scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, refs = [], []
    for _ in range(SETUP_RUNS + 1):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(work_dir / "setup.csv"), str(Path(__file__).parent)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode}: {child.stderr.strip()}")
        setup, reference = map(float, child.stdout.split())
        times.append(setup)
        refs.append(reference)
    return statistics.median(times[1:]) * to_nominal(refs[1:])


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python float loop: the host's speed now."""
    start = perf_counter()
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        total += i * 0.5
    return perf_counter() - start


def to_nominal(refs) -> float:
    """Factor from raw seconds to seconds at the reference loop's nominal speed."""
    return REFERENCE_NOMINAL_S / statistics.fmean(refs)


def timed_pass(workload, tracer=None):
    gc.collect()
    start = perf_counter()
    if tracer is None:
        raw = workload.run()
    else:
        tracer.install()
        try:
            raw = tracer.root(workload.ROOT_SPAN, workload.run)
        finally:
            tracer.uninstall()
    elapsed = perf_counter() - start
    return elapsed, workload.outcome(raw)


def run(args, work_dir: Path):
    import tracing
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, work_dir)
    setup_s = measure_setup(work_dir) if not args.trace else None

    _, reference = timed_pass(workload)
    problems = [] if reference.failed == 0 else ["the warm-up pass failed"]
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, refs = [], [], [reference_loop()]
    attempted = failed = mismatched = 0
    deadline = perf_counter() + args.seconds
    # Start a pass only if a typical pass still fits before the deadline.
    while len(plain) < MIN_PASSES or perf_counter() + statistics.median(plain) <= deadline:
        for samples, pass_tracer in ((plain, None), (traced, tracer)) if tracer else ((plain, None),):
            elapsed, outcome = timed_pass(workload, pass_tracer)
            samples.append(elapsed)
            attempted += outcome.points
            failed += outcome.failed
            if outcome.failed == 0 and outcome.fingerprint != reference.fingerprint:
                mismatched += 1
                failed += outcome.points
        refs.append(reference_loop())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mismatched:
        problems.append(f"{mismatched} passes gave output different from the warm-up pass")

    report = workload.check(outcome)
    problems += report.problems
    failed += len(report.problems)
    values = {}
    scaled = [t * to_nominal(pair) for t, pair in zip(plain, zip(refs, refs[1:]))]
    if tracer is None:
        max_err_order3, probe_problems = workloads.accuracy_probe()
        problems += probe_problems
        values.update({
            "wall_s.p50": statistics.median(scaled),
            "wall_s.p90": statistics.quantiles(scaled, n=10, method="inclusive")[8],
            "points_per_s": attempted / sum(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - min(failed, attempted) / attempted,
            "max_err_order3": max_err_order3,
        })
    else:
        values.update(tracer.layer_metrics(len(traced)))
        values["cli.output_bytes"] = outcome.output_bytes
        # Each traced pass runs right after a plain one, in the same phase of the host.
        values["trace.overhead_frac"] = statistics.median(t / p for p, t in zip(plain, traced)) - 1.0
        values["epsseries.max_err_full_order"] = report.max_err_full_order
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    summary = [
        f"workload {args.workload} seed {args.seed}: {len(plain)} plain passes"
        + (f", {len(traced)} traced passes" if tracer else "")
        + f", {report.checked} points checked against the oracle"
        + f" (largest order-3 error {report.max_err_order3:.3e})",
        "plain pass seconds: " + " ".join(f"{t:.4f}" for t in plain),
        "scaled pass seconds: " + " ".join(f"{t:.4f}" for t in scaled),
        "reference loop seconds: " + " ".join(f"{t:.4f}" for t in refs),
    ]
    summary += [f"check failed: {problem}" for problem in problems[:10]]
    if len(problems) > 10:
        summary.append(f"check failed: ... and {len(problems) - 10} more")
    return not problems, attempted, failed, values, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sshat" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: {ROOT} holds no sshat source tree (src/sshat) or BENCHMARK.json\n")
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import sshat

    if Path(sshat.__file__).resolve().parent != SRC / "sshat":
        sys.stderr.write(f"error: imported sshat from {sshat.__file__}, not from {SRC}\n")
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        correct, attempted, failed, values, summary = run(args, Path(tmp))

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        summary.append(f"  {name} = {values[name]:.6g} {unit}")
    print("\n".join(summary))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
