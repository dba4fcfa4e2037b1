"""Spans and counters around the package's public calls, installed from outside.

The benchmark patches each name where its caller looks it up (for example
``sshat.cli.build_expansion``, not ``sshat.perturbation.build_expansion``),
so the package itself carries no tracing code.  Leaf calls of a few
microseconds or less that run up to 10^5 times a pass
(``ShatExpansion.value``, ``ExpPolySeries.evaluate``) only bump aggregate
counters: a span per call would nearly double the time of a 100k-row sweep.

Spans stay in memory and are written out once, at the end of the run.  A
span's self time is its duration minus the time covered by its children,
aggregate children included.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import sshat
import sshat.cli
import sshat.epsseries
import sshat.expseries
import sshat.oracle

SPAN = "span"
COUNTER = "counter"
_RAISED = object()


def _integrate_info(args, kwargs, result):
    steps = kwargs["n_steps"] if "n_steps" in kwargs else args[3]
    return {"steps": steps}


def _initial_half_width(args, kwargs):
    """The documented starting half-width 10 (|eps_hint| + sigma2 tau + 0.01)."""
    names = ("tau_lbar", "l0", "params", "tau", "eps_hint")
    bound = dict(zip(names, args), **kwargs)
    return 10.0 * (abs(bound.get("eps_hint", 0.0)) + bound["params"].sigma2 * bound["tau"] + 0.01)


def _root_info(args, kwargs, result):
    # Each widening doubles the half-width, so the final bracket gives the count.
    ratio = 0.5 * (result.bracket_hi - result.bracket_lo) / _initial_half_width(args, kwargs)
    return {"widenings": round(math.log2(ratio)), "residual": result.residual}


def _evaluate_terms(args):
    return len(args[0].terms)


# (owner, attribute, layer name, kind, extractor).  A span extractor sees
# (args, kwargs, result); a counter extractor sees args and returns a count.
PATCHES = (
    (sshat.cli, "build_expansion", "perturbation.build_expansion", SPAN, None),
    (sshat, "build_expansion", "perturbation.build_expansion", SPAN, None),
    (sshat.cli, "solve_shat_series", "epsseries.solve_shat_series", SPAN, None),
    (sshat, "solve_shat_series", "epsseries.solve_shat_series", SPAN, None),
    (sshat.epsseries, "tau_lbar_terms", "perturbation.tau_lbar_terms", SPAN, None),
    (sshat.cli, "compute_oracle", "oracle.compute_oracle", SPAN, None),
    (sshat.oracle, "integrate_ell", "oracle.integrate_ell", SPAN, _integrate_info),
    (sshat.oracle, "solve_shat_numeric", "oracle.solve_shat_numeric", SPAN, _root_info),
    (sshat.epsseries.ShatExpansion, "value", "epsseries.ShatExpansion.value", COUNTER, None),
    (sshat.expseries.ExpPolySeries, "evaluate", "expseries.ExpPolySeries.evaluate", COUNTER, _evaluate_terms),
)


class Tracer:
    """Collects spans and counters while installed; see ``install``/``uninstall``."""

    def __init__(self):
        self.spans = []  # (trace, id, parent, name, start, end, child_s, info)
        self.counters = {}  # name -> [calls, busy_s, extra]
        self.trace_id = 0
        self._stack = []  # open spans: [id, child_s]
        self._next_id = 0
        self._saved = []

    def install(self):
        for owner, attr, name, kind, extract in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrap = self._span if kind == SPAN else self._counter
            setattr(owner, attr, wrap(name, original, extract))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` as the root span of a new trace."""
        self.trace_id += 1
        return self._span(name, fn, None)(*args)

    def _span(self, name, fn, extract):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            result = _RAISED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                info = None if extract is None or result is _RAISED else extract(args, kwargs, result)
                spans.append((self.trace_id, frame[0], parent[0] if parent else None, name, start, end, frame[1], info))

        return traced

    def _counter(self, name, fn, extract):
        stack = self._stack
        totals = self.counters.setdefault(name, [0, 0.0, 0])

        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            totals[0] += 1
            totals[1] += elapsed
            if extract is not None:
                totals[2] += extract(args)
            if stack:
                stack[-1][1] += elapsed
            return result

        return counted

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass totals for every layer, keyed by metric name."""
        busy = {}
        self_s = {}
        calls = {}
        steps = widenings = 0
        max_residual = 0.0
        for _trace, _id, _parent, name, start, end, child_s, info in self.spans:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_s)
            if info is None:
                continue
            if name == "oracle.integrate_ell":
                steps += info["steps"]
            elif name == "oracle.solve_shat_numeric":
                widenings += info["widenings"]
                max_residual = max(max_residual, info["residual"])

        per = 1.0 / passes
        metrics = {}

        def layer(name, *fields):
            for field in fields:
                table = {"calls": calls, "busy_s": busy, "self_s": self_s}[field]
                metrics[f"{name}.{field}"] = table.get(name, 0) * per

        layer("cli.cmd_sweep", "self_s")
        layer("epsseries.solve_shat_series", "calls", "busy_s", "self_s")
        layer("perturbation.build_expansion", "calls", "busy_s")
        layer("perturbation.tau_lbar_terms", "calls", "busy_s")
        layer("oracle.integrate_ell", "calls", "busy_s")
        metrics["oracle.integrate_ell.rk4_steps"] = steps * per
        metrics["oracle.integrate_ell.ns_per_step"] = busy.get("oracle.integrate_ell", 0.0) / steps * 1e9 if steps else 0.0
        layer("oracle.solve_shat_numeric", "calls", "busy_s")
        metrics["oracle.solve_shat_numeric.bracket_widenings"] = widenings * per
        metrics["oracle.solve_shat_numeric.max_residual"] = max_residual
        for name in ("epsseries.ShatExpansion.value", "expseries.ExpPolySeries.evaluate"):
            count, total, _ = self.counters.get(name, (0, 0.0, 0))
            metrics[f"{name}.calls"] = count * per
            metrics[f"{name}.busy_s"] = total * per
        metrics["expseries.ExpPolySeries.evaluate.terms"] = self.counters.get(
            "expseries.ExpPolySeries.evaluate", (0, 0.0, 0)
        )[2] * per
        return metrics

    def write(self, path):
        """All spans as JSON lines (times in ns from the first span), then the counters."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for trace, span_id, parent, name, start, end, child_s, info in self.spans:
                record = {
                    "trace": trace,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ns": round((start - origin) * 1e9),
                    "dur_ns": round((end - start) * 1e9),
                    "self_ns": round((end - start - child_s) * 1e9),
                }
                if info:
                    record.update(info)
                fh.write(json.dumps(record) + "\n")
            counters = {name: {"calls": c, "busy_s": b, "extra": x} for name, (c, b, x) in self.counters.items()}
            fh.write(json.dumps({"counters": counters}) + "\n")
