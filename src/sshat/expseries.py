"""Placeholder for the benchmark's tracer: ``perfbench/tracing.py`` imports this
module on every run and patches ``ExpPolySeries.evaluate``.  No module of the
package imports it and nothing calls it.  ROADMAP item 14 deletes the module
together with that patch.
"""


class ExpPolySeries:
    def evaluate(self, t: float) -> float:
        raise NotImplementedError("ExpPolySeries is a placeholder; see the module docstring")
