"""Placeholder for the benchmark's tracer, which imports this module and patches
``ExpPolySeries.evaluate``.  No module of the package imports it and nothing
calls it.  ROADMAP item 1 deletes the module together with that patch.
"""


class ExpPolySeries:
    def evaluate(self, t: float) -> float:
        raise NotImplementedError("ExpPolySeries is a placeholder; see the module docstring")
