"""The repository benchmark: four workloads over the layered Byzantine
stack, end-to-end metrics from untraced runs and a per-layer split from a
separately traced run.  ``perfbench/run.py`` is the command; see
``perfbench/README.md`` for the workloads and the metric definitions."""


class RunFailed(Exception):
    """The run could not produce a measurement (not an output check)."""
