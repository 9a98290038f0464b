# Kept for the benchmark harness's imports; ROADMAP item 1 removes them, then this file goes.
from .workload import EstimatorState as EstimatorCore  # noqa: F401
