"""The model family's point executor (analytic/derived quantities).

Model points are pure, deterministic computations that flow through
the shared cache/pool core (:mod:`repro.sweep.runner`) unchanged. Most
evaluators are microseconds of arithmetic — the cache matters for the
few that are not (the sampled Jailbreak curve at 2^20 iterations,
per-workload schedule generation for Table 4) and for giving every
point a stable ``BENCH``/baseline identity.
"""

from __future__ import annotations

from repro.sweep.model_spec import ModelSweepPoint
from repro.sweep.runner import PointResult, wall_timer


def execute_model_point(point: ModelSweepPoint) -> PointResult:
    """Evaluate one model point in the current process (worker entry)."""
    started = wall_timer()
    metrics = point.model.evaluate()
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={"kind": point.model.kind,
                  "params": point.model.param_dict()},
        metrics={k: float(v) for k, v in metrics.items()},
        wall_clock_s=wall_timer() - started,
    )
