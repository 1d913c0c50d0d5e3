"""The attack family's point executor.

Attack points are independent, fully deterministic simulations (the
adaptive attacks carry no hidden global state), so executing them
across a ``ProcessPoolExecutor`` is bit-identical to a serial run. The
cache/pool core and the result codec are shared by every family
(:mod:`repro.sweep.runner`).
"""

from __future__ import annotations

from repro.sweep.attack_spec import AttackSweepPoint
from repro.sweep.runner import PointResult, wall_timer


def execute_attack_point(point: AttackSweepPoint) -> PointResult:
    """Run one attack point in the current process (worker entry)."""
    started = wall_timer()
    result = point.attack.execute(point.run)
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "attack": point.attack.display_name(),
            "kind": point.attack.kind,
            "figure": point.attack.figure,
            "subchannels": point.run.subchannels,
            "params": point.attack.param_dict(),
        },
        metrics=result.as_metrics(),
        wall_clock_s=wall_timer() - started,
    )
