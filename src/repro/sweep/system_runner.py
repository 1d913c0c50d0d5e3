"""The system family's point executor.

One nesting rule: each sweep point runs its
:class:`~repro.system.sim.SystemSim` *serially and uncached*
(``jobs=1, cache_dir=None``) — the sweep pool is the only process
pool, and the sweep point cache the only cache, so points stay
single-process workers and the sharding machinery never nests.
``SystemSim``'s own sharded pool/cache serve the direct API and
``repro system run``, where there is no outer pool.
"""

from __future__ import annotations

from repro.system.sim import run_system
from repro.sweep.runner import PointResult, wall_timer
from repro.sweep.system_spec import SystemSweepPoint


def execute_system_point(point: SystemSweepPoint) -> PointResult:
    """Run one system scenario in the current process (worker entry).

    Serial and uncached by design — see the module docstring.
    ``metrics`` is the flattened :meth:`SystemResult.as_metrics` view:
    system aggregates at bare names plus ``"{client}:{metric}"`` per
    client, so baselines gate per-client tails, not just the mean.
    """
    started = wall_timer()
    result = run_system(point.config, jobs=1, cache_dir=None)
    config = point.config
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "scenario": point.scenario,
            "clients": [client.name for client in config.clients],
            "policy": config.policy.display_name(),
            "scheduler": config.sched_display(),
            "ath": config.ath,
            "eth": config.eth_resolved,
            "abo_level": config.abo_level,
            "channels": config.channels,
            "banks": config.banks,
            "n_trefi": config.n_trefi,
            "seed": config.seed,
        },
        metrics=result.as_metrics(),
        wall_clock_s=wall_timer() - started,
    )
