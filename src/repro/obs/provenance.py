"""Run provenance: who produced a result, with what, from where.

A provenance block answers the questions drift debugging always starts
with — which package version, which hot-loop kernels, which git state,
which seed schedule, and (for sweeps) how much of the run came from
the cache. It is **injected** into artifacts as a separate top-level
key: :func:`repro.sweep.artifacts.diff_artifacts` compares ``points``
only, so provenance never perturbs a baseline gate, and artifacts
written without it stay byte-identical to earlier releases.

Wall-clock-derived fields (the ISO timestamp, git state) live here and
in :mod:`repro.sweep.artifacts` — never inside simulation scope — so
the determinism and telemetry-purity lint rules stay clean.
"""

from __future__ import annotations

import platform
from typing import Dict, Optional

#: Version of the provenance block layout itself.
PROVENANCE_VERSION = 1


def run_provenance(
    config_hash: Optional[str] = None,
    seeds: Optional[Dict[str, object]] = None,
    cache: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a provenance block for an artifact.

    The ``backend`` field names the hot-loop kernels the simulators
    run in this process: ``"numba"`` when the platform compiles them
    (:func:`repro.sim.backend.platform_kernels`), else ``"pure"``.

    Args:
        config_hash: Identity hash of the run's configuration.
        seeds: Seed schedule (e.g. ``{"seed": 0}`` or a per-client
            map) — whatever fully determines the run's randomness.
        cache: Cache statistics from
            :func:`repro.sweep.runner.run_cached_grid` (hits, misses,
            recomputes, elapsed time).
        extra: Additional identity fields merged in verbatim.
    """
    from repro import __version__
    from repro.sim.backend import platform_kernels
    from repro.sweep.artifacts import git_describe, utc_now

    kernels = platform_kernels()
    block: Dict[str, object] = {
        "provenance_version": PROVENANCE_VERSION,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "backend": "pure" if kernels is None else kernels.name,
        "git_describe": git_describe(),
        "created_utc": utc_now(),
    }
    if config_hash is not None:
        block["config_hash"] = config_hash
    if seeds is not None:
        block["seed_schedule"] = dict(seeds)
    if cache is not None:
        block["cache"] = dict(cache)
    if extra:
        block.update(extra)
    return block
