"""Parallel, cached execution of sweep points: the one result codec.

Every sweep family runs through :func:`run_cached_grid` and records
its points as :class:`PointResult` (key, config hash, identity
columns, metrics) collected into one :class:`SweepResult`; what
differs between families is declared on
:class:`~repro.sweep.family.SweepFamily`. This module also holds the
perf family's point executor, :func:`execute_point`.

Points are independent simulations with fully deterministic seeding
(the schedule generator and every stochastic policy derive their RNG
streams from the point's config), so executing them across a
``ProcessPoolExecutor`` produces bit-identical metrics to a serial
run — the runner asserts nothing about ordering and reassembles
results in spec order.

Completed points are persisted to a cache directory keyed on the
point's config hash; reruns (including a sweep interrupted halfway)
skip straight past them. The hash covers the workload, the policy
spec, every grid parameter, and a result-version constant, so any
semantic change to the simulator invalidates the cache wholesale.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.perf import run_workload
from repro.sweep.spec import SweepPoint
from repro.workloads.profiles import profile_by_name

#: Default root of the per-family point caches (relative to the
#: working directory); family ``f`` caches under ``CACHE_ROOT / f``.
CACHE_ROOT = Path(".repro-cache")

ProgressFn = Callable[[str], None]


def wall_timer() -> float:
    """The sanctioned wall-clock read for orchestration telemetry.

    Every wall-time measurement outside this module, ``repro.obs``, and
    the benchmark suite goes through this function (enforced by the
    ``telemetry-purity`` lint rule): wall clock is orchestration
    telemetry — never baseline-gated, never a simulated quantity — and
    funneling it here keeps simulation scope free of host-time reads.
    """
    return time.perf_counter()


def stderr_progress(quiet: bool = False) -> Optional[ProgressFn]:
    """The one progress policy every CLI command shares.

    Per-point progress lines go to stderr (stdout carries the result
    tables and artifacts) and flush immediately so long sweeps stay
    observable through pipes; ``quiet`` suppresses them entirely.
    Centralized here so the ``sweep``, ``attack sweep``, ``report``,
    and ``mc sweep`` commands cannot wire verbosity differently.
    """
    if quiet:
        return None

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    return progress


@dataclass
class PointResult:
    """Outcome of one sweep point of any family.

    ``identity`` holds the point's resolved grid coordinates (the
    family's identity columns, e.g. workload/policy/ATH for perf
    points), recorded next to its metrics in the cache and artifacts.
    """

    key: str
    config_hash: str
    identity: Dict[str, Any]
    metrics: Dict[str, float]
    wall_clock_s: float
    cached: bool = False

    def to_json(self) -> Dict[str, object]:
        """The cache-entry form: identity columns at the top level."""
        return {
            "key": self.key,
            "config_hash": self.config_hash,
            **self.identity,
            "metrics": self.metrics,
            "wall_clock_s": self.wall_clock_s,
        }

    @staticmethod
    def from_json(
        data: Dict[str, object], columns: Sequence[str], cached: bool = False
    ) -> "PointResult":
        """Revive a cache entry, keeping exactly its ``columns``.

        Raises ``KeyError``/``TypeError``/``ValueError`` when ``data``
        is not an object or lacks a field; the cache then recomputes
        the point. Extra fields an older entry carries are dropped.
        """
        return PointResult(
            key=str(data["key"]),
            config_hash=str(data["config_hash"]),
            identity={name: data[name] for name in columns},
            metrics={k: float(v) for k, v in dict(data["metrics"]).items()},
            wall_clock_s=float(data["wall_clock_s"]),
            cached=cached,
        )


@dataclass
class SweepResult:
    """All point results of one sweep, in spec order."""

    #: The :class:`~repro.sweep.family.SweepFamily` that ran the sweep.
    family: Any
    spec: Any
    results: List[PointResult] = field(default_factory=list)
    wall_clock_s: float = 0.0
    jobs: int = 1
    #: Cache statistics from :func:`run_cached_grid` (hits, misses,
    #: recomputes, elapsed time) — recorded into artifact provenance.
    cache_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def compute_time_s(self) -> float:
        """Summed per-point simulation time. Cached points retain the
        wall-clock of their *original* computation, so this stays a
        meaningful perf-trajectory number even on warm-cache reruns
        (unlike ``wall_clock_s``, which times cache-file reads then)."""
        return sum(r.wall_clock_s for r in self.results)

    def by_key(self) -> Dict[str, PointResult]:
        return {r.key: r for r in self.results}

    def aggregates(self) -> Dict[str, float]:
        """Cross-point summary metrics (artifact ``aggregates`` block)."""
        return self.family.aggregates(self.results)


class SweepPointError(RuntimeError):
    """A point's executor raised; names the point it failed on.

    The constructor arguments are the exception's ``args``, so it
    pickles: a system sweep point raises it from inside a pool worker
    when one of its channel shards fails.
    """

    def __init__(self, key: str, config_hash: str, reason: str):
        super().__init__(key, config_hash, reason)
        self.key = key
        self.config_hash = config_hash
        self.reason = reason

    def __str__(self) -> str:
        return (f"point {self.key} (config {self.config_hash}) failed: "
                f"{self.reason}")


def execute_point(point: SweepPoint) -> PointResult:
    """Run one perf sweep point in the current process (worker entry)."""
    started = wall_timer()
    result = run_workload(profile_by_name(point.workload), point.config)
    config = point.config
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "workload": point.workload,
            "policy": config.policy.display_name(),
            "ath": config.ath,
            "eth": config.eth_resolved,
            "abo_level": config.abo_level,
            "trefi_per_mitigation": config.trefi_per_mitigation_resolved,
        },
        metrics=result.as_metrics(),
        wall_clock_s=wall_timer() - started,
    )


def _cache_path(cache_dir: Path, config_hash: str) -> Path:
    return cache_dir / f"{config_hash}.json"


def _load_cached(cache_dir: Path, config_hash: str, from_json):
    try:
        result = from_json(
            json.loads(_cache_path(cache_dir, config_hash).read_text()),
            cached=True,
        )
    except (OSError, KeyError, TypeError, ValueError):
        return None  # unreadable, not an object, or codec drift
    if result.config_hash != config_hash:
        return None  # stale entry
    return result


def _store_cached(cache_dir: Path, result) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, result.config_hash)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(result.to_json(), indent=1, sort_keys=True))
    os.replace(tmp, path)


def run_cached_grid(
    points,
    execute,
    from_json,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
    stats: Optional[Dict[str, object]] = None,
):
    """Shared cache/pool orchestration of every sweep family and of
    :class:`~repro.system.sim.SystemSim`'s channel shards.

    Probes the on-disk cache for every point, runs the misses through a
    ``ProcessPoolExecutor`` (or in-process when ``jobs == 1``), stores
    fresh results, and reassembles everything in point order.

    Args:
        points: Grid cells exposing ``key`` and ``config_hash()``.
        execute: Module-level worker ``point -> result`` (picklable);
            results expose ``key``, ``config_hash``, ``cached``,
            ``wall_clock_s``, and ``to_json()``.
        from_json: Result codec ``(data, cached) -> result`` used to
            revive cache entries (exceptions mean recompute).
        jobs: Worker processes (``1`` = serial, in-process).
        cache_dir: Per-point result cache; ``None`` disables caching.
        progress: Optional callback receiving one line per finished
            point (``[done/total] key (cached|12.3s)``) plus a final
            cache/throughput summary line.
        stats: Optional dict the runner fills with cache statistics:
            ``hits`` (revived from cache), ``misses`` (no cache
            entry), ``recomputes`` (entry present but stale or
            unreadable), ``executed``, ``elapsed_s``, ``points_per_s``.

    Returns:
        Results in the same order as ``points``.

    Raises:
        SweepPointError: ``execute`` raised on a point. Points that
            finished before it stay cached, so a rerun resumes.
    """
    started = wall_timer()
    total = len(points)
    results: Dict[int, object] = {}

    def note(index: int, result) -> None:
        results[index] = result
        if progress is not None:
            status = "cached" if result.cached else f"{result.wall_clock_s:.1f}s"
            progress(f"[{len(results)}/{total}] {result.key} ({status})")

    def finish(index: int, result) -> None:
        if cache_dir:
            _store_cached(cache_dir, result)
        note(index, result)

    def failed(index: int, exc: Exception) -> SweepPointError:
        point = points[index]
        return SweepPointError(point.key, point.config_hash(),
                               f"{type(exc).__name__}: {exc}")

    hits = misses = recomputes = 0
    pending: List[int] = []
    for index, point in enumerate(points):
        if cache_dir:
            config_hash = point.config_hash()
            had_entry = _cache_path(cache_dir, config_hash).is_file()
            cached = _load_cached(cache_dir, config_hash, from_json)
        else:
            had_entry = False
            cached = None
        if cached is not None:
            hits += 1
            note(index, cached)
        elif had_entry:
            # An entry existed but failed revival (stale hash, corrupt
            # JSON, codec drift): counted apart from plain misses —
            # unexpected recomputes are the cache-invalidation signal.
            recomputes += 1
            pending.append(index)
        else:
            misses += 1
            pending.append(index)

    if pending and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(execute, points[i]): i for i in pending}
            remaining = set(futures)
            failure = None
            while remaining and failure is None:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                # Store every finished point before raising for the
                # first failed one.
                for future in done:
                    index = futures[future]
                    try:
                        result = future.result()
                    except Exception as exc:
                        failure = failure or (index, exc)
                        continue
                    finish(index, result)
            if failure is not None:
                for future in remaining:
                    future.cancel()
                index, exc = failure
                raise failed(index, exc) from exc
    else:
        for index in pending:
            try:
                result = execute(points[index])
            except Exception as exc:
                raise failed(index, exc) from exc
            finish(index, result)

    elapsed_s = wall_timer() - started
    rate = total / elapsed_s if elapsed_s > 0 else 0.0
    if stats is not None:
        stats.update({
            "hits": hits,
            "misses": misses,
            "recomputes": recomputes,
            "executed": len(pending),
            "elapsed_s": elapsed_s,
            "points_per_s": rate,
        })
    if progress is not None and total:
        progress(
            f"cache: {hits} hits, {misses} misses, {recomputes} "
            f"recomputes; {total} points in {elapsed_s:.1f}s "
            f"({rate:.1f} points/s)"
        )

    return [results[i] for i in range(total)]
