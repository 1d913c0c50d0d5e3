"""The benchmark's workloads and their output checks.

Each workload is a committed sweep preset at its baseline scale, run
serially (``jobs=1``) through its family's public entry points from a
fresh, empty cache directory:

* ``table7``, ``mc-policy`` and ``system-qos`` go through
  ``get_family(...).run``, ``make_artifact`` and
  ``check_against_baseline``;
* ``mc-abo-traced`` runs the three MOAT points of ``mc-abo`` through
  ``run_mc(config, recorder=TraceRecorder())`` and writes each as a
  ``repro.obs/v1`` artifact (the ``--trace-out`` path).

Every point is re-seeded with the benchmark's seed. At the presets'
own seed every point must match its committed baseline at
``rtol=0, atol=0``; at any other seed the run is summarized by a
digest of point keys, config hashes and metrics (wall-clock fields
excluded), which repetitions of one run — and two commits — must
reproduce bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import traceback
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.obs import TraceRecorder, make_obs_artifact
from repro.sim.mc import run_mc
from repro.sweep.artifacts import load_artifact, write_artifact
from repro.sweep.family import SweepFamily, get_family


#: The seed every committed preset (and so every baseline) uses.
PRESET_SEED = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a committed preset at baseline scale."""

    name: str
    family: str
    preset: str
    why: str
    #: Window override the committed baseline was written at.
    n_trefi: Optional[int] = None
    #: Run the MOAT points through ``run_mc`` under a recorder.
    traced: bool = False

    def spec(self, seed: Optional[int] = None) -> Any:
        """The preset at baseline scale, re-seeded unless ``seed`` is
        ``None``."""
        spec = get_family(self.family).preset(self.preset)
        return spec.with_overrides(n_trefi=self.n_trefi, seed=seed)

    def baseline_path(self, root: Path) -> Path:
        return get_family(self.family).default_baseline_path(
            self.preset, root
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "table7", "sweep", "table7",
            "open-loop ATHxABO grid: engine ACT/REF/ALERT paths, schedule "
            "generation, fixed-point passes, 81 cache files",
            n_trefi=512,
        ),
        Workload(
            "mc-policy", "mc", "mc-policy",
            "single-client closed loop: request generation, the SoA fast "
            "path and every policy's proactive selection",
        ),
        Workload(
            "system-qos", "system", "system-qos",
            "multi-client QoS: crossbar tagging, the reference serve loop "
            "and scheduler picks, shard merge",
        ),
        Workload(
            "mc-abo-traced", "mc", "mc-abo",
            "MOAT mc-abo points under the event recorder with obs "
            "artifacts written: the only repro.obs load",
            traced=True,
        ),
    )
}


@dataclasses.dataclass
class Outcome:
    """What one repetition of a workload produced."""

    attempted: int
    failed: int
    #: Simulated ACTs, summed as ``total_acts`` over points.
    acts: int = 0
    alerts: int = 0
    obs_events: int = 0
    digest: str = ""
    problems: List[str] = dataclasses.field(default_factory=list)


def result_digest(points: Mapping[str, Mapping[str, Any]]) -> str:
    """Digest of point keys, config hashes and metrics."""
    payload = {
        key: {"config_hash": point["config_hash"],
              "metrics": point["metrics"]}
        for key, point in points.items()
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def failed_keys(problems: List[str], keys) -> set:
    """Points named by baseline-gate problems; every point when a
    problem names none of them (unreadable baseline, shrunk grid)."""
    keys = set(keys)
    failed: set = set()
    for problem in problems:
        named = {
            key for key in keys
            if f": {key}:" in problem or f": {key} " in problem
        }
        if not named:
            return keys
        failed |= named
    return failed


def _sum_metric(points: Mapping[str, Mapping[str, Any]], metric: str) -> int:
    return int(sum(point["metrics"].get(metric, 0.0)
                   for point in points.values()))


def run_family_workload(
    family: SweepFamily,
    spec: Any,
    cache_dir: Path,
    baseline: Optional[Path],
    git_rev: str,
    tracer,
) -> Outcome:
    """Run a sweep preset, build its artifact and gate it.

    Args:
        family: The preset's sweep family.
        spec: The (re-seeded) preset.
        cache_dir: Fresh, empty point cache.
        baseline: Committed baseline to gate on at ``rtol=0, atol=0``;
            ``None`` skips the gate (non-preset seeds).
        git_rev: Recorded in the artifact, so no ``git`` runs here.
        tracer: Span sink for the benchmark-side layer boundaries.
    """
    try:
        with tracer.span("sweep.family.run"):
            result = family.run(spec, jobs=1, cache_dir=cache_dir)
        with tracer.span("sweep.artifacts.build"):
            artifact = family.make_artifact(result, git_rev=git_rev)
    except Exception:  # a raising point fails the whole grid
        attempted = len(spec.points())
        return Outcome(attempted, attempted,
                       problems=[traceback.format_exc()])
    points = artifact["points"]
    outcome = Outcome(
        attempted=len(points),
        failed=0,
        acts=_sum_metric(points, "total_acts"),
        alerts=_sum_metric(points, "alerts"),
        digest=result_digest(points),
    )
    if baseline is not None:
        with tracer.span("sweep.artifacts.check"):
            _, outcome.problems = family.check_against_baseline(
                artifact, baseline, rtol=0.0, atol=0.0
            )
        outcome.failed = len(failed_keys(outcome.problems, points))
    return outcome


def moat_points(spec: Any) -> List[Any]:
    """The MOAT points of an mc spec (the traced workload's grid)."""
    return [p for p in spec.points() if p.config.policy.kind == "moat"]


def write_subset_baseline(baseline: Path, keys, out: Path) -> Path:
    """Copy of ``baseline`` restricted to ``keys`` (the gate requires
    every baseline point in the run)."""
    data = load_artifact(baseline, get_family("mc").schema)
    data["points"] = {
        key: point for key, point in data["points"].items() if key in keys
    }
    write_artifact(out, data)
    return out


def run_traced_workload(
    points: List[Any],
    out_dir: Path,
    baseline: Optional[Path],
    provenance: Dict[str, object],
    tracer,
) -> Outcome:
    """Run mc points under a recorder and write their obs artifacts.

    Args:
        points: mc sweep points to run.
        out_dir: Where the ``repro.obs/v1`` artifacts go.
        baseline: Baseline holding exactly these points, gated at
            ``rtol=0, atol=0``; ``None`` skips the gate.
        provenance: Pre-built provenance block for the artifacts.
        tracer: Span sink for the benchmark-side layer boundaries.
    """
    family = get_family("mc")
    outcome = Outcome(attempted=len(points), failed=0)
    current: Dict[str, Dict[str, Any]] = {}
    failed: set = set()
    for index, point in enumerate(points):
        config = point.config
        recorder = TraceRecorder(meta={"point": point.key})
        try:
            with tracer.span("obs.record"):
                result = run_mc(config, recorder=recorder)
            with tracer.span("obs.artifact"):
                write_artifact(
                    out_dir / f"point{index}.obs.json",
                    make_obs_artifact(
                        recorder,
                        n_trefi=config.n_trefi,
                        t_refi_ns=config.timing.t_refi,
                        provenance=provenance,
                    ),
                )
        except Exception:  # contain the point, keep the others
            failed.add(point.key)
            outcome.problems.append(f"{point.key}: {traceback.format_exc()}")
            continue
        recorded_alerts = recorder.count("alert")
        if recorded_alerts != result.alerts:
            failed.add(point.key)
            outcome.problems.append(
                f"alert events: {point.key}: recorded {recorded_alerts}, "
                f"result counts {result.alerts}"
            )
        outcome.obs_events += len(recorder)
        current[point.key] = {
            "config_hash": point.config_hash(),
            "metrics": result.as_metrics(),
        }
    outcome.acts = _sum_metric(current, "total_acts")
    outcome.alerts = _sum_metric(current, "alerts")
    outcome.digest = result_digest(current)
    if baseline is not None:
        with tracer.span("sweep.artifacts.check"):
            _, problems = family.check_against_baseline(
                {"points": current}, baseline, rtol=0.0, atol=0.0
            )
        outcome.problems += problems
        failed |= failed_keys(problems, [p.key for p in points])
    outcome.failed = len(failed)
    return outcome
