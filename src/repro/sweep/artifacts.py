"""Machine-readable sweep artifacts and baseline gating.

Every sweep family writes the same artifact layout (built by
:meth:`repro.sweep.family.SweepFamily.make_artifact`) under its own
schema id, and is gated by :func:`check_against_baseline` on its own
metric set. The schemas and gated-metric sets live here: perf sweeps
(:data:`SCHEMA`, :data:`GATED_METRICS`), attack sweeps
(:data:`ATTACK_SCHEMA`, :data:`ATTACK_GATED_METRICS`), analytic model
sweeps (:data:`MODEL_SCHEMA`, gating every baseline metric),
closed-loop memory-controller sweeps (:data:`MC_SCHEMA`,
:data:`MC_GATED_METRICS`) and multi-client system sweeps
(:data:`SYSTEM_SCHEMA`, gating every baseline metric). A performance
artifact looks like:

.. code-block:: json

    {
      "schema": "repro.sweep/v1",
      "preset": "fig11",
      "sweep_hash": "0123abcd...",
      "git_rev": "f80eac4",
      "created_utc": "2026-07-29T12:00:00Z",
      "n_trefi": 512,
      "seed": 0,
      "jobs": 2,
      "wall_clock_s": 41.7,
      "aggregates": {"avg_slowdown": 0.0016, "...": 0},
      "points": {
        "roms|moat|ath=64|...": {
          "config_hash": "8a9b...",
          "metrics": {"slowdown": 0.002, "...": 0},
          "wall_clock_s": 1.9
        }
      }
    }

``diff_artifacts`` compares a fresh run against a committed baseline:
every point of the run must exist in the baseline with an identical
config hash (otherwise the comparison would be apples-to-oranges) and
every recorded metric must match within tolerance. The simulator is
fully deterministic, so the default tolerances are generous enough to
survive benign floating-point reassociation yet far below any real
behavioral regression.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SCHEMA = "repro.sweep/v1"

#: Schema of ``BENCH_attack.json`` artifacts (attack sweeps).
ATTACK_SCHEMA = "repro.attack/v1"

#: Schema of ``BENCH_model.json`` artifacts (analytic model sweeps).
MODEL_SCHEMA = "repro.model/v1"

#: Schema of ``BENCH_mc.json`` artifacts (closed-loop memory-controller
#: sweeps).
MC_SCHEMA = "repro.mc/v1"

#: Schema of ``BENCH_system.json`` artifacts (multi-client system
#: sweeps).
SYSTEM_SCHEMA = "repro.system/v1"

#: Default relative location of committed baselines.
BASELINE_DIR = Path("benchmarks") / "baselines"

#: Metrics that gate the baseline check. Wall-clock is recorded but
#: never gated (machine-dependent).
GATED_METRICS = (
    "alerts",
    "alerts_per_trefi",
    "slowdown",
    "normalized_performance",
    "mitigations_per_trefw_per_bank",
    "activation_overhead",
    "total_acts",
    "proactive_mitigations",
    "reactive_mitigations",
)

#: Model artifacts gate on ``None``: every metric recorded in the
#: baseline is checked (the evaluators are pure functions, so any
#: metric they emit is a stable, gateable quantity).
MODEL_GATED_METRICS = None

#: Gated metrics of attack artifacts. Everything a deterministic
#: attack reports is gateable; per-attack ``detail:`` metrics missing
#: from a point are simply skipped by the diff.
ATTACK_GATED_METRICS = (
    "acts_on_attack_row",
    "max_danger",
    "alerts",
    "total_acts",
    "elapsed_ns",
    "throughput",
    "detail:throughput_loss",
    "detail:normalized_throughput",
    "detail:baseline_ns",
    "detail:survivors",
)

#: Gated metrics of mc artifacts. The closed-loop simulations are
#: fully deterministic (request streams and stochastic policies derive
#: from the point config), so every latency/bandwidth/queueing metric
#: is gateable; wall-clock stays ungated as always.
MC_GATED_METRICS = (
    "requests",
    "reads",
    "read_mean_ns",
    "read_p50_ns",
    "read_p99_ns",
    "read_max_ns",
    "avg_queue_ns",
    "avg_queue_occupancy",
    "achieved_gbps",
    "requests_per_trefi",
    "row_hit_rate",
    "alerts",
    "alerts_per_trefi",
    "stall_fraction",
    "total_acts",
)

#: System artifacts gate on ``None``, like the model family: the
#: per-client metric columns (``"{client}:read_p99_ns"`` …) vary by
#: scenario, so the gate checks every metric the baseline recorded —
#: the runs are fully deterministic, hence all of them are gateable.
SYSTEM_GATED_METRICS = None

DEFAULT_RTOL = 0.05
DEFAULT_ATOL = 1e-6


def utc_now() -> str:
    """ISO-8601 UTC timestamp used across artifacts and summaries."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def git_revision(cwd: Optional[Path] = None) -> str:
    """Revision of the repro checkout, or ``"unknown"``.

    Anchored at this module's location (not the process CWD) so
    artifacts record the provenance of the *code that produced them*,
    even when ``repro`` runs from inside an unrelated repository; a
    site-packages install correctly reports ``"unknown"``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd or Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def git_describe(cwd: Optional[Path] = None) -> str:
    """``git describe --always --dirty`` of the checkout, or ``"unknown"``.

    Richer than :func:`git_revision` — provenance blocks use it to
    record distance from the last tag and whether the working tree was
    dirty when the artifact was produced. Anchored at this module's
    location for the same reason.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd or Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def git_toplevel(cwd: Optional[Path] = None) -> Optional[Path]:
    """Root of the repro checkout, or ``None`` for non-repo installs.

    Anchored at this module's location by default (see
    :func:`git_revision`), so baseline resolution finds the checkout's
    ``benchmarks/baselines/`` regardless of the process CWD.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=cwd or Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        top = out.stdout.strip()
        return Path(top) if top else None
    except (OSError, subprocess.SubprocessError):
        return None


def write_artifact(path: Path, artifact: Dict) -> None:
    """Write ``json.dumps(artifact, indent=1, sort_keys=True)`` and a
    newline to ``path``, atomically.

    A value with a ``json_chunks(indent)`` method is written as the
    chunks it yields: its own encoding of the plain value it stands
    for, laid out on a line indented by ``indent`` spaces (see
    :class:`repro.obs.encoding.JsonRows`). Everything else goes through
    the stdlib encoder. The text goes to a temporary file beside
    ``path`` that replaces ``path`` only once complete, so a write
    that fails or is interrupted leaves an existing file as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    spliced = []

    def default(value):
        chunks = getattr(value, "json_chunks", None)
        if chunks is None:
            raise TypeError(f"Object of type {type(value).__name__} "
                            f"is not JSON serializable")
        spliced.append(chunks)
        # The encoder yields this placeholder's "null" next; it is
        # replaced by the value's own chunks below.
        return None

    encoder = json.JSONEncoder(indent=1, sort_keys=True, default=default)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as out:
            indent = 0
            for chunk in encoder.iterencode(artifact):
                if spliced:
                    out.writelines(spliced.pop()(indent))
                    continue
                newline = chunk.rfind("\n")
                if newline >= 0:
                    line = chunk[newline + 1:]
                    indent = len(line) - len(line.lstrip(" "))
                out.write(chunk)
            out.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_artifact(path: Path, schema: str = SCHEMA) -> Dict:
    """Read a ``schema`` artifact; ``ValueError`` on anything else.

    A top level or ``points`` block that is not a JSON object is
    rejected here, so a malformed baseline fails the gate with a
    problem line rather than a crash inside the diff.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(
            f"{path}: artifact top level is a JSON "
            f"{type(data).__name__}, not an object"
        )
    if data.get("schema") != schema:
        raise ValueError(
            f"{path}: unsupported artifact schema {data.get('schema')!r} "
            f"(expected {schema!r})"
        )
    if not isinstance(data.get("points", {}), dict):
        raise ValueError(f"{path}: artifact 'points' is not an object")
    return data


def diff_artifacts(
    baseline: Dict,
    current: Dict,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    gated_metrics: Optional[Tuple[str, ...]] = GATED_METRICS,
) -> List[str]:
    """Compare ``current`` against ``baseline``; returns problems.

    An empty list means the run matches the baseline. Problems are
    human-readable strings: missing points, config-hash drift, or
    out-of-tolerance metrics. ``gated_metrics=None`` gates every metric
    recorded in the baseline point (the model-family convention).
    """
    problems: List[str] = []
    base_points = baseline.get("points", {})
    current_points = current.get("points", {})
    # Coverage must not shrink: a run that silently drops grid points
    # (workload subset, narrowed axes) may not pass the gate.
    for key in base_points:
        if key not in current_points:
            problems.append(
                f"missing from run: {key} (baseline covers this point; "
                "the run's grid shrank)"
            )
    for key, point in current_points.items():
        base = base_points.get(key)
        if base is None:
            problems.append(
                f"missing from baseline: {key} (baseline was written for a "
                "different scale/grid; regenerate with --write-baseline)"
            )
            continue
        if base.get("config_hash") != point.get("config_hash"):
            problems.append(
                f"config drift: {key} hashed {point.get('config_hash')} but "
                f"baseline has {base.get('config_hash')} (simulator or "
                "generator semantics changed; regenerate the baseline)"
            )
            continue
        metrics_to_gate = (
            tuple(base.get("metrics", {})) if gated_metrics is None
            else gated_metrics
        )
        for metric in metrics_to_gate:
            if metric not in base.get("metrics", {}):
                continue
            got_raw = point.get("metrics", {}).get(metric)
            try:
                want = float(base["metrics"][metric])
                got = float("nan") if got_raw is None else float(got_raw)
            except (TypeError, ValueError):
                # Hand-edited values like "0.5%" fail the gate with a
                # problem line, never a traceback.
                problems.append(
                    f"unparseable metric: {key}: {metric} = {got_raw!r} "
                    f"(baseline {base['metrics'][metric]!r})"
                )
                continue
            # NaN compares False against every tolerance, so it must
            # fail explicitly — a missing or NaN metric is a gate
            # failure, never a silent pass.
            if math.isnan(got) or math.isnan(want):
                problems.append(
                    f"metric missing or NaN: {key}: {metric} = {got_raw!r} "
                    f"(baseline {base['metrics'][metric]!r})"
                )
                continue
            if abs(got - want) > atol + rtol * abs(want):
                problems.append(
                    f"metric regression: {key}: {metric} = {got:.6g} "
                    f"(baseline {want:.6g}, rtol={rtol}, atol={atol})"
                )
    return problems


def check_against_baseline(
    artifact: Dict,
    baseline_path: Path,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    schema: str = SCHEMA,
    gated_metrics: Optional[Tuple[str, ...]] = GATED_METRICS,
) -> Tuple[bool, List[str]]:
    """Gate an already-serialized sweep artifact on a baseline file.

    ``schema`` and ``gated_metrics`` are the artifact family's
    (:meth:`repro.sweep.family.SweepFamily.check_against_baseline`
    passes them).
    """
    path = Path(baseline_path)
    if not path.is_file():
        return False, [
            f"baseline not found: {path} (generate one with "
            "`repro sweep ... --write-baseline`)"
        ]
    try:
        baseline = load_artifact(path, schema=schema)
    except (OSError, ValueError) as exc:
        # Truncated, hand-edited, or wrong-schema baselines must fail
        # the gate with a problem line, not a traceback.
        return False, [f"unreadable baseline: {exc}"]
    problems = diff_artifacts(
        baseline, artifact, rtol=rtol, atol=atol, gated_metrics=gated_metrics
    )
    return not problems, problems
