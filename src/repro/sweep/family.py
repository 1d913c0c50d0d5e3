"""The sweep-family registry: what differs between the five families.

Five artifact families — perf, attack, model, mc, system — share one
execution/caching/gating stack: spec → points → ``run_cached_grid`` →
:class:`~repro.sweep.runner.PointResult` →
:class:`~repro.sweep.runner.SweepResult` → artifact → baseline gate.
A :class:`SweepFamily` declares only what genuinely differs between
them, and :data:`FAMILIES` registers all five, so the runner, the
artifact builder, the baseline gate, the CLI tables and the report
pipeline are derived from one table:

* its spec class, preset table and point executor;
* its schema id, gated metrics and baseline/artifact file naming;
* its identity columns — the resolved grid coordinates each point
  records next to its metrics;
* its ``aggregates`` reduction over the points;
* its CLI table columns and listing titles.

Hashes, keys, cache entries and artifact layouts do not depend on the
registry: the committed baselines pass ``--check`` at zero tolerance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import (
    Any, Callable, Dict, Mapping, Optional, Sequence, Tuple,
)

from repro.sweep import artifacts as _artifacts
from repro.sweep import attack_runner, mc_runner, model_runner
from repro.sweep import runner, system_runner
from repro.sweep.artifacts import (
    ATTACK_GATED_METRICS,
    ATTACK_SCHEMA,
    BASELINE_DIR,
    GATED_METRICS,
    MC_GATED_METRICS,
    MC_SCHEMA,
    MODEL_GATED_METRICS,
    MODEL_SCHEMA,
    SCHEMA,
    SYSTEM_GATED_METRICS,
    SYSTEM_SCHEMA,
    git_revision,
    git_toplevel,
    utc_now,
)
from repro.sweep.attack_spec import ATTACK_PRESETS, AttackSweepSpec
from repro.sweep.mc_spec import MC_PRESETS, McSweepSpec
from repro.sweep.model_spec import MODEL_PRESETS, ModelSweepSpec
from repro.sweep.runner import (
    CACHE_ROOT,
    PointResult,
    ProgressFn,
    SweepResult,
    run_cached_grid,
    wall_timer,
)
from repro.sweep.spec import PRESETS, SweepSpec
from repro.sweep.system_spec import SYSTEM_PRESETS, SystemSweepSpec

Aggregates = Callable[[Sequence[PointResult]], Dict[str, float]]


@dataclass(frozen=True)
class Column:
    """One column of a family's ``<family> sweep`` summary table.

    Attributes:
        header: Column heading.
        cell: ``point result -> cell`` for each point row.
        footer: ``aggregates -> cell`` for the closing summary row; a
            table shows that row when any column declares one.
    """

    header: str
    cell: Callable[[PointResult], Any]
    footer: Optional[Callable[[Dict[str, float]], Any]] = None


@dataclass(frozen=True)
class SweepFamily:
    """One sweep family's declarative surface.

    Attributes:
        name: Registry key and CLI command name.
        schema: Artifact schema id (``"repro.<family>/v1"``).
        baseline_prefix: Committed-baseline filename prefix (the perf
            family predates prefixes and uses ``""``).
        bench_prefix: Artifact filename infix
            (``BENCH_<bench_prefix>_<preset>.json``; the perf family
            predates the registry and spells it ``sweep``).
        description: One-line summary (CLI help).
        list_title: Title of the ``list-presets`` table.
        table_title: Title stem of the ``<family> sweep`` table.
        spec_type: The family's spec dataclass.
        presets: Named preset table (``name -> spec``).
        executor: ``(module, function name)`` of the point executor.
            It is looked up when a sweep runs, not stored, so a
            module attribute patched after import (instrumentation,
            tests) is the one that runs.
        identity: Identity columns of one point, in artifact order
            (the artifact is serialized with sorted keys).
        aggregates: Cross-point reduction (artifact ``aggregates``).
        columns: Summary-table columns; a ``time`` column follows.
        gated_metrics: Metrics the baseline gate compares; ``None``
            gates every metric recorded in the baseline (the model and
            system convention).
        cache_subdir: Point-cache subdirectory under a cache root.
        top_fields: Family-specific top-level artifact fields drawn
            from the spec (scale/seed provenance).
    """

    name: str
    schema: str
    baseline_prefix: str
    bench_prefix: str
    description: str
    list_title: str
    table_title: str
    spec_type: type
    presets: Mapping[str, Any]
    executor: Tuple[ModuleType, str]
    identity: Tuple[str, ...]
    aggregates: Aggregates
    columns: Tuple[Column, ...]
    gated_metrics: Optional[Tuple[str, ...]]
    cache_subdir: str
    top_fields: Callable[[Any], Dict[str, Any]]

    def preset(self, name: str) -> Any:
        """Look up a preset by name with a helpful error."""
        try:
            return self.presets[name]
        except KeyError:
            known = ", ".join(sorted(self.presets))
            raise KeyError(
                f"unknown {self.name} preset {name!r}; known: {known}"
            ) from None

    @property
    def default_cache_dir(self) -> Path:
        """The point cache used when no other location is given."""
        return CACHE_ROOT / self.cache_subdir

    def run(
        self,
        spec: Any,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        progress: Optional[ProgressFn] = None,
    ) -> SweepResult:
        """Execute every point of ``spec``; parallel when ``jobs > 1``.

        Args:
            spec: The grid to run (a :attr:`spec_type` instance).
            jobs: Worker processes (``1`` = serial, in-process).
            cache_dir: Per-point result cache; ``None`` disables
                caching.
            progress: Optional callback receiving one line per
                finished point (``[done/total] key (cached|12.3s)``).

        Raises:
            SweepPointError: A point's executor raised.
        """
        started = wall_timer()
        module, function = self.executor
        cache_stats: Dict[str, object] = {}
        results = run_cached_grid(
            spec.points(),
            getattr(module, function),
            partial(PointResult.from_json, columns=self.identity),
            jobs=jobs,
            cache_dir=cache_dir,
            progress=progress,
            stats=cache_stats,
        )
        return SweepResult(
            family=self,
            spec=spec,
            results=results,
            wall_clock_s=wall_timer() - started,
            jobs=jobs,
            cache_stats=cache_stats,
        )

    def baseline_name(self, preset_name: str) -> str:
        """Committed baseline filename for a preset."""
        return f"{self.baseline_prefix}{preset_name}.json"

    def default_baseline_path(
        self, preset_name: str, root: Optional[Path] = None
    ) -> Path:
        """Committed baseline location for a preset (``--check``)."""
        base = Path(root) if root is not None else Path(".")
        return base / BASELINE_DIR / self.baseline_name(preset_name)

    def resolve_baseline_path(
        self, preset_name: str, root: Optional[Path] = None
    ) -> Path:
        """A preset's committed baseline: under ``root`` when given,
        else under the CWD when it is there, else under the git
        toplevel — so the installed ``repro`` script finds the
        checkout's baselines from any working directory inside it."""
        if root is not None:
            return self.default_baseline_path(preset_name, root=root)
        path = self.default_baseline_path(preset_name)
        if not path.is_file():
            toplevel = git_toplevel()
            if toplevel is not None:
                return self.default_baseline_path(preset_name, root=toplevel)
        return path

    def make_artifact(
        self,
        result: SweepResult,
        git_rev: Optional[str] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Serialize a sweep result into this family's schema.

        The layout (schema, provenance, timing, aggregates, keyed
        points) is shared by every family; the family contributes its
        ``top_fields`` and each point's ``identity`` columns.

        ``provenance`` (a :func:`repro.obs.run_provenance` block,
        carrying the run's backend/git/cache identity) is added as a
        separate top-level key only when given: the baseline gate
        compares ``points`` only, and omitting the key keeps artifacts
        written without it byte-identical to earlier releases.
        """
        spec = result.spec
        artifact: Dict[str, Any] = {
            "schema": self.schema,
            "preset": spec.name,
            "description": spec.description,
            "sweep_hash": spec.sweep_hash(),
            "git_rev": git_revision() if git_rev is None else git_rev,
            "created_utc": utc_now(),
        }
        artifact.update(self.top_fields(spec))
        artifact.update(
            {
                "jobs": result.jobs,
                "wall_clock_s": round(result.wall_clock_s, 3),
                "compute_time_s": round(result.compute_time_s, 3),
                "cache_hits": result.cache_hits,
                "aggregates": result.aggregates(),
                "points": {
                    r.key: {
                        "config_hash": r.config_hash,
                        # Copies: callers may mutate artifacts
                        # (baseline editing) without corrupting the
                        # live results.
                        **{column: copy.copy(r.identity[column])
                           for column in self.identity},
                        "metrics": dict(r.metrics),
                        "wall_clock_s": round(r.wall_clock_s, 3),
                    }
                    for r in result.results
                },
            }
        )
        if provenance is not None:
            artifact["provenance"] = provenance
        return artifact

    def check_against_baseline(
        self,
        artifact: Dict[str, Any],
        baseline_path: Path,
        rtol: float = _artifacts.DEFAULT_RTOL,
        atol: float = _artifacts.DEFAULT_ATOL,
    ) -> Tuple[bool, list]:
        """Gate an artifact on a baseline with this family's schema
        and gated-metric set."""
        return _artifacts.check_against_baseline(
            artifact,
            baseline_path,
            rtol=rtol,
            atol=atol,
            schema=self.schema,
            gated_metrics=self.gated_metrics,
        )


def _mean(results: Sequence[PointResult], metric: str) -> float:
    return sum(r.metrics.get(metric, 0.0) for r in results) / len(results)


def _total(results: Sequence[PointResult], metric: str) -> float:
    return sum(r.metrics.get(metric, 0.0) for r in results)


def _perf_aggregates(results: Sequence[PointResult]) -> Dict[str, float]:
    if not results:
        return {}
    gmean = 1.0
    for r in results:
        gmean *= max(r.metrics.get("normalized_performance", 1.0), 1e-12)
    return {
        "points": float(len(results)),
        "avg_slowdown": _mean(results, "slowdown"),
        "avg_alerts_per_trefi": _mean(results, "alerts_per_trefi"),
        "gmean_normalized_performance": gmean ** (1.0 / len(results)),
    }


def _attack_aggregates(results: Sequence[PointResult]) -> Dict[str, float]:
    if not results:
        return {}
    return {
        "points": float(len(results)),
        "total_alerts": _total(results, "alerts"),
        "max_acts_on_attack_row": max(
            r.metrics.get("acts_on_attack_row", 0.0) for r in results
        ),
        "max_danger": max(r.metrics.get("max_danger", 0.0) for r in results),
    }


def _model_aggregates(results: Sequence[PointResult]) -> Dict[str, float]:
    return {"points": float(len(results))}


def _latency_aggregates(results: Sequence[PointResult]) -> Dict[str, float]:
    """The mc and system families' reduction."""
    if not results:
        return {}
    return {
        "points": float(len(results)),
        "avg_read_p99_ns": _mean(results, "read_p99_ns"),
        "avg_achieved_gbps": _mean(results, "achieved_gbps"),
        "avg_stall_fraction": _mean(results, "stall_fraction"),
        "total_alerts": _total(results, "alerts"),
    }


def _field(
    name: str, fmt: Optional[str] = None
) -> Callable[[PointResult], Any]:
    """Cell showing an identity column, through ``fmt`` when given
    (unformatted numbers render with thousands separators)."""
    if fmt is None:
        return lambda r: r.identity[name]
    return lambda r: fmt.format(r.identity[name])


def _metric(name: str, fmt: str) -> Callable[[PointResult], str]:
    """Cell showing a metric through ``fmt``."""
    return lambda r: format(r.metrics[name], fmt)


def _tput_loss(r: PointResult) -> str:
    # Absence of the metric is not a measured zero: only the
    # throughput attacks (kernels, TSA) report a loss at all.
    loss = r.metrics.get("detail:throughput_loss")
    return "-" if loss is None else f"{loss * 100:.1f}%"


def _param_summary(r: PointResult) -> str:
    params = r.identity["params"]
    if not params:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))


PERF_FAMILY = SweepFamily(
    name="sweep",
    bench_prefix="sweep",
    schema=SCHEMA,
    baseline_prefix="",
    description="Open-loop performance sweeps over the Table 4 "
    "workloads (slowdown, ALERT rate, mitigation volume)",
    list_title="Sweep presets",
    table_title="Sweep",
    spec_type=SweepSpec,
    presets=PRESETS,
    executor=(runner, "execute_point"),
    identity=("workload", "policy", "ath", "eth", "abo_level",
              "trefi_per_mitigation"),
    aggregates=_perf_aggregates,
    columns=(
        Column("workload", _field("workload"), lambda agg: "AVERAGE"),
        Column("policy", _field("policy")),
        Column("ATH", _field("ath")),
        Column("ETH", _field("eth")),
        Column("level", _field("abo_level", "L{}")),
        Column("slowdown", lambda r: f"{r.metrics['slowdown'] * 100:.3f}%",
               lambda agg: f"{agg['avg_slowdown'] * 100:.3f}%"),
        Column("ALERT/tREFI", _metric("alerts_per_trefi", ".4f"),
               lambda agg: f"{agg['avg_alerts_per_trefi']:.4f}"),
    ),
    gated_metrics=GATED_METRICS,
    cache_subdir="sweep",
    top_fields=lambda spec: {"n_trefi": spec.n_trefi, "seed": spec.seed},
)

ATTACK_FAMILY = SweepFamily(
    name="attack",
    bench_prefix="attack",
    schema=ATTACK_SCHEMA,
    baseline_prefix="attack_",
    description="Security sweeps over registered attack kinds "
    "(max danger, ALERTs, attack throughput)",
    list_title="Attack sweep presets",
    table_title="Attack sweep",
    spec_type=AttackSweepSpec,
    presets=ATTACK_PRESETS,
    executor=(attack_runner, "execute_attack_point"),
    identity=("attack", "kind", "figure", "subchannels", "params"),
    aggregates=_attack_aggregates,
    columns=(
        Column("attack", _field("attack")),
        Column("paper", _field("figure")),
        Column("attack-row ACTs",
               lambda r: f"{r.metrics.get('acts_on_attack_row', 0.0):.0f}"),
        Column("max danger",
               lambda r: f"{r.metrics.get('max_danger', 0.0):.0f}"),
        Column("ALERTs", lambda r: f"{r.metrics.get('alerts', 0.0):.0f}"),
        Column("tput loss", _tput_loss),
    ),
    gated_metrics=ATTACK_GATED_METRICS,
    cache_subdir="attack",
    top_fields=lambda spec: {"seed": spec.seed},
)

MODEL_FAMILY = SweepFamily(
    name="model",
    bench_prefix="model",
    schema=MODEL_SCHEMA,
    baseline_prefix="model_",
    description="Analytic model sweeps (closed-form tables: safe TRH, "
    "throughput bounds, mitigation rates)",
    list_title="Model sweep presets",
    table_title="Model sweep",
    spec_type=ModelSweepSpec,
    presets=MODEL_PRESETS,
    executor=(model_runner, "execute_model_point"),
    identity=("kind", "params"),
    aggregates=_model_aggregates,
    columns=(
        Column("kind", _field("kind")),
        Column("parameters", _param_summary),
        Column("metrics", lambda r: len(r.metrics)),
    ),
    gated_metrics=MODEL_GATED_METRICS,
    cache_subdir="model",
    top_fields=lambda spec: {},
)

MC_FAMILY = SweepFamily(
    name="mc",
    bench_prefix="mc",
    schema=MC_SCHEMA,
    baseline_prefix="mc_",
    description="Closed-loop memory-controller sweeps (read latency "
    "percentiles, bandwidth, queue occupancy)",
    list_title="Memory-controller sweep presets",
    table_title="MC sweep",
    spec_type=McSweepSpec,
    presets=MC_PRESETS,
    executor=(mc_runner, "execute_mc_point"),
    identity=("workload", "policy", "ath", "eth", "abo_level", "scheduler",
              "row_policy", "queue_depth", "subchannels", "banks"),
    aggregates=_latency_aggregates,
    columns=(
        Column("workload", _field("workload")),
        Column("policy", _field("policy")),
        Column("level", _field("abo_level", "L{}")),
        Column("MC", lambda r: "{scheduler}/{row_policy}".format(
            **r.identity)),
        Column("p50 ns", _metric("read_p50_ns", ".0f")),
        Column("p99 ns", _metric("read_p99_ns", ".0f")),
        Column("GB/s", _metric("achieved_gbps", ".2f")),
        Column("ALERT/tREFI", _metric("alerts_per_trefi", ".3f")),
    ),
    gated_metrics=MC_GATED_METRICS,
    cache_subdir="mc",
    top_fields=lambda spec: {"n_trefi": spec.n_trefi, "seed": spec.seed},
)

SYSTEM_FAMILY = SweepFamily(
    name="system",
    bench_prefix="system",
    schema=SYSTEM_SCHEMA,
    baseline_prefix="system_",
    description="Multi-client, multi-channel system scenarios "
    "(per-client latency tails, noisy-neighbor contrasts)",
    list_title="System sweep presets",
    table_title="System sweep",
    spec_type=SystemSweepSpec,
    presets=SYSTEM_PRESETS,
    executor=(system_runner, "execute_system_point"),
    identity=("scenario", "clients", "policy", "scheduler", "ath", "eth",
              "abo_level", "channels", "banks", "n_trefi", "seed"),
    aggregates=_latency_aggregates,
    columns=(
        Column("scenario", _field("scenario")),
        Column("clients", lambda r: len(r.identity["clients"])),
        Column("policy", _field("policy")),
        Column("channels", _field("channels", "ch{}")),
        Column("p50 ns", _metric("read_p50_ns", ".0f")),
        Column("p99 ns", _metric("read_p99_ns", ".0f")),
        Column("GB/s", _metric("achieved_gbps", ".2f")),
        Column("ALERTs", _metric("alerts", ".0f")),
    ),
    gated_metrics=SYSTEM_GATED_METRICS,
    cache_subdir="system",
    # Scenarios carry their own scale/seed (no spec-level n_trefi).
    top_fields=lambda spec: {},
)

#: All registered families, in introduction order.
FAMILIES: Dict[str, SweepFamily] = {
    family.name: family
    for family in (
        PERF_FAMILY,
        ATTACK_FAMILY,
        MODEL_FAMILY,
        MC_FAMILY,
        SYSTEM_FAMILY,
    )
}


def get_family(name: str) -> SweepFamily:
    """Look up a registered family by name with a helpful error."""
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(FAMILIES)
        raise KeyError(
            f"unknown sweep family {name!r}; known: {known}"
        ) from None
