"""Parallel experiment orchestration for the reproduction harness.

``repro.sweep`` turns the one-off per-figure pytest drivers into a
declarative, cacheable, parallel evaluation backbone:

* :mod:`repro.sweep.spec` — grid specs over workload x ATH x ETH x ABO
  level x mitigation policy, with named presets for every paper
  figure/table (``fig11``, ``fig17``, ``table5``, ``table6``,
  ``table7``, ``ablation``).
* :mod:`repro.sweep.attack_spec` — attack grids over
  :class:`~repro.attacks.registry.AttackSpec` x sub-channels, with
  named presets for every paper security figure (``fig5``, ``fig10``,
  ``fig13``, ``tsa``, ``feinting``, ``postponement``).
* :mod:`repro.sweep.model_spec` / :mod:`repro.sweep.mc_spec` /
  :mod:`repro.sweep.system_spec` — analytic model grids, closed-loop
  memory-controller grids and named multi-client system scenarios.
* :mod:`repro.sweep.runner` — the ``ProcessPoolExecutor``-based cache
  core (per-point results cached by config hash, deterministic
  seeding so parallel == serial, resume-on-rerun) and the one result
  codec, :class:`PointResult` / :class:`SweepResult`. Each family's
  point executor lives in its ``*_runner`` module.
* :mod:`repro.sweep.artifacts` — schemas, gated metrics, artifact I/O
  and baseline diffing for CI gating (``repro <family> sweep <preset>
  --check``).
* :mod:`repro.sweep.family` — the :class:`~repro.sweep.family.
  SweepFamily` registry: per family, its spec class, presets,
  executor, identity columns, aggregates, table columns, schema,
  gated metrics and baseline prefix. Runs (``family.run``), artifacts
  (``family.make_artifact``), gates and the CLI derive from it.
"""

from repro.sweep.artifacts import (
    ATTACK_SCHEMA,
    MC_SCHEMA,
    MODEL_SCHEMA,
    SCHEMA,
    SYSTEM_SCHEMA,
    check_against_baseline,
    diff_artifacts,
    load_artifact,
    write_artifact,
)
from repro.sweep.attack_spec import (
    ATTACK_PRESETS,
    AttackSweepPoint,
    AttackSweepSpec,
    attack_preset,
)
from repro.sweep.runner import PointResult, SweepPointError, SweepResult
from repro.sweep.spec import (
    PRESETS,
    SWEEP_WORKLOADS,
    SweepPoint,
    SweepSpec,
    preset,
)
from repro.sweep.system_spec import (
    SYSTEM_PRESETS,
    SystemSweepPoint,
    SystemSweepSpec,
    system_preset,
)

# Last: the registry imports every family's spec/runner modules above.
from repro.sweep.family import FAMILIES, SweepFamily, get_family

__all__ = [
    "ATTACK_PRESETS",
    "ATTACK_SCHEMA",
    "FAMILIES",
    "MC_SCHEMA",
    "MODEL_SCHEMA",
    "PRESETS",
    "SCHEMA",
    "SWEEP_WORKLOADS",
    "SYSTEM_PRESETS",
    "SYSTEM_SCHEMA",
    "AttackSweepPoint",
    "AttackSweepSpec",
    "PointResult",
    "SweepFamily",
    "SweepPoint",
    "SweepPointError",
    "SweepResult",
    "SweepSpec",
    "SystemSweepPoint",
    "SystemSweepSpec",
    "attack_preset",
    "check_against_baseline",
    "diff_artifacts",
    "get_family",
    "load_artifact",
    "preset",
    "system_preset",
    "write_artifact",
]
