"""Tiny-scale tests of the benchmark itself (not of the simulator)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench.spans import (
    LAYER_METRICS,
    NULL_TRACER,
    SpanStats,
    SpanTracer,
    instrumented,
    layer_targets,
    layer_values,
    tail,
)
from perfbench.workloads import (
    PRESET_SEED,
    WORKLOADS,
    failed_keys,
    moat_points,
    run_family_workload,
    run_traced_workload,
    write_subset_baseline,
)
from repro.sweep.artifacts import write_artifact
from repro.sweep.family import get_family

ROOT = Path(__file__).resolve().parents[2]


def tiny_spec(name: str, seed: int = 0):
    """The workload's preset, re-seeded and shrunk to milliseconds."""
    spec = WORKLOADS[name].spec(seed)
    if name == "table7":
        return spec.with_overrides(n_trefi=16, workloads=("roms",))
    return spec.with_overrides(n_trefi=8)


def run_tiny(name, tmp_path, seed=0, baseline=None, tracer=NULL_TRACER):
    workload = WORKLOADS[name]
    spec = tiny_spec(name, seed)
    if workload.traced:
        return run_traced_workload(
            moat_points(spec), tmp_path, baseline, {}, tracer
        )
    return run_family_workload(
        get_family(workload.family), spec, tmp_path / "cache", baseline,
        "test", tracer,
    )


def write_tiny_baseline(name: str, tmp_path: Path) -> Path:
    """A baseline written from a tiny run (what ``--write-baseline``
    would commit at this scale)."""
    workload = WORKLOADS[name]
    family = get_family(workload.family)
    spec = tiny_spec(name)
    result = family.run(spec, jobs=1, cache_dir=None)
    path = tmp_path / "baseline.json"
    write_artifact(path, family.make_artifact(result, git_rev="test"))
    if workload.traced:
        keys = {point.key for point in moat_points(spec)}
        path = write_subset_baseline(path, keys, tmp_path / "subset.json")
    return path


def perturb(path: Path) -> None:
    data = json.loads(path.read_text())
    point = next(iter(data["points"].values()))
    point["metrics"]["total_acts"] += 1.0
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_driver_runs_shrunk_spec(name, tmp_path):
    outcome = run_tiny(name, tmp_path)
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.problems
    assert outcome.acts > 0
    assert outcome.digest
    if WORKLOADS[name].traced:
        assert outcome.obs_events > 0
        assert len(list(tmp_path.glob("*.obs.json"))) == outcome.attempted


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_baseline_fails_points(name, tmp_path):
    baseline = write_tiny_baseline(name, tmp_path)
    clean = run_tiny(name, tmp_path / "clean", baseline=baseline)
    assert clean.failed == 0, clean.problems
    perturb(baseline)
    dirty = run_tiny(name, tmp_path / "dirty", baseline=baseline)
    assert dirty.failed == 1
    assert dirty.failed / dirty.attempted > 0


def test_unreadable_baseline_fails_every_point(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{not json")
    outcome = run_tiny("mc-policy", tmp_path, baseline=baseline)
    assert outcome.failed == outcome.attempted


def test_failed_keys_attributes_problems_to_points():
    keys = ["a|seed=1", "a|seed=10"]
    problems = ["metric regression: a|seed=1: alerts = 2 (baseline 1)"]
    assert failed_keys(problems, keys) == {"a|seed=1"}
    assert failed_keys(["unreadable baseline: x"], keys) == set(keys)
    assert failed_keys([], keys) == set()


@pytest.mark.parametrize("name", ["mc-policy", "mc-abo-traced"])
def test_seed_digest_repeats(name, tmp_path):
    first = run_tiny(name, tmp_path / "one", seed=3)
    second = run_tiny(name, tmp_path / "two", seed=3)
    other = run_tiny(name, tmp_path / "three", seed=4)
    assert first.digest == second.digest
    assert first.digest != other.digest


def test_preset_seed_matches_committed_baselines():
    for workload in WORKLOADS.values():
        assert workload.spec(PRESET_SEED) == workload.spec()
        assert workload.baseline_path(ROOT).is_file()


@pytest.mark.parametrize(
    "name, fast_path_frac",
    [("mc-policy", 1.0), ("system-qos", 0.0), ("table7", 0.0)],
)
def test_traced_run_self_times_and_layers(name, fast_path_frac, tmp_path):
    tracer = SpanTracer()
    with instrumented(tracer):
        with tracer.span("bench.workload"):
            outcome = run_tiny(name, tmp_path, tracer=tracer)
    assert outcome.failed == 0
    stats = SpanStats(tracer)
    assert stats.self_times and min(stats.self_times) >= 0.0
    values = layer_values(tracer, outcome.alerts, outcome.obs_events)
    assert set(values) | {"trace.overhead_frac"} == {
        metric.name for metric in LAYER_METRICS
    }
    assert values["mc.controller.fast_path_frac"] == fast_path_frac
    assert values["sim.engine.alerts"] == outcome.alerts
    if name == "system-qos":
        assert values["mc.sched.pick_calls"] > 0
    if name == "table7":
        assert values["sim.perf.passes_per_point"] >= 1.0
        assert values["sweep.runner.points"] == outcome.attempted
    tracer.write(tmp_path / "spans.json.gz")


def test_instrumentation_restores_entry_points():
    before = [vars(owner)[attr] for owner, attr, _, _ in layer_targets()]
    with instrumented(SpanTracer()):
        pass
    after = [vars(owner)[attr] for owner, attr, _, _ in layer_targets()]
    assert before == after


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(81)]
    assert tail(samples) == 70.0
    assert tail([1.0, 3.0, 2.0]) == 3.0
    assert tail([]) == 0.0


def record(digest="d", failed=0, wall=2.0):
    return {"digest": digest, "attempted": 3, "failed": failed,
            "wall_s": wall, "acts": 10, "peak_rss_mb": 50.0,
            "setup_s": 0.5, "provenance": {}}


def test_summary_counts_disagreeing_repetitions_as_failed():
    runs = {"setups": [0.4], "traced": [],
            "plain": [record(), record(digest="e")]}
    summary = bench_run.summarize(runs, trace=False)
    assert summary["attempted"] == 6
    assert summary["failed"] == 3
    assert not summary["correct"]
    assert summary["metrics"]["acts_per_s"]["value"] == 5.0
    assert summary["metrics"]["setup_s"]["value"] == 0.5


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench_run.END_TO_END_UNITS
