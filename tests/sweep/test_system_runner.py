"""Tests of the system sweep family: the executor's nesting rule,
legacy cache entries, and the artifact/baseline gate."""

import json

from repro.sweep.artifacts import (
    SYSTEM_SCHEMA,
    check_against_baseline,
    write_artifact,
)
from repro.sweep.family import SYSTEM_FAMILY
from repro.sweep.runner import PointResult
from repro.sweep.system_runner import execute_system_point
from repro.sweep.system_spec import (
    DUO_CLIENTS,
    SystemSweepSpec,
    system_preset,
)
from repro.mitigations.registry import PolicySpec
from repro.system import SystemRunConfig

#: Small but contended: the duo on one and two channels plus an
#: undefended control.
TINY = SystemSweepSpec(
    name="tiny",
    description="runner test grid",
    scenarios=(
        ("duo", SystemRunConfig(clients=DUO_CLIENTS, banks=2,
                                n_trefi=96)),
        ("duo-ch2", SystemRunConfig(clients=DUO_CLIENTS, channels=2,
                                    banks=2, n_trefi=96)),
        ("duo-null", SystemRunConfig(clients=DUO_CLIENTS,
                                     policy=PolicySpec("null"),
                                     banks=2, n_trefi=96)),
    ),
)


def metrics_by_key(result):
    return {r.key: r.metrics for r in result.results}


class TestRunner:
    def test_serial_results_in_spec_order(self):
        result = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=None)
        assert [r.key for r in result.results] == [
            p.key for p in TINY.points()
        ]
        assert result.aggregates()["points"] == len(TINY.points())

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=None)
        parallel = SYSTEM_FAMILY.run(TINY, jobs=3, cache_dir=None)
        assert metrics_by_key(serial) == metrics_by_key(parallel)

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        first = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=cache)
        second = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=cache)
        assert first.cache_hits == 0
        assert second.cache_hits == len(TINY.points())
        assert metrics_by_key(first) == metrics_by_key(second)

    def test_point_result_json_round_trip(self):
        result = execute_system_point(TINY.points()[0])
        revived = PointResult.from_json(
            result.to_json(), SYSTEM_FAMILY.identity, cached=True
        )
        assert revived.key == result.key
        assert revived.metrics == result.metrics
        assert revived.identity["clients"] == ["tenant0", "tenant1"]
        assert revived.cached

    def test_points_run_serially_and_uncached(self, tmp_path, monkeypatch):
        from repro.sweep import system_runner

        calls = []
        original = system_runner.run_system

        def spy(config, jobs, cache_dir):
            calls.append((jobs, cache_dir))
            return original(config, jobs=jobs, cache_dir=cache_dir)

        monkeypatch.setattr(system_runner, "run_system", spy)
        SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=tmp_path)
        assert calls == [(1, None)] * len(TINY.points())

    def test_entry_without_scheduler_is_recomputed(self, tmp_path):
        """Pre-QoS entries carried no scheduler column: they are
        recomputed, never revived with a guessed one."""
        cold = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=tmp_path)
        entry = tmp_path / f"{TINY.points()[0].config_hash()}.json"
        data = json.loads(entry.read_text())
        del data["scheduler"]
        entry.write_text(json.dumps(data))
        warm = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=tmp_path)
        assert warm.cache_hits == len(TINY.points()) - 1
        assert warm.cache_stats["recomputes"] == 1
        points = [SYSTEM_FAMILY.make_artifact(r, git_rev="x")["points"]
                  for r in (cold, warm)]
        for point in (p for both in points for p in both.values()):
            point.pop("wall_clock_s")
        assert points[0] == points[1]

    def test_per_client_metrics_present(self):
        result = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=None)
        for point in result.results:
            for client in point.identity["clients"]:
                assert f"{client}:read_p99_ns" in point.metrics
                assert f"{client}:achieved_gbps" in point.metrics

    def test_mitigation_contrast(self):
        by_key = metrics_by_key(
            SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=None)
        )
        moat = [m for k, m in by_key.items() if k.startswith("duo|")]
        null = [m for k, m in by_key.items() if "|null|" in k]
        assert all(m["alerts"] > 0 for m in moat)
        assert all(m["alerts"] == 0 for m in null)


class TestArtifact:
    def test_schema_and_layout(self):
        result = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        assert artifact["schema"] == SYSTEM_SCHEMA
        assert artifact["preset"] == "tiny"
        assert set(artifact["points"]) == {p.key for p in TINY.points()}
        point = next(iter(artifact["points"].values()))
        assert {"config_hash", "scenario", "clients", "policy",
                "channels", "n_trefi", "seed", "metrics"} <= set(point)

    def test_baseline_gate_round_trip(self, tmp_path):
        result = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        baseline = tmp_path / "system_tiny.json"
        write_artifact(baseline, artifact)
        ok, problems = check_against_baseline(
            artifact, baseline, rtol=0.0, atol=0.0,
            schema=SYSTEM_SCHEMA, gated_metrics=None,
        )
        assert ok, problems

    def test_baseline_gate_catches_per_client_regression(self, tmp_path):
        """gated_metrics=None gates every metric — including the
        per-client prefixed tails."""
        result = SYSTEM_FAMILY.run(TINY, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        baseline_data = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        key = next(iter(baseline_data["points"]))
        baseline_data["points"][key]["metrics"]["tenant1:read_p99_ns"] += 500.0
        baseline = tmp_path / "system_tiny.json"
        write_artifact(baseline, baseline_data)
        ok, problems = check_against_baseline(
            artifact, baseline,
            schema=SYSTEM_SCHEMA, gated_metrics=None,
        )
        assert not ok
        assert any("tenant1:read_p99_ns" in p for p in problems)


class TestNoisyPreset:
    def test_victim_p99_contrast_is_in_the_sweep(self):
        """The acceptance pin at sweep level: the noisy scenario's
        victims show measurably degraded p99 vs the quiet scenario."""
        spec = system_preset("system-noisy").with_overrides(n_trefi=256)
        by_scenario = {
            r.identity["scenario"]: r.metrics
            for r in SYSTEM_FAMILY.run(spec, jobs=2, cache_dir=None).results
        }
        for victim in ("victim0", "victim1"):
            quiet = by_scenario["quiet"][f"{victim}:read_p99_ns"]
            noisy = by_scenario["noisy"][f"{victim}:read_p99_ns"]
            assert noisy > 2.0 * quiet, (victim, quiet, noisy)
