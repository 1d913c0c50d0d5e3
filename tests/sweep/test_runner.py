"""Tests for the parallel cached sweep runner, on perf points."""

import json

import pytest

from repro.mitigations.registry import PolicySpec
from repro.sweep import runner
from repro.sweep.family import MODEL_FAMILY, PERF_FAMILY
from repro.sweep.model_runner import execute_model_point
from repro.sweep.runner import (
    PointResult,
    SweepPointError,
    execute_point,
    run_cached_grid,
)
from repro.sweep.spec import SweepSpec



def tiny_spec(**kwargs):
    defaults = dict(
        name="tiny",
        workloads=("tc", "roms"),
        n_trefi=256,
        model_cross_bank_service=False,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSerialRunner:
    def test_runs_every_point_in_order(self, tmp_path):
        spec = tiny_spec(ath=(64, 128))
        result = PERF_FAMILY.run(spec, jobs=1, cache_dir=tmp_path / "cache")
        assert [r.key for r in result.results] == [p.key for p in spec.points()]
        assert all(not r.cached for r in result.results)
        assert result.aggregates()["points"] == 4.0

    def test_metrics_match_direct_execution(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[1]  # roms: has alerts at this scale
        direct = execute_point(point)
        swept = PERF_FAMILY.run(spec, jobs=1, cache_dir=tmp_path / "c").results[1]
        assert swept.metrics == direct.metrics
        assert direct.metrics["alerts"] > 0

    def test_no_cache_dir_disables_caching(self):
        spec = tiny_spec(workloads=("tc",))
        first = PERF_FAMILY.run(spec, jobs=1, cache_dir=None)
        second = PERF_FAMILY.run(spec, jobs=1, cache_dir=None)
        assert not first.results[0].cached and not second.results[0].cached


class TestCache:
    def test_rerun_hits_cache_with_identical_metrics(self, tmp_path):
        spec = tiny_spec()
        cache = tmp_path / "cache"
        cold = PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        warm = PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(spec.points())
        assert [r.metrics for r in warm.results] == [r.metrics for r in cold.results]
        # Cached points keep their original compute time, so the
        # perf-trajectory number survives warm reruns.
        assert warm.compute_time_s == pytest.approx(cold.compute_time_s)
        assert warm.compute_time_s > warm.wall_clock_s

    def test_config_change_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        PERF_FAMILY.run(tiny_spec(), jobs=1, cache_dir=cache)
        changed = PERF_FAMILY.run(tiny_spec(seed=1), jobs=1, cache_dir=cache)
        assert changed.cache_hits == 0

    def test_partial_cache_resumes(self, tmp_path):
        cache = tmp_path / "cache"
        PERF_FAMILY.run(tiny_spec(workloads=("tc",)), jobs=1, cache_dir=cache)
        combined = PERF_FAMILY.run(tiny_spec(workloads=("tc", "roms")), jobs=1,
                             cache_dir=cache)
        assert combined.cache_hits == 1
        flags = {r.identity["workload"]: r.cached for r in combined.results}
        assert flags == {"tc": True, "roms": False}

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        spec = tiny_spec(workloads=("tc",))
        PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        entry = cache / f"{spec.points()[0].config_hash()}.json"
        entry.write_text("{not json")
        rerun = PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        assert rerun.cache_hits == 0
        # The recomputed result was re-persisted correctly.
        assert json.loads(entry.read_text())["key"] == spec.points()[0].key

    def test_hash_mismatch_in_cache_file_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        spec = tiny_spec(workloads=("tc",))
        PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        entry = cache / f"{spec.points()[0].config_hash()}.json"
        data = json.loads(entry.read_text())
        data["config_hash"] = "0" * 16
        entry.write_text(json.dumps(data))
        rerun = PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        assert rerun.cache_hits == 0


    def test_non_object_cache_entry_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        spec = tiny_spec(workloads=("tc",))
        PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        entry = cache / f"{spec.points()[0].config_hash()}.json"
        entry.write_text("[]")
        rerun = PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        assert rerun.cache_hits == 0
        assert rerun.cache_stats["recomputes"] == 1
        assert json.loads(entry.read_text())["key"] == spec.points()[0].key

    def test_entry_with_extra_columns_revives_identically(self, tmp_path):
        # Older perf/mc entries also stored n_trefi and seed.
        cache = tmp_path / "cache"
        spec = tiny_spec(workloads=("tc",))
        cold = PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        entry = cache / f"{spec.points()[0].config_hash()}.json"
        data = json.loads(entry.read_text())
        entry.write_text(json.dumps({**data, "n_trefi": 256, "seed": 0}))
        warm = PERF_FAMILY.run(spec, jobs=1, cache_dir=cache)
        assert warm.cache_hits == 1
        assert (PERF_FAMILY.make_artifact(warm, git_rev="x")["points"]
                == PERF_FAMILY.make_artifact(cold, git_rev="x")["points"])


class TestCodec:
    def test_round_trip_keeps_exactly_the_columns(self):
        result = PointResult("k", "h", {"a": 1, "b": [2]}, {"m": 1.5}, 0.1)
        data = result.to_json()
        assert data == {"key": "k", "config_hash": "h", "a": 1, "b": [2],
                        "metrics": {"m": 1.5}, "wall_clock_s": 0.1}
        revived = PointResult.from_json({**data, "extra": 0}, ("a", "b"),
                                        cached=True)
        assert revived == PointResult("k", "h", {"a": 1, "b": [2]},
                                      {"m": 1.5}, 0.1, cached=True)

    @pytest.mark.parametrize("data", [[], "x", 3, None])
    def test_non_object_is_rejected(self, data):
        with pytest.raises((KeyError, TypeError, ValueError)):
            PointResult.from_json(data, ("a",))

    def test_missing_column_is_rejected(self):
        data = PointResult("k", "h", {"a": 1}, {}, 0.0).to_json()
        with pytest.raises(KeyError):
            PointResult.from_json(data, ("a", "b"))


#: Points of a cheap model grid; the middle one fails.
MODEL_POINTS = MODEL_FAMILY.preset("fig8").points()
FAILING = MODEL_POINTS[1]


def failing_executor(point):
    """Module-level, so the process pool can pickle it."""
    if point.key == FAILING.key:
        raise ValueError("injected failure")
    return execute_model_point(point)


class TestPointFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_point_and_keeps_finished_ones(
            self, tmp_path, jobs):
        from functools import partial

        codec = partial(PointResult.from_json, columns=MODEL_FAMILY.identity)
        with pytest.raises(SweepPointError) as info:
            run_cached_grid(MODEL_POINTS, failing_executor, codec,
                            jobs=jobs, cache_dir=tmp_path)
        error = info.value
        assert error.key == FAILING.key
        assert error.config_hash == FAILING.config_hash()
        assert FAILING.key in str(error)
        assert FAILING.config_hash() in str(error)
        assert "injected failure" in str(error)
        assert isinstance(error.__cause__, ValueError)

        stored = {path.stem for path in tmp_path.glob("*.json")}
        assert FAILING.config_hash() not in stored
        if jobs == 1:
            # Serial points run in order: the first finished, the
            # last never started.
            assert stored == {MODEL_POINTS[0].config_hash()}
        stats = {}
        run_cached_grid(MODEL_POINTS, execute_model_point, codec,
                        jobs=1, cache_dir=tmp_path, stats=stats)
        assert stats["hits"] == len(stored)
        assert stats["recomputes"] == 0

    def test_error_survives_the_pool_boundary(self):
        # A system point raises it from a worker when a shard fails.
        import pickle

        error = SweepPointError("k", "h", "ValueError: bad")
        revived = pickle.loads(pickle.dumps(error))
        assert (revived.key, revived.config_hash) == ("k", "h")
        assert str(revived) == str(error) == (
            "point k (config h) failed: ValueError: bad")

    def test_executor_is_looked_up_when_the_sweep_runs(self, monkeypatch):
        seen = []

        def spy(point):
            seen.append(point.key)
            return execute_point(point)

        monkeypatch.setattr(runner, "execute_point", spy)
        spec = tiny_spec(workloads=("tc",), n_trefi=64)
        PERF_FAMILY.run(spec, jobs=1, cache_dir=None)
        assert seen == [spec.points()[0].key]


class TestParallelRunner:
    def test_parallel_equals_serial(self, tmp_path):
        spec = tiny_spec(ath=(64, 128))
        serial = PERF_FAMILY.run(spec, jobs=1, cache_dir=None)
        parallel = PERF_FAMILY.run(spec, jobs=2, cache_dir=tmp_path / "c")
        assert [r.key for r in parallel.results] == [r.key for r in serial.results]
        assert [r.metrics for r in parallel.results] == [
            r.metrics for r in serial.results
        ]

    def test_parallel_stochastic_policy_is_deterministic(self, tmp_path):
        spec = tiny_spec(policies=(PolicySpec.of("para", probability=0.01),))
        serial = PERF_FAMILY.run(spec, jobs=1, cache_dir=None)
        parallel = PERF_FAMILY.run(spec, jobs=2, cache_dir=None)
        assert [r.metrics for r in parallel.results] == [
            r.metrics for r in serial.results
        ]

    def test_progress_callback_sees_every_point(self, tmp_path):
        lines = []
        spec = tiny_spec(workloads=("tc",), ath=(64, 128))
        PERF_FAMILY.run(spec, jobs=1, cache_dir=None, progress=lines.append)
        # One line per point, plus the closing cache-statistics line.
        assert len(lines) == 3
        assert lines[0].startswith("[1/2] ")
        assert lines[1].startswith("[2/2] ")
        assert lines[-1].startswith("cache: 0 hits, 2 misses, ")
        assert "2 points in" in lines[-1]


class TestPolicyGenericPoints:
    @pytest.mark.parametrize("kind", ["panopticon", "para", "trr", "graphene",
                                      "victim-counter", "null"])
    def test_every_policy_kind_executes(self, kind):
        spec = tiny_spec(workloads=("tc",), policies=(PolicySpec(kind),),
                         n_trefi=64)
        result = PERF_FAMILY.run(spec, jobs=1, cache_dir=None).results[0]
        assert result.identity["policy"] == kind
        assert result.metrics["total_acts"] > 0
        assert 0.0 <= result.metrics["slowdown"] <= 1.0

    def test_null_policy_never_mitigates(self):
        spec = tiny_spec(workloads=("roms",), policies=(PolicySpec("null"),))
        result = PERF_FAMILY.run(spec, jobs=1, cache_dir=None).results[0]
        assert result.metrics["proactive_mitigations"] == 0
        assert result.metrics["reactive_mitigations"] == 0
        assert result.metrics["alerts"] == 0
