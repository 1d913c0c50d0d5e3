"""Tests for the cached model-sweep runner."""

from repro.sweep.artifacts import MODEL_SCHEMA
from repro.sweep.family import MODEL_FAMILY
from repro.sweep.model_runner import execute_model_point
from repro.sweep.model_spec import ModelSpec, ModelSweepSpec
from repro.sweep.runner import PointResult

SPEC = ModelSweepSpec(
    name="unit",
    description="runner unit spec",
    models=(
        ModelSpec.of("safe-trh", ath=64, level=1),
        ModelSpec.of("abo-config", level=2),
        ModelSpec.of("feinting-bound", trefi_per_mitigation=2, periods=16),
    ),
)


class TestRunner:
    def test_runs_every_point_in_order(self, tmp_path):
        result = MODEL_FAMILY.run(SPEC, cache_dir=tmp_path)
        assert [r.key for r in result.results] == [
            p.key for p in SPEC.points()
        ]
        assert result.cache_hits == 0

    def test_metrics_match_direct_evaluation(self, tmp_path):
        result = MODEL_FAMILY.run(SPEC, cache_dir=tmp_path)
        for point, got in zip(SPEC.points(), result.results):
            want = execute_model_point(point)
            assert got.metrics == want.metrics
            assert got.identity["params"] == point.model.param_dict()

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        MODEL_FAMILY.run(SPEC, cache_dir=tmp_path)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text("{not json")
        result = MODEL_FAMILY.run(SPEC, cache_dir=tmp_path)
        assert result.cache_hits == len(SPEC.points()) - 1

    def test_from_json_round_trip(self):
        point = SPEC.points()[0]
        result = execute_model_point(point)
        revived = PointResult.from_json(
            result.to_json(), MODEL_FAMILY.identity, cached=True
        )
        assert revived.metrics == result.metrics
        assert revived.identity == result.identity
        assert revived.cached


class TestArtifact:
    def test_schema_and_points(self, tmp_path):
        result = MODEL_FAMILY.run(SPEC, cache_dir=None)
        artifact = MODEL_FAMILY.make_artifact(result, git_rev="test")
        assert artifact["schema"] == MODEL_SCHEMA
        assert artifact["preset"] == "unit"
        assert set(artifact["points"]) == {p.key for p in SPEC.points()}
        point = artifact["points"]["abo-config(level=2)"]
        assert point["kind"] == "abo-config"
        assert point["params"] == {"level": 2}
        assert point["metrics"]["min_acts_between_alerts"] == 5.0
