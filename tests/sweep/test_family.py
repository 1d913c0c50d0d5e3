"""Tests of the sweep-family registry: completeness, artifact
equivalence with the committed baselines, cache revival, and baseline
coverage."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.sweep.artifacts import load_artifact
from repro.sweep.family import (
    ATTACK_FAMILY,
    FAMILIES,
    MC_FAMILY,
    MODEL_FAMILY,
    PERF_FAMILY,
    SYSTEM_FAMILY,
    get_family,
)

BASELINE_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_all_five_families_registered(self):
        assert list(FAMILIES) == ["sweep", "attack", "model", "mc",
                                  "system"]
        for name, family in FAMILIES.items():
            assert family.name == name
            assert get_family(name) is family

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown sweep family"):
            get_family("bogus")

    def test_schemas_are_distinct_and_versioned(self):
        schemas = [f.schema for f in FAMILIES.values()]
        assert len(set(schemas)) == len(schemas)
        assert all(s.startswith("repro.") and "/v" in s for s in schemas)

    def test_baseline_prefixes_are_distinct(self):
        prefixes = [f.baseline_prefix for f in FAMILIES.values()]
        assert len(set(prefixes)) == len(prefixes)

    def test_every_family_is_complete(self):
        for family in FAMILIES.values():
            assert family.presets, family.name
            assert callable(getattr(*family.executor))
            assert callable(family.top_fields)
            assert callable(family.aggregates)
            assert family.identity and family.columns
            assert family.cache_subdir
            assert family.description
            assert family.list_title and family.table_title
            for name, spec in family.presets.items():
                assert isinstance(spec, family.spec_type), name

    def test_preset_lookup_error_names_the_family(self):
        with pytest.raises(KeyError, match="unknown mc preset"):
            MC_FAMILY.preset("nope")
        with pytest.raises(KeyError, match="unknown system preset"):
            SYSTEM_FAMILY.preset("nope")

    def test_baseline_paths(self):
        assert (PERF_FAMILY.baseline_name("fig11") == "fig11.json")
        assert (MC_FAMILY.baseline_name("mc-smoke") == "mc_mc-smoke.json")
        assert SYSTEM_FAMILY.default_baseline_path(
            "system-smoke", root=Path("/x")
        ) == Path("/x/benchmarks/baselines/system_system-smoke.json")


class TestCommittedBaselines:
    """Every preset of every family has its baseline committed under
    the family's prefix convention, carrying the family's schema."""

    def test_baselines_exist(self):
        missing = []
        for family in FAMILIES.values():
            for preset_name in family.presets:
                path = family.default_baseline_path(
                    preset_name, root=BASELINE_ROOT
                )
                if not path.exists():
                    missing.append(str(path))
        assert not missing, missing

    def test_committed_baselines_carry_family_schema(self):
        for family in FAMILIES.values():
            for preset_name in family.presets:
                path = family.default_baseline_path(
                    preset_name, root=BASELINE_ROOT
                )
                if not path.exists():
                    continue
                artifact = load_artifact(path, schema=family.schema)
                assert artifact["preset"] == preset_name, str(path)


def untimed(point):
    return {k: v for k, v in point.items() if k != "wall_clock_s"}


def written(family, result):
    """The artifact as it reads back from disk (tuples become lists)."""
    return json.loads(json.dumps(family.make_artifact(result, git_rev="x")))


class TestArtifactEquivalence:
    """A fresh run at a committed baseline's scale reproduces every
    field that baseline records — identity columns and metrics of each
    point (the gate itself compares metrics only) and, for a full
    preset, the top-level fields apart from timing and provenance.
    Fields added after a baseline was written are not in it."""

    VOLATILE = {"created_utc", "git_rev", "jobs", "wall_clock_s",
                "compute_time_s", "cache_hits", "points"}

    def assert_matches_baseline(self, family, preset_name, spec=None):
        baseline = load_artifact(
            family.default_baseline_path(preset_name, root=BASELINE_ROOT),
            family.schema,
        )
        full = spec is None
        spec = family.preset(preset_name) if full else spec
        artifact = written(family, family.run(spec, jobs=1, cache_dir=None))
        assert artifact["points"]
        for key, point in artifact["points"].items():
            recorded = baseline["points"][key]
            for field, value in recorded.items():
                if field == "metrics":
                    for metric, number in value.items():
                        assert point["metrics"][metric] == number, (
                            key, metric)
                elif field != "wall_clock_s":
                    assert point[field] == value, (key, field)
        if full:
            for field, value in baseline.items():
                if field not in self.VOLATILE:
                    assert artifact[field] == value, field

    def test_mc(self):
        self.assert_matches_baseline(MC_FAMILY, "mc-smoke")

    def test_model(self):
        self.assert_matches_baseline(MODEL_FAMILY, "fig8")

    def test_system(self):
        spec = SYSTEM_FAMILY.preset("system-smoke")
        self.assert_matches_baseline(
            SYSTEM_FAMILY, "system-smoke",
            dataclasses.replace(spec, scenarios=spec.scenarios[:1]),
        )

    def test_perf(self):
        spec = PERF_FAMILY.preset("fig11").with_overrides(
            n_trefi=512, workloads=("mcf",)
        )
        self.assert_matches_baseline(PERF_FAMILY, "fig11", spec)

    def test_attack(self):
        self.assert_matches_baseline(ATTACK_FAMILY, "fig5")


#: A small spec per family for the revival test.
SHRUNK = {
    "sweep": lambda: PERF_FAMILY.preset("fig11").with_overrides(
        n_trefi=16, workloads=("mcf",)),
    "attack": lambda: ATTACK_FAMILY.preset("fig5"),
    "model": lambda: MODEL_FAMILY.preset("fig8"),
    "mc": lambda: MC_FAMILY.preset("mc-smoke").with_overrides(n_trefi=32),
    "system": lambda: SYSTEM_FAMILY.preset("system-smoke").with_overrides(
        n_trefi=32),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_warm_cache_reproduces_cold_artifact(name, tmp_path):
    """Serial == parallel, and a warm-cache rerun revives every point
    into the cold run's exact points and aggregates."""
    family = FAMILIES[name]
    spec = SHRUNK[name]()
    serial = family.run(spec, jobs=1, cache_dir=None)
    cold = family.run(spec, jobs=2, cache_dir=tmp_path)
    warm = family.run(spec, jobs=1, cache_dir=tmp_path)
    serial_art, cold_art, warm_art = (
        written(family, r) for r in (serial, cold, warm)
    )
    assert all(set(r.identity) == set(family.identity)
               for r in cold.results)
    assert cold.cache_hits == 0
    assert warm.cache_hits == len(warm_art["points"]) == len(spec.points())
    assert warm_art["points"] == cold_art["points"]
    assert warm_art["aggregates"] == cold_art["aggregates"]
    assert ({k: untimed(p) for k, p in cold_art["points"].items()}
            == {k: untimed(p) for k, p in serial_art["points"].items()})
    assert cold_art["aggregates"] == serial_art["aggregates"]


class TestFamilyGate:
    def test_check_against_baseline_uses_family_settings(self, tmp_path):
        from repro.sweep.artifacts import write_artifact
        spec = SYSTEM_FAMILY.preset("system-smoke").with_overrides(
            n_trefi=32
        )
        result = SYSTEM_FAMILY.run(spec, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="x")
        path = tmp_path / SYSTEM_FAMILY.baseline_name("system-smoke")
        write_artifact(path, artifact)
        ok, problems = SYSTEM_FAMILY.check_against_baseline(
            artifact, path, rtol=0.0, atol=0.0
        )
        assert ok, problems
        # Another family refuses the baseline: its schema doesn't match.
        ok, problems = MC_FAMILY.check_against_baseline(artifact, path)
        assert not ok
        assert any("schema" in p for p in problems)
