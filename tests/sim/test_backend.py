"""The platform kernel pair: resolution, wiring, and kernel coverage.

Which hot-loop kernels run is not a user choice:
:func:`~repro.sim.backend.platform_kernels` resolves the numba-compiled
pair once when numba imports, else ``None`` (the struct-of-arrays
python loops), and every path is bit-identical (pinned by the
engine/controller equivalence suites). These tests pin that
resolution, that the pair in effect reaches the engine at
construction, and that the interpreted kernels — the exact code numba
compiles — are really entered when the suites substitute them.
"""

import dataclasses
import importlib.util

import pytest

import repro.sim.backend as backend_mod
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy
from repro.obs import run_provenance
from repro.sim.engine import SimConfig, SubchannelSim
from repro.sim.mc import McRunConfig, run_mc
from repro.sim.perf import RunConfig
from repro.sweep.mc_spec import HAMMER_WORKLOAD


class TestNumbaGating:
    def test_numba_resolves_or_degrades(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_kernels", backend_mod._UNRESOLVED)
        kernels = backend_mod.platform_kernels()
        assert backend_mod.platform_kernels() is kernels  # resolved once
        if importlib.util.find_spec("numba") is not None:
            assert kernels.name == "numba"
            assert run_provenance()["backend"] == "numba"
        else:
            assert kernels is None
            assert run_provenance()["backend"] == "pure"


class TestEngineWiring:
    def test_config_backend_reaches_engine(self, use_kernels):
        """The pair in effect when a sub-channel is built is the one
        it (and the controller driving it) runs."""
        with use_kernels("kernel"):
            sim = SubchannelSim(
                SimConfig(track_danger=False, dense_counters=True),
                NullPolicy,
            )
        assert sim._use_kernels
        assert sim._kernels.name == "kernel"

    def test_pure_engine_keeps_kernels_off(self, use_kernels):
        with use_kernels("pure"):
            sim = SubchannelSim(
                SimConfig(track_danger=False, dense_counters=True),
                NullPolicy,
            )
        assert not sim._use_kernels

    def test_unknown_config_backend_raises(self):
        """No config carries a kernel selector any more."""
        for config_cls in (SimConfig, RunConfig, McRunConfig):
            assert "backend" not in {
                f.name for f in dataclasses.fields(config_cls)
            }
        with pytest.raises(TypeError):
            SimConfig(backend="kernel")


class TestKernelCoverage:
    def test_interpreted_kernels_are_entered(self, monkeypatch):
        """Substituting the interpreted kernels must actually route the
        engine's ACT bursts and the controller's serve loop through
        them — otherwise every ``kernel`` equivalence case would pass
        vacuously on the pure loops — and change no result."""
        calls = {"act_burst": 0, "serve_closed": 0}

        def counted(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        def run_both():
            mc = run_mc(McRunConfig(ath=16, workload=HAMMER_WORKLOAD,
                                    banks=2, n_trefi=48))
            sim = SubchannelSim(
                SimConfig(track_danger=False, dense_counters=True),
                lambda: MoatPolicy(ath=32),
            )
            for interval in range(64):
                sim.advance_to(interval * sim.timing.t_refi)
                sim.activate_many([7, 7, 7, 9, 7])
            sim.flush()
            return dataclasses.asdict(mc), sim.stats()

        monkeypatch.setattr(backend_mod, "_kernels", backend_mod.Kernels(
            "kernel",
            counted("act_burst", backend_mod._act_burst),
            counted("serve_closed", backend_mod._serve_closed),
        ))
        interpreted = run_both()
        assert calls["act_burst"] > 0
        assert calls["serve_closed"] > 0
        monkeypatch.setattr(backend_mod, "_kernels", None)
        assert run_both() == interpreted
