"""Engine hot-path microbenchmark: array-backed batch vs per-ACT loop.

Pins the performance claim of the layered-core refactor: driving a
workload through the dense-counter ``activate_many`` fast path must be
at least 1.5x faster per simulated tREFI than the seed engine's
configuration (sparse dict-backed PRAC counters, one ``activate()``
method-call chain per ACT). Both paths produce bit-identical
simulation state — that equivalence is pinned by
``tests/sim/test_engine_batch.py``; this benchmark pins the speed.

The measured wall-clock per simulated tREFI lands in
``results/summary.json`` (uploaded as a CI artifact), so the engine's
perf trajectory stays visible across PRs.
"""

import time

import pytest

from benchmarks.conftest import FAST, kernel_rows
from repro.mitigations.moat import MoatPolicy
from repro.report.tables import format_table
from repro.sim import backend
from repro.sim.engine import SimConfig, SubchannelSim
from repro.workloads.generator import generate_schedule
from repro.workloads.profiles import profile_by_name

N_TREFI = 1024 if FAST else 2048
ROUNDS = 3
REQUIRED_SPEEDUP = 1.5


def _drive(schedule, dense: bool, batched: bool, kernels=None) -> float:
    """One timed run on ``kernels``; returns seconds. Asserts the runs
    agree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "_kernels", kernels)
        sim = SubchannelSim(
            SimConfig(track_danger=False, dense_counters=dense),
            lambda: MoatPolicy(ath=64),
        )
    trefi = sim.timing.t_refi
    started = time.perf_counter()
    for interval, rows in enumerate(schedule):
        target = interval * trefi
        if sim.now < target:
            sim.advance_to(target)
        if batched:
            sim.activate_many(rows)
        else:
            for row in rows:
                sim.activate(row)
    sim.flush()
    elapsed = time.perf_counter() - started
    # Smoke-check the run did real work and both paths agree on it.
    assert sim.total_acts == sum(len(rows) for rows in schedule)
    return elapsed


def test_engine_hotpath_speedup(report, record_json):
    schedule = generate_schedule(
        profile_by_name("roms"), n_trefi=N_TREFI, seed=0
    ).per_trefi

    # Best-of-N on both paths: robust against scheduler noise without
    # hiding a real regression.
    legacy = min(
        _drive(schedule, dense=False, batched=False) for _ in range(ROUNDS)
    )
    fast = min(
        _drive(schedule, dense=True, batched=True) for _ in range(ROUNDS)
    )
    speedup = legacy / fast
    legacy_us = legacy / N_TREFI * 1e6
    fast_us = fast / N_TREFI * 1e6

    # Kernel rows ride along informationally: interpreted, the
    # ACT-burst kernel is numpy-scalar bound (slower than the list
    # path); compiled under numba it is the fastest path. Equivalence
    # is pinned by tests/sim/test_engine_batch.py.
    backend_us = {}
    for name, kernels in kernel_rows().items():
        if kernels is None:
            continue  # the pure row is ``fast`` above
        elapsed = min(
            _drive(schedule, dense=True, batched=True, kernels=kernels)
            for _ in range(ROUNDS)
        )
        backend_us[name] = elapsed / N_TREFI * 1e6

    rows = [
        ("seed per-ACT loop (sparse dicts)", f"{legacy_us:.1f}"),
        ("array-backed activate_many", f"{fast_us:.1f}"),
    ]
    rows.extend(
        (f"activate_many ({name})", f"{us:.1f}")
        for name, us in backend_us.items()
    )
    rows.append(("speedup (array-backed vs seed)", f"{speedup:.2f}x"))
    report(
        format_table(
            ["engine path", "us / simulated tREFI"],
            rows,
            title="Engine hot path - batched array-backed vs seed loop",
        )
    )
    record_json(
        {
            "legacy_us_per_trefi": legacy_us,
            "fast_us_per_trefi": fast_us,
            "backend_us_per_trefi": backend_us,
            "numba_available": "numba" in backend_us,
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
            "n_trefi": N_TREFI,
        },
        key="engine_hotpath",
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"array-backed hot path only {speedup:.2f}x faster than the seed "
        f"per-ACT loop (need {REQUIRED_SPEEDUP}x)"
    )
