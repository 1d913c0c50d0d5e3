"""Memory-controller hot-path microbenchmarks.

Two measurements pin the closed-loop subsystem's speed:

* ``test_mc_hotpath_throughput`` times the subsystem end to end —
  request generation, queueing, FR-FCFS scheduling, and engine
  service — and records requests/second plus the measured p99 read
  latency into ``results/summary.json``. Every round's throughput is
  computed from that round's *own* result, and the rounds must agree
  bit-for-bit (the run is deterministic by contract).
* ``test_mc_backend_speedups`` serves one pre-generated stream through
  the retained scalar reference (``run_streams_reference``) and
  through the struct-of-arrays fast path on each kernel pair, asserts
  the completions are identical, and pins the speedups: the pure
  SoA rewrite must be at least 2x the scalar loop, and the compiled
  ``numba`` kernels at least 10x (asserted only where numba is
  installed). The interpreted kernels (``kernel`` row) are recorded
  but not gated — they execute the numba kernel *code path* without
  numba, where numpy scalar indexing makes them slower than plain
  Python lists.

Like ``test_engine_hotpath.py``, this deliberately bypasses the
artifact caches: it *measures* the subsystem, so replaying a cached
number would defeat the purpose. The absolute-throughput floor is
generous — it exists to catch a catastrophic hot-path regression (an
accidental per-request re-scan, quadratic queue walk, etc.), not
scheduler noise.
"""

import dataclasses
import time

import pytest

from benchmarks.conftest import FAST, kernel_rows
from repro.mc.controller import MemoryController
from repro.obs import TraceRecorder
from repro.report.tables import format_table
from repro.sim import backend
from repro.sim.mc import McRunConfig, build_mc_channel, run_mc
from repro.sweep.mc_spec import HAMMER_WORKLOAD
from repro.workloads.requests import generate_requests

N_TREFI = 512 if FAST else 1024
ROUNDS = 3
#: Catastrophe floor, far below the ~300k req/s a laptop core sustains
#: on the struct-of-arrays path.
REQUIRED_REQUESTS_PER_S = 2000.0
#: The struct-of-arrays rewrite of the serve loop (plain Python, no
#: compilation) against the retained scalar reference.
REQUIRED_PURE_SPEEDUP = 2.0
#: The numba-compiled kernel against the scalar reference.
REQUIRED_NUMBA_SPEEDUP = 10.0


def _hammer_config() -> McRunConfig:
    return McRunConfig(
        ath=32, workload=HAMMER_WORKLOAD, banks=4, n_trefi=N_TREFI,
    )


def test_mc_hotpath_throughput(report, record_json):
    config = _hammer_config()

    rounds = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = run_mc(config)
        rounds.append((time.perf_counter() - started, result))

    # The run is deterministic: every round must produce the same
    # result, so the best round's throughput describes the same work.
    first = dataclasses.asdict(rounds[0][1])
    for _, other in rounds[1:]:
        assert dataclasses.asdict(other) == first, (
            "closed-loop run is not deterministic across rounds"
        )
    best_s, result = min(rounds, key=lambda pair: pair[0])
    requests_per_s = result.requests / best_s
    us_per_request = best_s / result.requests * 1e6

    report(
        format_table(
            ["metric", "value"],
            [
                ("requests served", f"{result.requests:,}"),
                ("requests / second", f"{requests_per_s:,.0f}"),
                ("us / request", f"{us_per_request:.2f}"),
                ("read p99 (ns, simulated)", f"{result.read_p99_ns:.1f}"),
                ("ALERTs / tREFI", f"{result.alerts_per_trefi:.3f}"),
            ],
            title="MC hot path - closed-loop requests through FR-FCFS",
        )
    )
    record_json(
        {
            "requests": result.requests,
            "requests_per_s": requests_per_s,
            "us_per_request": us_per_request,
            "read_p99_ns": result.read_p99_ns,
            "alerts_per_trefi": result.alerts_per_trefi,
            "n_trefi": N_TREFI,
            "required_requests_per_s": REQUIRED_REQUESTS_PER_S,
        },
        key="mc_hotpath",
    )
    assert requests_per_s >= REQUIRED_REQUESTS_PER_S, (
        f"mc hot path served only {requests_per_s:.0f} requests/s "
        f"(need {REQUIRED_REQUESTS_PER_S:.0f})"
    )


def test_mc_tracing_overhead(report, record_json):
    """Null-recorder tracing must be free; enabled tracing, recorded.

    The disabled path (every component on :data:`NULL_RECORDER`) is
    the path every benchmark and sweep runs; its throughput must stay
    above the catastrophe floor, and its result must be bit-identical
    to the traced run — attaching a recorder changes observations,
    never outcomes. Enabled-tracing throughput is recorded (not gated:
    collecting the full event stream legitimately costs).
    """
    config = _hammer_config()

    disabled_s = None
    disabled = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = run_mc(config)
        elapsed = time.perf_counter() - started
        if disabled_s is None or elapsed < disabled_s:
            disabled_s, disabled = elapsed, result

    enabled_s = None
    enabled = None
    recorder = None
    for _ in range(ROUNDS):
        fresh = TraceRecorder()
        started = time.perf_counter()
        result = run_mc(config, recorder=fresh)
        elapsed = time.perf_counter() - started
        if enabled_s is None or elapsed < enabled_s:
            enabled_s, enabled, recorder = elapsed, result, fresh

    assert dataclasses.asdict(enabled) == dataclasses.asdict(disabled), (
        "tracing changed the simulation result"
    )
    assert recorder.count("alert") == enabled.alerts, (
        "ALERT events do not reconcile with the alerts counter"
    )

    disabled_rps = disabled.requests / disabled_s
    enabled_rps = enabled.requests / enabled_s
    overhead_frac = enabled_s / disabled_s - 1.0
    report(
        format_table(
            ["path", "requests / s", "events"],
            [
                ("tracing disabled", f"{disabled_rps:,.0f}", "-"),
                ("tracing enabled", f"{enabled_rps:,.0f}",
                 f"{len(recorder):,}"),
                ("enabled overhead", f"{overhead_frac:+.1%}", ""),
            ],
            title="MC tracing - null recorder vs full event stream "
            "(bit-identical results)",
        )
    )
    record_json(
        {
            "requests": disabled.requests,
            "disabled_requests_per_s": disabled_rps,
            "enabled_requests_per_s": enabled_rps,
            "enabled_overhead_frac": overhead_frac,
            "events": len(recorder),
            "alert_events": recorder.count("alert"),
            "alerts": enabled.alerts,
            "n_trefi": N_TREFI,
            "required_requests_per_s": REQUIRED_REQUESTS_PER_S,
        },
        key="mc_tracing",
    )
    assert disabled_rps >= REQUIRED_REQUESTS_PER_S, (
        f"disabled-tracing path served only {disabled_rps:.0f} "
        f"requests/s (need {REQUIRED_REQUESTS_PER_S:.0f})"
    )


def _serve_timed(requests, kernels=None, reference=False):
    """Best-of-N serve of one stream; returns (seconds, completions).

    A fresh channel/controller per round, built on ``kernels``, keeps
    every measurement a cold, pristine-channel run — the configuration
    the fast path dispatches on.
    """
    config = _hammer_config()
    best_s = None
    completions = None
    for _ in range(ROUNDS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend, "_kernels", kernels)
            channel = build_mc_channel(config)
        controller = MemoryController(channel, config.mc_config())
        started = time.perf_counter()
        if reference:
            served = controller.run_streams_reference([list(requests)])
            out = [(c.start_ns, c.complete_ns) for c in served]
        else:
            batch = controller.serve(list(requests))
            out = list(zip(batch.start_ns, batch.complete_ns))
        elapsed = time.perf_counter() - started
        if best_s is None or elapsed < best_s:
            best_s, completions = elapsed, out
    return best_s, completions


def test_mc_backend_speedups(report, record_json):
    config = _hammer_config()
    requests = generate_requests(
        config.workload,
        num_subchannels=config.subchannels,
        banks_per_subchannel=config.banks,
        n_trefi=config.n_trefi,
        rows_per_bank=config.rows_per_bank,
        seed=config.seed,
        trefi_ns=config.timing.t_refi,
    )

    ref_s, ref_out = _serve_timed(requests, reference=True)
    rows = [
        ("scalar reference", f"{len(requests) / ref_s:,.0f}", "1.00x"),
    ]
    measured = {}
    for name, kernels in kernel_rows().items():
        elapsed, out = _serve_timed(requests, kernels)
        assert out == ref_out, (
            f"{name!r} serve path diverged from the scalar reference"
        )
        speedup = ref_s / elapsed
        measured[name] = {
            "requests_per_s": len(requests) / elapsed,
            "speedup_vs_reference": speedup,
        }
        rows.append(
            (name, f"{len(requests) / elapsed:,.0f}", f"{speedup:.2f}x")
        )

    report(
        format_table(
            ["serve path", "requests / s", "speedup"],
            rows,
            title="MC backends - SoA serve loop vs scalar reference "
            f"({len(requests):,} requests, identical completions)",
        )
    )
    record_json(
        {
            "requests": len(requests),
            "reference_requests_per_s": len(requests) / ref_s,
            "backends": measured,
            "numba_available": "numba" in measured,
            "required_pure_speedup": REQUIRED_PURE_SPEEDUP,
            "required_numba_speedup": REQUIRED_NUMBA_SPEEDUP,
        },
        key="mc_backends",
    )
    pure = measured["pure"]["speedup_vs_reference"]
    assert pure >= REQUIRED_PURE_SPEEDUP, (
        f"pure SoA serve loop only {pure:.2f}x the scalar reference "
        f"(need {REQUIRED_PURE_SPEEDUP}x)"
    )
    if "numba" in measured:
        compiled = measured["numba"]["speedup_vs_reference"]
        assert compiled >= REQUIRED_NUMBA_SPEEDUP, (
            f"numba serve loop only {compiled:.2f}x the scalar "
            f"reference (need {REQUIRED_NUMBA_SPEEDUP}x)"
        )
