"""Closed-loop memory-controller performance front-end.

The fourth evaluation mode of the toolkit: where :func:`repro.sim.perf.
run_workload` measures the open-loop ALERT *stall fraction* of a fixed
activation schedule, :func:`run_mc` drives a timed request stream
through the :class:`~repro.mc.controller.MemoryController` and reports
what a system actually experiences under ABO recovery — read-latency
percentiles, achieved bandwidth, and queue occupancy. The two agree by
construction where they overlap: an open-loop schedule converted to a
request stream and replayed at infinite queue depth issues the same
ACT sequence, raises the same ALERTs, and accumulates the same stall
time (pinned by ``TestPerfCrossCheck`` in
``tests/mc/test_run_mc.py``); the closed-loop mode then *adds* the
queueing axis the analytic substitution argument cannot express (see
DESIGN.md).

Metrics (:class:`McResult`):

* Read latency mean/p50/p99/max (ns) — arrival at the MC front-end to
  data completion, so ALERT recovery shows up as queueing delay.
* Achieved bandwidth (GB/s at 64-byte lines) and requests per tREFI.
* Average queue occupancy (Little's-law exact: summed queue residency
  over elapsed time).
* ALERTs per tREFI per sub-channel and the ALERT stall fraction —
  directly comparable to :class:`~repro.sim.perf.PerfResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dram.refresh import CounterResetPolicy
from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING
from repro.mc.controller import McConfig, MemoryController, ServedBatch
from repro.mc.request import Request
from repro.mc.sched import (
    normalize_sched_params,
    sched_display,
    validate_sched,
)
from repro.mitigations.registry import PolicySpec, RunParams
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig
from repro.workloads.requests import McWorkload, generate_requests

#: Bytes transferred per request (one cache line, Table 3 system).
LINE_BYTES = 64


@dataclass(frozen=True)
class McRunConfig:
    """Configuration of one closed-loop memory-controller run."""

    ath: int = 64
    eth: Optional[int] = None  # defaults to ath // 2
    abo_level: int = 1
    #: Which mitigation policy defends each bank.
    policy: PolicySpec = field(default_factory=PolicySpec)
    #: REF periods per completed proactive mitigation (``None`` = the
    #: policy's native cadence, as in :class:`~repro.sim.perf.RunConfig`).
    trefi_per_mitigation: Optional[int] = None
    #: Arrival process driving the controller.
    workload: McWorkload = field(default_factory=McWorkload)
    #: Per-bank queue capacity; ``None`` = unbounded.
    queue_depth: Optional[int] = 32
    #: Scheduling kind from the :mod:`repro.mc.sched` registry, plus
    #: its parameters as ``(name, value)`` pairs (empty = defaults).
    scheduler: str = "frfcfs"
    sched_params: Tuple[Tuple[str, Any], ...] = ()
    row_policy: str = "closed"
    #: Channel geometry. The controller simulates every bank it
    #: generates traffic for, so no cross-bank service modelling is
    #: needed (scaling factors all collapse to 1).
    subchannels: int = 1
    banks: int = 4
    rows_per_bank: int = 64 * 1024
    n_trefi: int = 1024
    seed: int = 0
    timing: DramTiming = field(default_factory=lambda: DDR5_PRAC_TIMING)

    def __post_init__(self) -> None:
        # Fail fast at configuration time (not inside a sweep worker):
        # the sched registry is the single source of truth for kind
        # and parameter validation, shared with McConfig.
        object.__setattr__(
            self, "sched_params", normalize_sched_params(self.sched_params)
        )
        validate_sched(self.scheduler, self.sched_params)

    @property
    def eth_resolved(self) -> int:
        """ETH with the paper's ATH/2 default applied."""
        return self.ath // 2 if self.eth is None else self.eth

    @property
    def trefi_per_mitigation_resolved(self) -> int:
        """Proactive cadence with the policy's default applied."""
        if self.trefi_per_mitigation is None:
            return self.policy.default_trefi_per_mitigation
        return self.trefi_per_mitigation

    def mc_config(self) -> McConfig:
        """The controller-layer slice of this configuration."""
        return McConfig(
            queue_depth=self.queue_depth,
            scheduler=self.scheduler,
            sched_params=self.sched_params,
            row_policy=self.row_policy,
        )

    def sched_display(self) -> str:
        """``kind`` or ``kind(k=v,...)`` — the artifact spelling."""
        return sched_display(self.scheduler, self.sched_params)


@dataclass
class McResult:
    """Metrics of one closed-loop run."""

    workload: str
    policy: str
    ath: int
    eth: int
    abo_level: int
    scheduler: str
    row_policy: str
    queue_depth: Optional[int]
    subchannels: int
    banks: int
    n_trefi: int
    requests: int
    reads: int
    writes: int
    row_hits: int
    alerts: int
    total_acts: int
    elapsed_ns: float
    stall_ns: float
    read_mean_ns: float
    read_p50_ns: float
    read_p99_ns: float
    read_max_ns: float
    #: Mean time-in-queue across all requests (enqueue to issue).
    avg_queue_ns: float
    #: Little's-law average number of queued requests.
    avg_queue_occupancy: float

    @property
    def alerts_per_trefi(self) -> float:
        """ALERTs per tREFI per sub-channel (Figure 11b metric)."""
        return self.alerts / self.n_trefi / self.subchannels

    @property
    def stall_fraction(self) -> float:
        """Fraction of sub-channel time lost to ALERT RFMs — the
        closed-loop analogue of :attr:`PerfResult.slowdown` (every
        bank simulated, so no partial-simulation scaling)."""
        if not self.elapsed_ns:
            return 0.0
        return self.stall_ns / self.subchannels / self.elapsed_ns

    @property
    def achieved_gbps(self) -> float:
        """Completed request bandwidth in GB/s (64-byte lines)."""
        if not self.elapsed_ns:
            return 0.0
        return self.requests * LINE_BYTES / self.elapsed_ns

    @property
    def requests_per_trefi(self) -> float:
        """Completed requests per tREFI across the channel."""
        return self.requests / self.n_trefi

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests served from the open row buffer."""
        if not self.requests:
            return 0.0
        return self.row_hits / self.requests

    def as_metrics(self) -> Dict[str, float]:
        """Flat metric dict (sweep artifacts, ``summary.json``)."""
        return {
            "requests": float(self.requests),
            "reads": float(self.reads),
            "read_mean_ns": self.read_mean_ns,
            "read_p50_ns": self.read_p50_ns,
            "read_p99_ns": self.read_p99_ns,
            "read_max_ns": self.read_max_ns,
            "avg_queue_ns": self.avg_queue_ns,
            "avg_queue_occupancy": self.avg_queue_occupancy,
            "achieved_gbps": self.achieved_gbps,
            "requests_per_trefi": self.requests_per_trefi,
            "row_hit_rate": self.row_hit_rate,
            "alerts": float(self.alerts),
            "alerts_per_trefi": self.alerts_per_trefi,
            "stall_fraction": self.stall_fraction,
            "total_acts": float(self.total_acts),
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted data (NaN when empty)."""
    if not sorted_values:
        return float("nan")
    k = max(0, min(len(sorted_values) - 1,
                   math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[k]


def build_mc_channel(
    config: McRunConfig,
    num_subchannels: Optional[int] = None,
    num_banks: Optional[int] = None,
    rows_per_bank: Optional[int] = None,
    mapping=None,
) -> ChannelSim:
    """Channel simulation for a closed-loop run (geometry overridable
    by trace replays, whose mapping dictates the shape)."""
    sim_config = SimConfig(
        timing=config.timing,
        num_banks=config.banks if num_banks is None else num_banks,
        rows_per_bank=(
            config.rows_per_bank if rows_per_bank is None else rows_per_bank
        ),
        num_refresh_groups=8192,
        reset_policy=CounterResetPolicy.SAFE,
        trefi_per_mitigation=config.trefi_per_mitigation_resolved,
        abo_level=config.abo_level,
        track_danger=False,
        dense_counters=True,
    )
    run_params = RunParams(
        ath=config.ath,
        eth=config.eth_resolved,
        abo_level=config.abo_level,
        seed=config.seed,
        timing=config.timing,
    )
    return ChannelSim(
        ChannelConfig(
            sim=sim_config,
            num_subchannels=(
                config.subchannels if num_subchannels is None
                else num_subchannels
            ),
            mapping=mapping,
        ),
        config.policy.make_factory(run_params),
    )


def run_mc(config: McRunConfig = McRunConfig(), recorder=None) -> McResult:
    """Synthesize the configured request stream and serve it.

    Args:
        config: Workload, policy, and controller parameters.
        recorder: Optional :class:`repro.obs.TraceRecorder`; when given,
            the engine and controller emit their event streams into it.
            Results are bit-identical either way.
    """
    requests = generate_requests(
        config.workload,
        num_subchannels=config.subchannels,
        banks_per_subchannel=config.banks,
        n_trefi=config.n_trefi,
        rows_per_bank=config.rows_per_bank,
        seed=config.seed,
        trefi_ns=config.timing.t_refi,
    )
    return run_mc_requests(
        requests, config, workload_name=config.workload.display_name(),
        recorder=recorder,
    )


def run_mc_requests(
    requests: List[Request],
    config: McRunConfig,
    workload_name: str = "requests",
    channel: Optional[ChannelSim] = None,
    recorder=None,
) -> McResult:
    """Serve an explicit request stream (tests, converters, replays).

    Args:
        requests: The stream; timestamps in nanoseconds.
        config: Policy and controller parameters; the geometry fields
            must cover the stream's coordinates unless ``channel``
            overrides them.
        workload_name: Label recorded in the result.
        channel: Pre-built channel (trace replays build one from the
            mapping's geometry).
        recorder: Optional :class:`repro.obs.TraceRecorder` attached to
            the channel's sub-channels and the controller.
    """
    if channel is None:
        channel = build_mc_channel(config)
    controller = MemoryController(channel, config.mc_config())
    if recorder is not None:
        channel.attach_recorder(recorder)
        controller.recorder = recorder
    served = controller.serve(requests)
    horizon = config.n_trefi * config.timing.t_refi
    return _summarize(served, channel, config, workload_name,
                      horizon=horizon, n_trefi=config.n_trefi)


def run_mc_trace(
    trace,
    config: McRunConfig = McRunConfig(),
    mapping=None,
    recorder=None,
) -> McResult:
    """Replay a v2 address trace as a closed-loop request stream.

    The channel's geometry comes from the mapping (every decoded bank
    of every sub-channel is simulated), like
    :func:`repro.sim.perf.run_trace`; the controller's queueing and
    scheduling knobs come from ``config``. At infinite queue depth
    with the FCFS scheduler the ACT sequence is bit-identical to the
    open-loop replay.
    """
    from repro.sim.mapping import CoffeeLakeMapping
    from repro.workloads.requests import requests_from_trace

    if mapping is None:
        mapping = CoffeeLakeMapping()
    channel = build_mc_channel(
        config,
        num_subchannels=mapping.num_subchannels,
        num_banks=mapping.num_banks,
        rows_per_bank=1 << mapping.row_bits,
    )
    requests = requests_from_trace(trace, mapping)
    controller = MemoryController(channel, config.mc_config())
    if recorder is not None:
        channel.attach_recorder(recorder)
        controller.recorder = recorder
    served = controller.serve(requests)

    trefi = config.timing.t_refi
    elapsed_floor = trace.duration_ns
    meta_trefi = trace.metadata.get("n_trefi")
    if isinstance(meta_trefi, (int, float)) and meta_trefi >= 1:
        n_trefi = int(meta_trefi)
    else:
        n_trefi = max(1, int(max(channel.now, elapsed_floor) // trefi))
    name = str(trace.metadata.get("workload", "trace"))
    return _summarize(
        served, channel, config, name,
        horizon=elapsed_floor, n_trefi=n_trefi,
        subchannels=mapping.num_subchannels, banks=mapping.num_banks,
    )


def _summarize(
    served: ServedBatch,
    channel: ChannelSim,
    config: McRunConfig,
    workload_name: str,
    horizon: float,
    n_trefi: int,
    subchannels: Optional[int] = None,
    banks: Optional[int] = None,
) -> McResult:
    # All aggregates come straight from the batch's flat arrays, in
    # the same accumulation order the per-completion objects produced
    # (see ServedBatch) — metrics are bit-identical either way.
    elapsed_ns = max(channel.now, horizon)
    read_latencies = served.read_latencies_sorted()
    reads = len(read_latencies)
    queue_ns_total = served.queue_ns_total()
    total = len(served)
    subchannels = config.subchannels if subchannels is None else subchannels
    stall_ns = channel.alerts * config.abo_level * config.timing.t_rfm
    return McResult(
        workload=workload_name,
        policy=config.policy.display_name(),
        ath=config.ath,
        eth=config.eth_resolved,
        abo_level=config.abo_level,
        scheduler=config.sched_display(),
        row_policy=config.row_policy,
        queue_depth=config.queue_depth,
        subchannels=subchannels,
        banks=config.banks if banks is None else banks,
        n_trefi=n_trefi,
        requests=total,
        reads=reads,
        writes=total - reads,
        row_hits=served.row_hit_count(),
        alerts=channel.alerts,
        total_acts=channel.total_acts,
        elapsed_ns=elapsed_ns,
        stall_ns=stall_ns,
        read_mean_ns=(
            sum(read_latencies) / reads if reads else float("nan")
        ),
        read_p50_ns=_percentile(read_latencies, 0.50),
        read_p99_ns=_percentile(read_latencies, 0.99),
        read_max_ns=read_latencies[-1] if reads else float("nan"),
        avg_queue_ns=(
            queue_ns_total / total if total else 0.0
        ),
        avg_queue_occupancy=(
            queue_ns_total / elapsed_ns if elapsed_ns else 0.0
        ),
    )
