"""Host-time spans around each layer's public entry points.

The traced repetition patches every entry point listed by
:func:`layer_targets` at the attribute its caller resolves it through
(a module global such as ``repro.sim.mc.generate_requests`` and
``repro.system.crossbar.generate_requests``, or a class attribute such
as ``MemoryController.serve_streams``), so the program itself carries
no instrumentation. Each call records one span — name, start, end and
the enclosing span — into flat in-memory arrays that are written out
once the run ends. A span's self time is its duration minus the time
its child spans cover; :func:`layer_values` turns spans and the run's
result counters into the per-layer metrics of :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``counter(args, kwargs, result) -> int`` of one traced call.
CountFn = Callable[[tuple, dict, Any], int]


class NullTracer:
    """The untraced run's tracer: benchmark-side spans cost nothing."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


NULL_TRACER = NullTracer()


class SpanTracer:
    """Records nested spans into flat arrays (one row per call)."""

    enabled = True

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Open spans, innermost last; ``-1`` is the root sentinel.
        self._stack: List[int] = [-1]
        #: Work counted at span boundaries (requests, ACTs, ...).
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        # Read the clock last, so the bookkeeping above is not timed.
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(self.intern(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        fn: Callable,
        name: str,
        counter: Optional[Tuple[str, CountFn]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call (and a count)."""
        name_id = self.intern(name)
        open_span, close_span, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span (gzipped JSON columns, times in seconds
        from the first span's start)."""
        origin = self.start[0] if self.start else 0.0
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_s": [t - origin for t in self.start],
            "end_s": [t - origin for t in self.end],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps(payload))


class SpanStats:
    """Per-name call counts, total and self time of a finished trace."""

    def __init__(self, tracer: SpanTracer) -> None:
        self._tracer = tracer
        self.durations = [
            end - start for start, end in zip(tracer.start, tracer.end)
        ]
        covered = [0.0] * len(self.durations)
        for index, parent in enumerate(tracer.parent):
            if parent >= 0:
                covered[parent] += self.durations[index]
        self.self_times = [
            duration - cover
            for duration, cover in zip(self.durations, covered)
        ]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_total: Counter = Counter()
        for index, name_id in enumerate(tracer.name):
            name = tracer.names[name_id]
            self.calls[name] += 1
            self.total[name] += self.durations[index]
            self.self_total[name] += self.self_times[index]

    def durations_of(self, name: str) -> List[float]:
        name_id = self._tracer._ids.get(name)
        return [
            self.durations[index]
            for index, span_name in enumerate(self._tracer.name)
            if span_name == name_id
        ]

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside an ``ancestor`` span."""
        tracer = self._tracer
        name_id = tracer._ids.get(name)
        ancestor_id = tracer._ids.get(ancestor)
        found = 0
        for index, span_name in enumerate(tracer.name):
            if span_name != name_id:
                continue
            parent = tracer.parent[index]
            while parent >= 0 and tracer.name[parent] != ancestor_id:
                parent = tracer.parent[parent]
            found += parent >= 0
        return found


def _defining(base: type, attribute: str) -> List[type]:
    """``base`` and its subclasses that define ``attribute`` themselves."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attribute in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda cls: cls.__qualname__)


def _length(args, kwargs, result) -> int:
    return len(result)


def _one(args, kwargs, result) -> int:
    return 1


def _rows(args, kwargs, result) -> int:
    return len(kwargs["rows"] if "rows" in kwargs else args[1])


def layer_targets() -> List[Tuple[Any, str, str, Optional[tuple]]]:
    """``(owner, attribute, span name, counter)`` per traced entry point."""
    from repro.mc import controller, sched
    # Importing the package defines every policy class.
    from repro.mitigations import MitigationPolicy
    from repro.sim import channel, mc, perf
    from repro.sweep import mc_runner, runner, system_runner
    from repro.system import crossbar
    from repro.system import sim as system_sim

    requests = ("workloads.requests.count", _length)
    targets = [
        (perf, "generate_channel_schedules",
         "workloads.generator.schedule", None),
        (mc, "generate_requests", "workloads.requests.gen", requests),
        (crossbar, "generate_requests", "workloads.requests.gen", requests),
        (system_sim, "client_requests", "system.crossbar.streams", None),
        (system_sim.SystemSim, "run", "system.sim.run", None),
        (system_sim, "execute_system_shard", "system.sim.shard", None),
        (controller.MemoryController, "serve_streams", "mc.controller.serve",
         ("mc.controller.requests", _length)),
        (controller.MemoryController, "run_streams_reference",
         "mc.controller.reference", None),
        (channel.ChannelSim, "__init__", "sim.channel.build", None),
        (channel.ChannelSim, "activate", "sim.channel.activate",
         ("sim.channel.acts", _one)),
        (channel.ChannelSim, "activate_many", "sim.channel.activate",
         ("sim.channel.acts", _rows)),
        (channel.ChannelSim, "advance_to", "sim.channel.advance", None),
        (channel.ChannelSim, "flush", "sim.channel.advance", None),
        (runner, "run_workload", "sim.perf.run_workload", None),
        (mc, "run_mc_requests", "sim.mc.run_mc_requests", None),
        (runner, "execute_point", "sweep.runner.point", None),
        (mc_runner, "execute_mc_point", "sweep.runner.point", None),
        (system_runner, "execute_system_point", "sweep.runner.point", None),
    ]
    targets += [
        (cls, "pick", "mc.sched.pick", None)
        for cls in _defining(sched.SchedPolicy, "pick")
    ]
    targets += [
        (cls, "select_proactive", "mitigations.select_proactive", None)
        for cls in _defining(MitigationPolicy, "select_proactive")
    ]
    return targets


@contextmanager
def instrumented(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Patch every :func:`layer_targets` entry; restore on exit."""
    patched = []
    try:
        for owner, attribute, name, counter in layer_targets():
            original = vars(owner)[attribute]
            setattr(owner, attribute, tracer.wrap(original, name, counter))
            patched.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str


#: Every per-layer metric of the traced run, by layer. ``moves`` names
#: the end-to-end metric (and workload) a change in it should move.
LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("workloads.requests.gen_s", "s", "lower",
                "acts_per_s and peak_rss_mb on mc-policy; little on "
                "system-qos; none on table7"),
    LayerMetric("workloads.requests.count", "count", "lower",
                "acts_per_s and peak_rss_mb on mc-policy"),
    LayerMetric("workloads.generator.schedule_s", "s", "lower",
                "wall_s on table7 only"),
    LayerMetric("system.crossbar.streams_s", "s", "lower",
                "acts_per_s on system-qos only (client_requests self "
                "time: the tagging outside generate_requests)"),
    LayerMetric("system.sim.merge_s", "s", "lower",
                "acts_per_s on system-qos only (SystemSim.run minus "
                "its shards)"),
    LayerMetric("mc.controller.serve_s", "s", "lower",
                "acts_per_s on mc-policy and system-qos"),
    LayerMetric("mc.controller.us_per_req", "us", "lower",
                "acts_per_s on mc-policy and system-qos"),
    LayerMetric("mc.controller.fast_path_frac", "fraction", "higher",
                "acts_per_s on system-qos once the reference loop "
                "folds into the fast path (1.0 on mc-policy)"),
    LayerMetric("mc.sched.pick_s", "s", "lower",
                "acts_per_s on system-qos (0 on mc-policy)"),
    LayerMetric("mc.sched.pick_calls", "count", "lower",
                "acts_per_s on system-qos (0 on mc-policy)"),
    LayerMetric("sim.channel.activate_s", "s", "lower",
                "acts_per_s on table7"),
    LayerMetric("sim.channel.advance_s", "s", "lower",
                "acts_per_s on table7 (REF/ALERT drain)"),
    LayerMetric("sim.channel.acts", "count", "lower",
                "acts_per_s on table7 (ACTs issued through the channel, "
                "every engine pass)"),
    LayerMetric("sim.engine.us_per_act", "us", "lower",
                "acts_per_s on table7"),
    LayerMetric("sim.perf.passes_per_point", "count", "lower",
                "wall_s on table7"),
    LayerMetric("sim.mc.summarize_s", "s", "lower",
                "wall_s on mc-policy and mc-abo-traced (run_mc_requests "
                "minus serve)"),
    LayerMetric("sim.engine.alerts", "count", "lower",
                "simulated; must not move under a host-speed change"),
    LayerMetric("mitigations.select_proactive_s", "s", "lower",
                "wall_s on mc-policy; small on table7 (MOAT only)"),
    LayerMetric("mitigations.select_proactive_calls", "count", "lower",
                "wall_s on mc-policy"),
    LayerMetric("obs.events", "count", "lower",
                "wall_s and peak_rss_mb on mc-abo-traced only"),
    LayerMetric("obs.record_s", "s", "lower",
                "wall_s on mc-abo-traced only (run_mc under the "
                "recorder)"),
    LayerMetric("obs.artifact_s", "s", "lower",
                "wall_s and peak_rss_mb on mc-abo-traced only (build "
                "plus write)"),
    LayerMetric("sweep.runner.grid_self_s", "s", "lower",
                "wall_s, most on table7, least on system-qos (cache "
                "probe, store and reassembly)"),
    LayerMetric("sweep.artifacts.build_s", "s", "lower",
                "wall_s, most on table7, least on system-qos"),
    LayerMetric("sweep.artifacts.check_s", "s", "lower",
                "wall_s, most on table7, least on system-qos"),
    LayerMetric("sweep.runner.point_s_p50", "s", "lower",
                "wall_s on table7"),
    LayerMetric("sweep.runner.point_s_tail", "s", "lower",
                "wall_s on table7 (the point with ten slower points "
                "beyond it; the slowest point below 11 points)"),
    LayerMetric("sweep.runner.points", "count", "lower",
                "sample count of the two point times above"),
    LayerMetric("trace.overhead_frac", "fraction", "lower",
                "none: traced body wall time over the untraced median, "
                "minus 1"),
)


def tail(values: List[float]) -> float:
    """The highest sample with at least ten samples beyond it (the
    largest sample when there are fewer than eleven)."""
    ordered = sorted(values)
    if len(ordered) > 10:
        return ordered[-11]
    return ordered[-1] if ordered else 0.0


def layer_values(
    tracer: SpanTracer, alerts: int, obs_events: int
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced repetition but
    ``trace.overhead_frac``, which needs the untraced repetitions.

    Args:
        tracer: The finished trace.
        alerts: ALERTs summed over the run's results.
        obs_events: Events recorded by ``repro.obs`` recorders.
    """
    stats = SpanStats(tracer)
    total, own, calls = stats.total, stats.self_total, stats.calls
    counts = tracer.counts
    serve_calls = calls["mc.controller.serve"]
    served = counts["mc.controller.requests"]
    channel_acts = counts["sim.channel.acts"]
    workload_runs = calls["sim.perf.run_workload"]
    point_times = stats.durations_of("sweep.runner.point")
    values = {
        "workloads.requests.gen_s": total["workloads.requests.gen"],
        "workloads.requests.count": counts["workloads.requests.count"],
        "workloads.generator.schedule_s":
            total["workloads.generator.schedule"],
        "system.crossbar.streams_s": own["system.crossbar.streams"],
        "system.sim.merge_s": own["system.sim.run"],
        "mc.controller.serve_s": total["mc.controller.serve"],
        "mc.controller.us_per_req": (
            total["mc.controller.serve"] * 1e6 / served if served else 0.0
        ),
        "mc.controller.fast_path_frac": (
            (serve_calls - calls["mc.controller.reference"]) / serve_calls
            if serve_calls else 0.0
        ),
        "mc.sched.pick_s": total["mc.sched.pick"],
        "mc.sched.pick_calls": calls["mc.sched.pick"],
        "sim.channel.activate_s": total["sim.channel.activate"],
        "sim.channel.advance_s": total["sim.channel.advance"],
        "sim.channel.acts": channel_acts,
        "sim.engine.us_per_act": (
            total["sim.channel.activate"] * 1e6 / channel_acts
            if channel_acts else 0.0
        ),
        "sim.perf.passes_per_point": (
            stats.calls_under("sim.channel.build", "sim.perf.run_workload")
            / workload_runs if workload_runs else 0.0
        ),
        "sim.mc.summarize_s": own["sim.mc.run_mc_requests"],
        "sim.engine.alerts": alerts,
        "mitigations.select_proactive_s":
            total["mitigations.select_proactive"],
        "mitigations.select_proactive_calls":
            calls["mitigations.select_proactive"],
        "obs.events": obs_events,
        "obs.record_s": total["obs.record"],
        "obs.artifact_s": total["obs.artifact"],
        "sweep.runner.grid_self_s": own["sweep.family.run"],
        "sweep.artifacts.build_s": total["sweep.artifacts.build"],
        "sweep.artifacts.check_s": total["sweep.artifacts.check"],
        "sweep.runner.point_s_p50": (
            statistics.median(point_times) if point_times else 0.0
        ),
        "sweep.runner.point_s_tail": tail(point_times),
        "sweep.runner.points": len(point_times),
    }
    return {name: float(value) for name, value in values.items()}
