"""One repetition of one workload, in a fresh interpreter.

``python3 -m perfbench.worker --workload <name> --seed <n> --mode
<setup|plain|traced>`` times its own set-up (imports, preset and
baseline loading, temp-dir creation), then — unless ``--mode setup`` —
the workload body with a cold cache, and prints one JSON record as the
last line of standard output. ``--mode traced`` runs the body with
every layer entry point wrapped in host-time spans, writes the spans
under ``.perfbench/`` and adds the per-layer values to the record.

A point that raises or misses its baseline is counted in ``failed``;
a crash of the worker itself (missing sources, bad arguments) exits
non-zero without a record.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (temp caches, span files).
SCRATCH = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        default="plain")
    args = parser.parse_args(argv)

    from repro.obs import run_provenance
    from repro.sweep.family import get_family

    from perfbench import spans
    from perfbench.workloads import (
        PRESET_SEED,
        WORKLOADS,
        moat_points,
        run_family_workload,
        run_traced_workload,
        write_subset_baseline,
    )

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    family = get_family(workload.family)
    spec = workload.spec(args.seed)
    gated = args.seed == PRESET_SEED
    baseline = workload.baseline_path(ROOT)
    if gated and not baseline.is_file():
        print(f"missing baseline {baseline}", file=sys.stderr)
        return 2
    provenance = run_provenance()
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        if workload.traced:
            points = moat_points(spec)
            if gated:
                baseline = write_subset_baseline(
                    baseline, {p.key for p in points}, tmp / "baseline.json"
                )

            def body(tracer):
                return run_traced_workload(
                    points, tmp, baseline if gated else None, provenance,
                    tracer,
                )
        else:
            def body(tracer):
                return run_family_workload(
                    family, spec, tmp / "cache",
                    baseline if gated else None,
                    str(provenance["git_describe"]), tracer,
                )
        setup_s = time.perf_counter() - STARTED
        record = {"setup_s": setup_s, "provenance": provenance}
        if args.mode == "setup":
            print(json.dumps(record))
            return 0

        tracer = (spans.SpanTracer() if args.mode == "traced"
                  else spans.NULL_TRACER)
        with (spans.instrumented(tracer) if tracer.enabled
              else nullcontext()):
            began = time.perf_counter()
            with tracer.span("bench.workload"):
                outcome = body(tracer)
            wall_s = time.perf_counter() - began
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in outcome.problems[:10]:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    record.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        attempted=outcome.attempted,
        failed=outcome.failed,
        acts=outcome.acts,
        alerts=outcome.alerts,
        digest=outcome.digest,
    )
    if tracer.enabled:
        record["layers"] = spans.layer_values(
            tracer, outcome.alerts, outcome.obs_events
        )
        tracer.write(SCRATCH / f"spans-{workload.name}.json.gz")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
