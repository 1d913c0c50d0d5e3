"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table7 --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``perfbench.worker``), so
set-up is paid and peak memory is measured per repetition, as a user
running the command would see them. Repetitions follow one another
while the next one's midpoint falls within ``--seconds``; at least one
always runs.
Three set-up-only probes add samples for ``setup_s``.

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions: ``wall_s`` (workload body, cold cache), ``acts_per_s``
(simulated ACTs per host second), ``peak_rss_mb`` and ``setup_s``.
``--trace 1`` additionally runs one traced repetition and reports the
per-layer metrics of ``perfbench.spans.LAYER_METRICS`` instead.

Every repetition gates its outputs (baselines at the presets' seed,
otherwise a digest that all repetitions must agree on). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (points) and ``metrics``. A worker crash exits non-zero
without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spans import LAYER_METRICS  # noqa: E402

#: Set-up-only repetitions per run (extra ``setup_s`` samples).
SETUP_PROBES = 3
#: No repetition starts once this much of a run has elapsed.
HARD_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "acts_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> Dict:
    """Run one worker to completion and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(args: argparse.Namespace) -> Dict:
    started = time.perf_counter()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - started)

    def worker(mode: str) -> Dict:
        return run_worker(args.workload, args.seed, mode,
                          timeout=max(remaining(), 1.0) + 25.0)

    setups = [worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain: List[Dict] = []
    durations: List[float] = []
    while True:
        began = time.perf_counter()
        plain.append(worker("plain"))
        durations.append(time.perf_counter() - began)
        estimate = statistics.median(durations)
        # Start another repetition while its midpoint falls inside the
        # budget, so runs end near --seconds on average; a traced run
        # keeps room for its traced repetition.
        needed = estimate * (1.5 if args.trace else 0.5)
        elapsed = time.perf_counter() - started
        if elapsed + needed > min(args.seconds, HARD_LIMIT_S):
            break
    traced = [worker("traced")] if args.trace else []
    return {"setups": setups, "plain": plain, "traced": traced}


def summarize(runs: Dict, trace: bool) -> Dict:
    plain, traced = runs["plain"], runs["traced"]
    records = plain + traced
    digests = {record["digest"] for record in records}
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    if len(digests) > 1:
        # Repetitions disagree: every point of every repetition that
        # differs from the first one is wrong.
        failed += sum(record["attempted"] - record["failed"]
                      for record in records
                      if record["digest"] != records[0]["digest"])
    walls = [record["wall_s"] for record in plain]
    if trace:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_frac"] = (
            traced[0]["wall_s"] / statistics.median(walls) - 1.0
        )
        metrics = {metric.name: {"value": layers[metric.name],
                                 "unit": metric.unit}
                   for metric in LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "acts_per_s": statistics.median(
                record["acts"] / record["wall_s"] for record in plain
            ),
            "peak_rss_mb": statistics.median(
                record["peak_rss_mb"] for record in plain
            ),
            "setup_s": statistics.median(
                runs["setups"] + [record["setup_s"] for record in plain]
            ),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": records[0]["digest"],
        "walls": walls,
        "provenance": plain[0]["provenance"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        runs = measure(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(summary['walls'])} repetitions, "
          f"{summary['attempted']} points attempted, "
          f"{summary['failed']} failed "
          f"(failed_frac {summary['failed'] / summary['attempted']:g})")
    print("repetition wall_s " + " ".join(f"{w:.3f}" for w in summary["walls"]))
    print(f"digest {summary['digest']}")
    print(f"provenance {json.dumps(summary['provenance'], sort_keys=True)}")
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: summary[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
