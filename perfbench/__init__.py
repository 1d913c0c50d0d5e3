"""The repository benchmark: committed sweep presets timed end to end.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`perfbench.workloads`)
repeatedly, each repetition in a fresh interpreter
(:mod:`perfbench.worker`), checks every output against the committed
baselines, and prints the metrics as one JSON line. ``--trace 1`` adds
one repetition with host-time spans around each layer's public entry
points (:mod:`perfbench.spans`) and reports per-layer metrics instead.
"""
