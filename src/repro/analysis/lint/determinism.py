"""The ``determinism`` rule: no hidden entropy inside simulation code.

Every equivalence claim the repo makes — parallel == serial sweeps,
pure loops == compiled kernels, zero-tolerance baseline
gates — holds only if simulation results are a pure function of their
config. This rule flags the constructs that silently break that inside
the simulation packages (``sim``, ``mc``, ``system``, ``attacks``,
``workloads``):

* process-global randomness: module-level ``random.*`` calls,
  unseeded ``random.Random()``, any ``random.SystemRandom`` — seeded
  per-run ``random.Random(seed_expr)`` instances are the sanctioned
  spelling (see :func:`repro.mitigations.registry._build_para`);
* wall-clock reads that could leak into results: ``time.time()`` /
  ``time.time_ns()``, ``datetime.now()`` / ``utcnow()`` / ``today()``
  (monotonic clocks like ``time.perf_counter`` are out of scope here —
  the ``telemetry-purity`` rule confines them to the sanctioned
  telemetry scopes repo-wide);
* iteration over sets (literals, comprehensions, ``set()`` /
  ``frozenset()`` calls, ``.union``-style results): set order depends
  on hash seeding, so results fed from a bare set walk are not
  reproducible across processes — wrap the iterable in ``sorted()``.

Dicts are deliberately not flagged: insertion order is a language
guarantee since Python 3.7, and the codebase leans on it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.lint.core import (
    FileContext,
    Finding,
    dotted_chain,
    import_aliases,
    normalize_chain,
)

NAME = "determinism"

DESCRIPTION = (
    "no unseeded RNG, wall-clock reads, or bare set iteration inside "
    "the simulation packages (sim/mc/system/attacks/workloads)"
)

#: Directories (path segments) the rule applies to.
DEFAULT_PACKAGES: Tuple[str, ...] = (
    "sim", "mc", "system", "attacks", "workloads",
)

#: Module-level functions of :mod:`random` that draw from (or mutate)
#: the process-global RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

_SET_METHODS = frozenset({
    "difference", "intersection", "symmetric_difference", "union",
})


def _set_origin(node: ast.AST) -> Optional[str]:
    """How ``node`` is recognizably a set, or ``None``."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return f"set.{func.attr}()"
    return None


def check(ctx: FileContext,
          packages: Tuple[str, ...] = DEFAULT_PACKAGES) -> Iterator[Finding]:
    if not any(part in packages for part in ctx.path_parts[:-1]):
        return
    modules, members = import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            chain = dotted_chain(node.func)
            if chain is None:
                continue
            chain = normalize_chain(chain, modules, members)
            if chain[0] == "random" and len(chain) == 2:
                fn = chain[1]
                if fn in _GLOBAL_RANDOM_FNS:
                    yield ctx.finding(NAME, node, (
                        f"random.{fn}() draws from the process-global "
                        "RNG; use a random.Random(seed) derived from "
                        "the run config"
                    ))
                elif fn == "Random" and not node.args and not node.keywords:
                    yield ctx.finding(NAME, node, (
                        "unseeded random.Random() is seeded from OS "
                        "entropy; pass a seed derived from the run "
                        "config"
                    ))
                elif fn == "SystemRandom":
                    yield ctx.finding(NAME, node, (
                        "random.SystemRandom cannot be seeded; "
                        "simulation code must use random.Random(seed)"
                    ))
            elif chain[0] == "time" and len(chain) == 2 and (
                    chain[1] in ("time", "time_ns")):
                yield ctx.finding(NAME, node, (
                    f"time.{chain[1]}() reads the wall clock; results "
                    "must depend only on the run config (use the "
                    "simulated clock, or wall_timer() from "
                    "repro.sweep.runner for telemetry-only wall time)"
                ))
            elif chain[-1] in _DATETIME_FNS and (
                    "datetime" in chain[:-1] or "date" in chain[:-1]):
                yield ctx.finding(NAME, node, (
                    f"{'.'.join(chain)}() reads the wall clock; "
                    "simulation code must not depend on the host date"
                ))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            origin = _set_origin(node.iter)
            if origin is not None:
                yield ctx.finding(NAME, node.iter, (
                    f"iterating {origin} has hash-seed-dependent "
                    "order; wrap it in sorted(...) before it feeds "
                    "results or hashes"
                ))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                origin = _set_origin(generator.iter)
                if origin is not None:
                    yield ctx.finding(NAME, generator.iter, (
                        f"comprehension over {origin} has "
                        "hash-seed-dependent order; wrap it in "
                        "sorted(...) before it feeds results or hashes"
                    ))
