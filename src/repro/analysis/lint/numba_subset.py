"""The ``numba-subset`` rule: kernel functions stay co-compilable.

The hot-loop kernels run ``numba.njit``-compiled where numba imports
and interpreted in the tests that pin them against the pure loops, and
the bit-identity contract between the two only holds while those
functions stay inside the numba-compatible subset (flat numpy arrays
and scalars; no dicts, sets, closures, comprehensions, ``**kwargs``,
reflection, or context managers). A construct that the interpreter
happily runs but numba cannot compile would silently fork the two the
first time someone installs the ``[fast]`` extra.

The rule finds kernel functions structurally rather than by name: any
function passed through an ``njit(...)``/``njit`` wrapper is checked,
so new kernels are covered the moment they are compiled.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.lint.core import FileContext, Finding

NAME = "numba-subset"

DESCRIPTION = (
    "njit-wrapped kernel functions use only the numba-compatible "
    "subset"
)

#: Reflection / dynamic builtins numba cannot compile.
_FORBIDDEN_CALLS = frozenset({
    "getattr", "setattr", "hasattr", "delattr", "vars", "dir",
    "globals", "locals", "eval", "exec", "compile", "open", "super",
})

_NODE_MESSAGES: Tuple[Tuple[type, str], ...] = (
    (ast.Dict, "a dict literal"),
    (ast.DictComp, "a dict comprehension"),
    (ast.Set, "a set literal"),
    (ast.SetComp, "a set comprehension"),
    (ast.ListComp, "a list comprehension"),
    (ast.GeneratorExp, "a generator expression"),
    (ast.Lambda, "a lambda"),
    (ast.ClassDef, "a class definition"),
    (ast.Try, "a try/except block"),
    (ast.With, "a with block"),
    (ast.Yield, "a yield"),
    (ast.YieldFrom, "a yield from"),
    (ast.Await, "an await"),
    (ast.JoinedStr, "an f-string"),
)


def _is_njit(func: ast.AST) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "njit"
    if isinstance(func, ast.Attribute):
        return func.attr == "njit"
    if isinstance(func, ast.Call):
        return _is_njit(func.func)
    return False


def _kernel_names(tree: ast.Module) -> Set[str]:
    """Names of functions passed through an ``njit`` wrapper."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_njit(node.func):
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    names.add(arg.id)
    return names


def _signature_findings(ctx: FileContext, fn: ast.FunctionDef,
                        label: str) -> Iterator[Finding]:
    args = fn.args
    if args.kwarg is not None:
        yield ctx.finding(NAME, fn, f"{label} takes **{args.kwarg.arg}, "
                          "outside the numba-compatible subset")
    if args.vararg is not None:
        yield ctx.finding(NAME, fn, f"{label} takes *{args.vararg.arg}, "
                          "outside the numba-compatible subset")
    if args.kwonlyargs:
        yield ctx.finding(NAME, fn, f"{label} has keyword-only "
                          "arguments, outside the numba-compatible subset")
    if args.defaults or args.kw_defaults:
        yield ctx.finding(NAME, fn, f"{label} has default argument "
                          "values, outside the numba-compatible subset")


def check(ctx: FileContext) -> Iterator[Finding]:
    kernels = _kernel_names(ctx.tree)
    if not kernels:
        return
    functions: List[ast.FunctionDef] = [
        node for node in ast.walk(ctx.tree)
        if isinstance(node, ast.FunctionDef) and node.name in kernels
    ]
    for fn in functions:
        label = f"kernel '{fn.name}'"
        yield from _signature_findings(ctx, fn, label)
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield ctx.finding(NAME, node, (
                    f"{label} defines nested function '{node.name}' "
                    "(a closure), outside the numba-compatible subset"
                ))
                continue
            for node_type, what in _NODE_MESSAGES:
                if isinstance(node, node_type):
                    yield ctx.finding(NAME, node, (
                        f"{label} uses {what}, outside the "
                        "numba-compatible subset"
                    ))
                    break
            if isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Name)
                        and node.func.id in _FORBIDDEN_CALLS):
                    yield ctx.finding(NAME, node, (
                        f"{label} calls {node.func.id}(), outside the "
                        "numba-compatible subset"
                    ))
                for keyword in node.keywords:
                    if keyword.arg is None:
                        yield ctx.finding(NAME, node, (
                            f"{label} uses **-unpacking in a call, "
                            "outside the numba-compatible subset"
                        ))
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        yield ctx.finding(NAME, node, (
                            f"{label} uses *-unpacking in a call, "
                            "outside the numba-compatible subset"
                        ))
