"""Fixture tests for the ``numba-subset`` lint rule, plus the pin
that the real hot-loop kernels are in scope and clean."""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.analysis.lint.core import FileContext
from repro.analysis.lint.numba_subset import _kernel_names, check

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

CLEAN_KERNEL = """
    def _burst(arr, n):
        total = 0
        for i in range(n):
            if arr[i] > 0:
                total += arr[i]
        return total

    FAST = njit(cache=True)(_burst)
"""


def test_clean_kernel_passes(lint_rule):
    assert lint_rule(check, CLEAN_KERNEL, rel_path="sim/backend.py") == []


def test_unregistered_function_not_checked(lint_rule):
    # Same forbidden constructs, but the function is never passed
    # through njit -> out of scope.
    findings = lint_rule(check, """
        def helper(n):
            return {i: i for i in range(n)}
    """, rel_path="sim/backend.py")
    assert findings == []


def test_dict_in_kernel_flagged(lint_rule):
    findings = lint_rule(check, """
        def _burst(arr):
            cache = {}
            return cache

        fast = njit(_burst)
    """, rel_path="sim/backend.py")
    assert len(findings) == 1
    assert "dict literal" in findings[0].message


def test_njit_wrapped_function_checked(lint_rule):
    findings = lint_rule(check, """
        def _burst(arr):
            return [x for x in arr]

        fast = njit(cache=True)(_burst)
    """, rel_path="sim/backend.py")
    assert len(findings) == 1
    assert "list comprehension" in findings[0].message


def test_signature_and_call_violations_flagged(lint_rule):
    findings = lint_rule(check, """
        def _burst(arr, **kwargs):
            value = getattr(arr, "sum")
            return value

        fast = njit(_burst)
    """, rel_path="sim/backend.py")
    messages = " | ".join(f.message for f in findings)
    assert "**kwargs" in messages
    assert "getattr()" in messages


def test_closure_and_try_flagged(lint_rule):
    findings = lint_rule(check, """
        def _burst(arr):
            def inner(x):
                return x
            try:
                return inner(arr[0])
            except IndexError:
                return 0

        fast = njit(_burst)
    """, rel_path="sim/backend.py")
    messages = " | ".join(f.message for f in findings)
    assert "closure" in messages
    assert "try/except" in messages


def test_real_backend_kernels_in_scope_and_clean():
    """The rule must actually *see* the production kernels — an
    empty kernel set would make the clean gate vacuous."""
    path = REPO_ROOT / "src/repro/sim/backend.py"
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    kernels = _kernel_names(tree)
    assert {"_act_burst", "_serve_closed"} <= kernels
    ctx = FileContext(path=path, rel_path="src/repro/sim/backend.py",
                      source=source, tree=tree)
    assert [f for f in check(ctx) if not ctx.is_suppressed(f)] == []


def test_real_kernel_with_injected_dict_fails():
    """Injecting a dict into a real kernel body must trip the rule."""
    path = REPO_ROOT / "src/repro/sim/backend.py"
    source = path.read_text(encoding="utf-8")
    assert "def _act_burst(" in source
    broken = source
    marker = "def _act_burst("
    idx = broken.index(marker)
    line_end = broken.index("\n", broken.index("):", idx))
    broken = (broken[:line_end + 1]
              + "    _scratch = {}\n"
              + broken[line_end + 1:])
    ctx = FileContext(path=path, rel_path="src/repro/sim/backend.py",
                      source=broken, tree=ast.parse(broken))
    findings = [f for f in check(ctx) if not ctx.is_suppressed(f)]
    assert any("dict literal" in f.message for f in findings)
