"""Shared fixtures: small banks, fast timings, and kernel substitution."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.dram.bank import Bank
from repro.dram.timing import DramTiming
from repro.sim import backend

#: The kernel functions executed by the plain interpreter: the exact
#: code numba compiles, runnable (slowly) where numba is missing.
INTERPRETED_KERNELS = backend.Kernels(
    "kernel", backend._act_burst, backend._serve_closed
)


def _kernel_pair(mode: str):
    """``pure``: no kernels (the struct-of-arrays python loops);
    ``kernel``: the interpreted kernels; ``numba``: whatever the
    platform compiles (the pure loops where numba is missing)."""
    if mode == "pure":
        return None
    if mode == "kernel":
        return INTERPRETED_KERNELS
    if mode == "numba":
        return backend.platform_kernels()
    raise ValueError(f"unknown kernel mode {mode!r}")


@pytest.fixture(scope="session")
def use_kernels():
    """``with use_kernels(mode):`` builds simulators on that mode's
    kernel pair. Session-scoped so hypothesis tests can use it."""

    @contextmanager
    def _use(mode: str):
        pair = _kernel_pair(mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend, "_kernels", pair)
            yield

    return _use


@pytest.fixture
def kernels(request, use_kernels):
    """Indirectly parametrized with a kernel mode; installs its pair."""
    with use_kernels(request.param):
        yield request.param


@pytest.fixture
def small_bank() -> Bank:
    """A 256-row bank with danger tracking enabled."""
    return Bank(num_rows=256)


@pytest.fixture
def fast_timing() -> DramTiming:
    """DDR5 timings with a tiny refresh window (64 REFs per tREFW) so
    full-window experiments run in milliseconds."""
    return DramTiming(t_refw=64 * 3900.0)
