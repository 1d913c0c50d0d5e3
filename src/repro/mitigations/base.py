"""Base interface for in-DRAM mitigation policies.

A policy observes activations on its bank (through the defense-visible
counter value supplied by the refresh engine), selects aggressor rows
for *proactive* mitigation (performed transparently during REF at a
fixed rate) and may request *reactive* mitigation through the ABO ALERT
mechanism. The simulator owns the clock and the bank; the policy owns
only its SRAM-resident tracking state.
"""

from __future__ import annotations

import abc
from array import array
from typing import Dict, List, Optional, Tuple

from repro.mitigations.ordered_max import OrderedMax


class CounterTable(OrderedMax):
    """Per-row counters with the observable semantics of an
    insertion-ordered dict and an O(log n) first-max.

    Policies that keep one counter per row (victim counting, per-row
    count mirrors) used to store them in a dict keyed by row; at
    workload scale the per-activation hash churn dominated the hot path
    and ``max`` over the dict dominated every selection. This table
    indexes rows through a flat row -> slot array (no hashing) and keeps
    the counters in :class:`~repro.mitigations.ordered_max.OrderedMax`
    slots while preserving the dict's semantics — first-touch iteration
    order, first-max :meth:`argmax` tie-breaking, re-insertion after
    removal moving a row to the back — so a policy switched onto it
    produces bit-identical simulation results.

    A removed row's slot is marked dead in place; slots are compacted
    stably when an insertion finds none free, and the slot capacity
    doubles (up to ``num_rows``) only when more than half of it is
    live. Iteration visits every slot handed out since the last
    compaction: at most the capacity, which stays below four times the
    peak live-row count (or the initial 64 slots). Counts must be
    non-negative.
    """

    __slots__ = ()

    def __init__(self, num_rows: int) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        #: A row's slot position (-1 = not tracked).
        super().__init__(num_rows, array("q", [-1]) * num_rows)

    def __contains__(self, row: int) -> bool:
        return self.index[row] >= 0

    def get(self, row: int) -> int:
        """Count for ``row`` (0 when untracked)."""
        pos = self.index[row]
        return self.counts[pos] if pos >= 0 else 0

    def increment(self, row: int, delta: int = 1) -> int:
        """Add ``delta`` (>= 0) to ``row``'s counter, tracking it if new."""
        pos = self.index[row]
        if pos < 0:
            self.insert(row, delta)
            return delta
        return self.add(pos, delta)

    def set(self, row: int, count: int) -> None:
        """Set ``row``'s counter; a tracked row keeps its position."""
        pos = self.index[row]
        if pos < 0:
            self.insert(row, count)
            return
        old = self.counts[pos]
        if count >= old:
            self.add(pos, count - old)
        else:
            self.counts[pos] = count
            self.lowered(pos)

    def remove(self, row: int) -> bool:
        """Drop ``row``'s counter; returns whether it was tracked."""
        pos = self.index[row]
        if pos < 0:
            return False
        self.kill(pos)
        self.index[row] = -1
        return True

    def argmax(self) -> Optional[Tuple[int, int]]:
        """The first-touched row holding the maximal count, or ``None``
        when the table is empty (ties resolve to the earliest touch,
        like ``max`` over an insertion-ordered dict)."""
        pos = self.best()
        if pos < 0:
            return None
        return self.rows[pos], self.counts[pos]

    def max_count(self) -> int:
        """Largest live count (0 when empty)."""
        pos = self.best()
        return self.counts[pos] if pos >= 0 else 0

    def as_dict(self) -> Dict[int, int]:
        """Dict snapshot in first-touch order (tests, reporting)."""
        return dict(self.items())


class MitigationPolicy(abc.ABC):
    """Abstract in-DRAM Rowhammer mitigation policy (one per bank)."""

    #: Human-readable policy name, used in reports.
    name: str = "abstract"
    #: Set by policies that need the list of refreshed rows in
    #: :meth:`on_ref` (the engine skips materializing it otherwise).
    wants_refresh_notifications: bool = False

    def __init__(self) -> None:
        #: Set when the policy wants an ALERT; the simulator forwards it
        #: to the ABO protocol and clears it when the ALERT is serviced.
        self.alert_requested = False
        #: Counters for reporting.
        self.proactive_mitigations = 0
        self.reactive_mitigations = 0

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def on_activate(self, row: int, count: int) -> None:
        """Observe an activation of ``row`` with defense-visible ``count``.

        ``count`` already includes this activation (PRAC performs the
        read-modify-write during the precharge of this very access).
        The policy may set :attr:`alert_requested` here.
        """

    @abc.abstractmethod
    def select_proactive(self) -> Optional[int]:
        """Pick the aggressor row to mitigate at a mitigation-period
        boundary, or ``None`` if nothing is eligible.

        The simulator performs the actual victim refresh and then calls
        :meth:`on_mitigated`.
        """

    @abc.abstractmethod
    def select_reactive(self, max_rows: int) -> List[int]:
        """Pick up to ``max_rows`` aggressor rows to mitigate during an
        ALERT's RFM commands (``max_rows`` equals the ABO level)."""

    def needs_alert(self) -> bool:
        """Re-sampled ALERT condition: does the policy still hold state
        that requires reactive mitigation? Consulted after an ALERT
        episode completes, so a request whose trigger was already
        serviced does not fire a spurious follow-up ALERT."""
        return False

    def on_mitigated(self, row: int) -> None:
        """Notification that ``row`` was mitigated (victims refreshed,
        counter reset). Policies drop any tracking state for the row."""

    def on_ref(self, refreshed_rows: List[int]) -> None:
        """Notification that a refresh group was refreshed (counters in
        it may have been reset). Most policies ignore this."""

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def sram_bytes(self) -> int:
        """SRAM cost of the policy's tracking state, in bytes per bank."""
        return 0

    def describe(self) -> str:
        return f"{self.name} (SRAM: {self.sram_bytes()} B/bank)"
