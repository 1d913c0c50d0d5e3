"""Idealized transparent per-row-counter mitigation (feinting subject).

This policy models the *purely transparent* scheme of paper Section 2.5
(and ProTRR's TRR-Ideal): perfect per-row activation counts, and at
every mitigation period the row with the globally maximum count is
mitigated. There is no ALERT — mitigation bandwidth is fixed at one
aggressor row per ``k`` tREFI.

Such a scheme is bounded by the feinting attack: with ``n`` activations
available per mitigation period and ``M`` periods per refresh window,
an attacker can push one row to ``n * H(M)`` activations (Table 2 —
2195 at the default rate of one aggressor per 4 tREFI).

Tracking the global maximum requires a max over all counters, which is
why the paper deems this design impractical; it exists here as the
analytical baseline for Table 2. The simulation mirrors the counts in a
:class:`~repro.mitigations.base.CounterTable`, whose tournament tree
finds that maximum in O(log n) host time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mitigations.base import CounterTable, MitigationPolicy


class IdealPerRowPolicy(MitigationPolicy):
    """Mitigate the row with the maximum defense-visible count.

    Args:
        eth: Minimum count for a row to be worth mitigating (0 disables
            the filter; the paper's idealized scheme has none).
        num_rows: Bank size (rows are ``0 .. num_rows - 1``).
    """

    name = "ideal-per-row"
    wants_refresh_notifications = True

    def __init__(self, eth: int = 0, num_rows: int = 64 * 1024) -> None:
        super().__init__()
        self.eth = eth
        #: Mirror of the defense-visible counts of touched rows.
        self._counts = CounterTable(num_rows)

    def on_activate(self, row: int, count: int) -> None:
        self._counts.set(row, count)

    def select_proactive(self) -> Optional[int]:
        found = self._counts.argmax()
        if found is None:
            return None
        row, count = found
        if count <= self.eth:
            return None
        # The engine resets the PRAC counter on mitigation; mirror that.
        self._counts.remove(row)
        return row

    def select_reactive(self, max_rows: int) -> List[int]:
        return []

    def on_ref(self, refreshed_rows: List[int]) -> None:
        remove = self._counts.remove
        for row in refreshed_rows:
            remove(row)

    def sram_bytes(self) -> int:
        """Not SRAM-implementable (requires a global max scan)."""
        return 0
