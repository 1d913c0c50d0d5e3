"""TRR-style low-cost SRAM tracker (Misra-Gries frequent-item sketch).

Represents the DDR4-era class of in-DRAM trackers with a handful of
SRAM entries (TRR: 1-30 entries, DSAC: 20, PAT: 8 — paper Section 2.4).
The tracker keeps ``entries`` (row, count) pairs with Misra-Gries
decrement-on-conflict eviction, and mitigates its strongest candidate
each mitigation period.

A Misra-Gries sketch with ``e`` entries only guarantees detection of
rows exceeding ``total_acts / (e + 1)`` activations; an attacker using
more than ``e`` aggressor (or decoy) rows — TRRespass / Blacksmith
style — keeps every count near zero and the tracker blind, which is
exactly what the motivation benchmarks demonstrate.

The table lives in an :class:`~repro.mitigations.ordered_max.OrderedMax`
— the SRAM register file as parallel (row, count) slots in insertion
order, a row-to-slot index, and a tournament tree over the slots — so
the selection and eviction tie-breaks are those of the original
dict-backed implementation while finding the maximum costs O(log n)
instead of a scan. Securely sized Graphene instances
carry thousands of entries, where this matters: a mitigated entry is
marked dead in place (no tail shift, no re-index), and Misra-Gries
decrement-all lowers every count in place and removes only the entries
that reach zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mitigations.base import MitigationPolicy
from repro.mitigations.ordered_max import OrderedMax


class TrrTracker(MitigationPolicy):
    """N-entry Misra-Gries tracker with mitigate-max service.

    Args:
        entries: SRAM tracker capacity (default 16, mid-range for DDR4
            TRR implementations).
        mitigation_threshold: Minimum tracked count for a row to be
            mitigated when its turn comes.
    """

    def __init__(self, entries: int = 16, mitigation_threshold: int = 32) -> None:
        super().__init__()
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.mitigation_threshold = mitigation_threshold
        self.name = f"TRR({entries} entries)"
        #: Row -> slot index of the tracked rows.
        self._slot: Dict[int, int] = {}
        #: Register file: insertion-ordered (row, count) slots.
        self._regfile = OrderedMax(entries, self._slot)

    @property
    def _table(self) -> Dict[int, int]:
        """Inspection view: tracked rows -> counts, insertion order."""
        return dict(self._regfile.items())

    def on_activate(self, row: int, count: int) -> None:
        slots = self._regfile
        pos = self._slot.get(row)
        if pos is not None:
            if slots.stale:
                slots.counts[pos] += 1
            else:
                slots.add(pos, 1)
        elif slots.live < self.entries:
            slots.insert(row, 1)
        else:
            # Misra-Gries conflict: decrement everyone, drop the zeros.
            slots.decrement_all()

    def select_proactive(self) -> Optional[int]:
        slots = self._regfile
        pos = slots.best()
        if pos < 0 or slots.counts[pos] < self.mitigation_threshold:
            return None
        row = slots.kill(pos)
        del self._slot[row]
        return row

    def select_reactive(self, max_rows: int) -> List[int]:
        return []

    def sram_bytes(self) -> int:
        """3 bytes per entry (2 B row address + 1 B count)."""
        return 3 * self.entries
