"""Order-preserving max structure for mitigate-the-maximum trackers.

Several trackers pick "the row with the maximal count, ties to the
earliest live insertion" at every mitigation opportunity: the
Misra-Gries tables of TRR and Graphene, TRR-Ideal's per-victim
counters and the idealized per-row scheme. In hardware that global
maximum is the expensive part (a scan over thousands of entries is
why the paper rejects these designs); in the simulator a linear scan
per decision made selection the dominant host cost of every policy
that uses it.

:class:`OrderedMax` keeps the (row, count) pairs in *slot positions*
assigned in insertion order, plus a tournament tree whose internal
nodes hold the winning position of their subtree. The winner of two
positions is the larger count, and on equal counts the lower position
— so the root is exactly the first maximal entry in insertion order,
whatever the tree's shape. The tree uses the implicit heap layout over
``cap`` leaves (leaf ``p`` is node ``cap + p``; node ``i`` has children
``2i`` and ``2i + 1``), storing only the ``cap`` internal nodes.

* Raising a count walks up from the leaf and stops at the first node
  whose winner does not change.
* Lowering a count (or removing an entry) recomputes only the nodes the
  entry was winning.
* Removal marks the slot dead (count :data:`DEAD`) instead of shifting
  the slots behind it, so the survivors keep their positions. Live
  slots are compacted stably only when an insertion finds no free
  position (or a Misra-Gries decrement empties slots of a full table);
  the position capacity doubles, up to ``limit``, when more than half
  of it is live, so memory follows the live entries rather than the
  table's worst-case size.
* Compaction moves positions, so it leaves the tree *stale*: the next
  :meth:`OrderedMax.best` rebuilds it bottom-up, and updates in between
  skip it. Trees of at most :data:`QUERY_REBUILD_CAP` leaves stay stale
  for good — rebuilt by every query, never walked — because a small
  tracker (TRR's 16 entries) sees tens of updates per selection, and
  one rebuild then costs less than walking the tree on each of them.

Counts are non-negative; dead and unused slots hold :data:`DEAD`.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, MutableMapping, Tuple, Union

#: Count of a dead or unused slot (below every live count).
DEAD = -1

#: Position capacity a table starts with (grown on demand up to its
#: ``limit``).
INITIAL_CAPACITY = 64

#: Trees over at most this many slot positions are rebuilt by every
#: query instead of being maintained per update.
QUERY_REBUILD_CAP = 64

#: Row -> slot position map, kept current by the structure on insertion
#: and compaction: a dict (absent rows missing) or an array indexed by
#: row (absent rows ``-1``). Removing a row from it is the owner's job,
#: except in :meth:`OrderedMax.decrement_all`.
SlotIndex = Union[MutableMapping[int, int], "array[int]"]


class OrderedMax:
    """Insertion-ordered (row, count) slots with an O(log n) first-max.

    ``rows`` and ``counts`` are updated in place (never replaced), so
    owners may hold on to them.

    Args:
        limit: Most slot positions the structure ever allocates; at
            least the most entries live at once.
        index: The owner's row -> position map (see :data:`SlotIndex`).
    """

    __slots__ = ("rows", "counts", "_win", "_cap", "stale", "limit",
                 "top", "live", "index")

    def __init__(self, limit: int, index: SlotIndex) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        self.index = index
        #: Row held by each position (stale in dead slots). Rows and
        #: tree nodes are typed arrays, so no int object is kept per
        #: slot; counts stay a list, read on every step of a walk.
        self.rows = array("q")
        #: Count held by each position (:data:`DEAD` when not live).
        self.counts: List[int] = []
        #: Winning position of each internal node.
        self._win = array("q")
        self._cap = 0
        #: The tree awaits a rebuild (positions moved since it was
        #: built, or the table is small): :meth:`best` rebuilds it, and
        #: until then an owner may raise a live count by writing
        #: :attr:`counts` directly.
        self.stale = True
        #: Positions handed out since the last compaction.
        self.top = 0
        #: Live entries.
        self.live = 0
        self._compact(min(limit, INITIAL_CAPACITY), 0)

    def __len__(self) -> int:
        return self.live

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def best(self) -> int:
        """Position of the first maximal live entry (-1 when empty)."""
        if self.stale:
            self._build()
        pos = self._win[1]
        return pos if self.counts[pos] != DEAD else -1

    def items(self) -> Iterator[Tuple[int, int]]:
        """Live ``(row, count)`` pairs in insertion order."""
        rows, counts = self.rows, self.counts
        for pos in range(self.top):
            if counts[pos] != DEAD:
                yield rows[pos], counts[pos]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, row: int, count: int) -> int:
        """Track ``row`` at the back of the order; returns its position."""
        pos = self.top
        if pos == self._cap:
            cap = self._cap
            self._compact(
                min(self.limit, 2 * cap) if 2 * self.live > cap else cap, 0
            )
            pos = self.top
        self.top = pos + 1
        self.live += 1
        self.rows[pos] = row
        self.counts[pos] = count
        self.index[row] = pos
        if not self.stale:
            self.add(pos, 0)
        return pos

    def add(self, pos: int, delta: int) -> int:
        """Add ``delta`` (>= 0) to the live count at ``pos``; returns the
        new count. The tree walk stops at the first node whose winner
        does not change."""
        counts = self.counts
        count = counts[pos] + delta
        counts[pos] = count
        win = self._win
        if self.stale or win[1] == pos:
            return count
        node = (self._cap + pos) >> 1
        while node:
            holder = win[node]
            if holder != pos:
                other = counts[holder]
                if other > count or (other == count and holder < pos):
                    break
                win[node] = pos
            node >>= 1
        return count

    def lowered(self, pos: int) -> None:
        """Restore the tree after ``counts[pos]`` shrank: only nodes
        ``pos`` was winning can change."""
        if self.stale:
            return
        win, counts, cap = self._win, self.counts, self._cap
        node = (cap + pos) >> 1
        while node and win[node] == pos:
            left = node << 1
            a = win[left] if left < cap else left - cap
            b = win[left + 1] if left + 1 < cap else left + 1 - cap
            count_a, count_b = counts[a], counts[b]
            win[node] = (
                a if count_a > count_b or (count_a == count_b and a < b)
                else b
            )
            node >>= 1

    def kill(self, pos: int) -> int:
        """Remove the live entry at ``pos``; returns its row. The caller
        drops the row from its index."""
        self.counts[pos] = DEAD
        self.live -= 1
        if not self.stale:
            self.lowered(pos)
        return self.rows[pos]

    def decrement_all(self) -> None:
        """Lower every live count by one and remove the entries that
        reach zero (the Misra-Gries conflict step). Removed rows are
        deleted from the index, which must therefore be a dict.

        A uniform decrement keeps every winner, so when nothing empties
        the tree stands. When entries do empty, the same pass compacts
        the survivors stably: a table full enough to need this step has
        no free position, so the next insertion would compact anyway.
        """
        self._compact(self._cap, 1)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def _compact(self, cap: int, drop: int) -> None:
        """Move the live slots stably to the front of ``cap`` positions,
        lowering each count by ``drop`` and removing those that reach
        zero (``drop`` 0 removes nothing)."""
        rows, counts, index = self.rows, self.counts, self.index
        floor = drop if drop else DEAD
        top = self.top
        keep = 0
        for pos in range(top):
            count = counts[pos]
            if count > floor:
                if keep != pos:
                    row = rows[pos]
                    rows[keep] = row
                    index[row] = keep
                counts[keep] = count - drop
                keep += 1
            elif count != DEAD:
                del index[rows[pos]]
        if keep == top and cap == self._cap:
            return
        counts[keep:top] = [DEAD] * (top - keep)
        if cap != self._cap:
            rows.frombytes(bytes(8 * (cap - self._cap)))
            counts.extend([DEAD] * (cap - self._cap))
            self._cap = cap
        self.top = self.live = keep
        self.stale = True

    def _build(self) -> None:
        """Rebuild every internal node bottom-up (node 1 is the root; a
        lone leaf is its own root)."""
        cap, counts = self._cap, self.counts
        # Leaf p (node cap + p) holds p; every internal node below is
        # overwritten before it is read.
        win = array("q", range(-cap, cap))
        for node in range(cap - 1, 0, -1):
            a = win[2 * node]
            b = win[2 * node + 1]
            count_a, count_b = counts[a], counts[b]
            win[node] = (
                a if count_a > count_b or (count_a == count_b and a < b)
                else b
            )
        if cap > 1:
            del win[cap:]
        self._win = win
        self.stale = cap <= QUERY_REBUILD_CAP
