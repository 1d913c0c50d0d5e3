"""Property-based tests of the array-backed policy state (PR 2's
flat-array refactor), driven by randomized ACT sequences.

The layered-core refactor replaced dict-backed tracking with
preallocated parallel arrays whose *observable semantics* must remain
those of an insertion-ordered dict: first-touch iteration order,
first-max tie-breaking, stable compaction of surviving slots. These
invariants were pinned point-wise when the refactor landed; here
hypothesis hammers them with arbitrary activation/removal sequences
against straightforward dict reference models.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.mitigations.base import CounterTable
from repro.mitigations.graphene import make_graphene
from repro.mitigations.ideal_perrow import IdealPerRowPolicy
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.ordered_max import INITIAL_CAPACITY
from repro.mitigations.trr import TrrTracker

ROWS = 48  # small row space => plenty of collisions and evictions

#: A randomized ACT stream over a deliberately tiny row space.
act_sequences = st.lists(
    st.integers(min_value=0, max_value=ROWS - 1), max_size=400
)

#: Interleaved CounterTable operations.
table_ops = st.lists(
    st.tuples(
        st.sampled_from(["inc", "remove"]),
        st.integers(min_value=0, max_value=ROWS - 1),
    ),
    max_size=400,
)


class DictCounterReference:
    """Insertion-ordered dict model of :class:`CounterTable`."""

    def __init__(self) -> None:
        self.counts = {}

    def increment(self, row: int, delta: int = 1) -> int:
        self.counts[row] = self.counts.get(row, 0) + delta
        return self.counts[row]

    def remove(self, row: int) -> bool:
        return self.counts.pop(row, None) is not None

    def set(self, row: int, count: int) -> None:
        self.counts[row] = count

    def argmax(self):
        best = None
        for row, count in self.counts.items():
            if best is None or count > best[1]:
                best = (row, count)
        return best


def scan_select(table, threshold):
    """The linear-scan mitigate-max: the first maximal entry in
    insertion order, removed when it reaches ``threshold``."""
    best = None
    for row, count in table.items():
        if best is None or count > best[1]:
            best = (row, count)
    if best is None or best[1] < threshold:
        return None
    del table[best[0]]
    return best[0]


def reference_misra_gries(sequence, entries):
    """Dict-based Misra-Gries with stable decrement-all compaction."""
    table = {}
    for row in sequence:
        if row in table:
            table[row] += 1
        elif len(table) < entries:
            table[row] = 1
        else:
            table = {r: c - 1 for r, c in table.items() if c - 1 > 0}
    return table


class TestCounterTableProperties:
    @given(ops=table_ops)
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_reference(self, ops):
        """Every operation's return value and the final ordered state
        agree with an insertion-ordered dict."""
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for op, row in ops:
            if op == "inc":
                assert table.increment(row) == reference.increment(row)
            else:
                assert table.remove(row) == reference.remove(row)
        assert table.as_dict() == reference.counts
        assert list(table.items()) == list(reference.counts.items())
        assert len(table) == len(reference.counts)
        for row in range(ROWS):
            assert (row in table) == (row in reference.counts)
            assert table.get(row) == reference.counts.get(row, 0)

    @given(ops=table_ops)
    @settings(max_examples=60, deadline=None)
    def test_argmax_ties_break_to_first_touch(self, ops):
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for op, row in ops:
            if op == "inc":
                table.increment(row)
                reference.increment(row)
            else:
                table.remove(row)
                reference.remove(row)
            assert table.argmax() == reference.argmax()
            found = table.argmax()
            assert table.max_count() == (found[1] if found else 0)

    @given(rows=act_sequences)
    @settings(max_examples=40, deadline=None)
    def test_reinsertion_moves_to_back(self, rows):
        """remove + increment re-tracks a row at the back of the order,
        exactly like ``del d[row]; d[row] = 1``."""
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for i, row in enumerate(rows):
            if i % 3 == 2:
                table.remove(row)
                reference.remove(row)
            else:
                table.increment(row)
                reference.increment(row)
        assert list(table.items()) == list(reference.counts.items())

    @given(rows=st.lists(st.integers(0, ROWS - 1), min_size=200,
                         max_size=600))
    @settings(max_examples=20, deadline=None)
    def test_compaction_preserves_order(self, rows):
        """Drive enough churn to run out of slot positions (dead slots
        force a compaction) and confirm survivors keep first-touch
        order."""
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for row in rows:
            table.increment(row)
            reference.increment(row)
            # Remove a sibling row every step: maximal staleness churn.
            victim = (row + 7) % ROWS
            table.remove(victim)
            reference.remove(victim)
        assert list(table.items()) == list(reference.counts.items())


class TestMisraGriesSlotProperties:
    @given(rows=act_sequences,
           entries=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_trr_matches_dict_reference(self, rows, entries):
        """The TRR parallel-array sketch is dict-order identical to the
        reference Misra-Gries for any ACT sequence."""
        tracker = TrrTracker(entries=entries, mitigation_threshold=4)
        for row in rows:
            tracker.on_activate(row, 0)
        assert tracker._table == reference_misra_gries(rows, entries)

    @given(rows=act_sequences)
    @settings(max_examples=30, deadline=None)
    def test_graphene_is_trr_at_secure_size(self, rows):
        """Graphene reuses the same slot arrays; at thousands of
        entries no eviction ever fires for short sequences, so the
        table is exact counting."""
        tracker = make_graphene(trh=64)
        for row in rows:
            tracker.on_activate(row, 0)
        exact = {}
        for row in rows:
            exact[row] = exact.get(row, 0) + 1
        assert tracker._table == exact

    @given(rows=act_sequences,
           entries=st.sampled_from([2, 4, 8]),
           period=st.integers(min_value=5, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_service_keeps_order_identity(self, rows, entries,
                                                      period):
        """Proactive selection (mitigate-max, stable slot removal)
        interleaved with activations stays identical to the dict
        model: select the first maximal entry above threshold, delete
        it, keep the rest in order."""
        threshold = 3
        tracker = TrrTracker(entries=entries,
                             mitigation_threshold=threshold)
        reference = {}

        def reference_activate(row):
            nonlocal reference
            if row in reference:
                reference[row] += 1
            elif len(reference) < entries:
                reference[row] = 1
            else:
                reference = {r: c - 1 for r, c in reference.items()
                             if c - 1 > 0}

        def reference_select():
            best = None
            for row, count in reference.items():
                if best is None or count > best[1]:
                    best = (row, count)
            if best is None or best[1] < threshold:
                return None
            del reference[best[0]]
            return best[0]

        for i, row in enumerate(rows):
            tracker.on_activate(row, 0)
            reference_activate(row)
            if i % period == period - 1:
                assert tracker.select_proactive() == reference_select()
                assert tracker._table == reference
        assert tracker._table == reference

    @given(rows=act_sequences, entries=st.sampled_from([1, 4, 16]))
    @settings(max_examples=40, deadline=None)
    def test_misra_gries_detection_guarantee(self, rows, entries):
        """The sketch's defining property: any row activated more than
        ``len(rows) / (entries + 1)`` times is still tracked."""
        tracker = TrrTracker(entries=entries, mitigation_threshold=1)
        counts = {}
        for row in rows:
            tracker.on_activate(row, 0)
            counts[row] = counts.get(row, 0) + 1
        bound = len(rows) / (entries + 1)
        table = tracker._table
        for row, count in counts.items():
            if count > bound:
                assert row in table, (row, count, bound)

    @given(rows=act_sequences, entries=st.sampled_from([2, 8]),
           period=st.integers(min_value=2, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_slot_index_consistent(self, rows, entries, period):
        """The row -> slot index and the slot arrays never drift: every
        indexed row sits in a live slot holding it, and every live slot
        is indexed (across decrement-all compaction and mitigation)."""
        tracker = TrrTracker(entries=entries, mitigation_threshold=2)
        slots = tracker._regfile
        for i, row in enumerate(rows):
            tracker.on_activate(row, 0)
            if i % period == period - 1:
                tracker.select_proactive()
            assert len(tracker._slot) == slots.live
            for r, pos in tracker._slot.items():
                assert slots.rows[pos] == r
                assert slots.counts[pos] > 0
            live = [pos for pos in range(slots.top) if slots.counts[pos] > 0]
            assert sorted(tracker._slot.values()) == live

    @given(rows=act_sequences, entries=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_full_table_decrement_all_keeps_order(self, rows, entries):
        """Step by step, including every decrement-all of a full table,
        the tracked rows, their counts and their insertion order match
        the dict Misra-Gries."""
        tracker = TrrTracker(entries=entries, mitigation_threshold=4)
        reference = {}
        for row in rows:
            tracker.on_activate(row, 0)
            if row in reference:
                reference[row] += 1
            elif len(reference) < entries:
                reference[row] = 1
            else:
                reference = {r: c - 1 for r, c in reference.items()
                             if c - 1 > 0}
            assert list(tracker._table.items()) == list(reference.items())


class TestCounterTableGrowth:
    """Row spaces far above the initial slot capacity: the slot array
    grows, compacts and re-appends while staying dict-identical."""

    @given(seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from([80, 300, 2000]),
           removal=st.floats(min_value=0.0, max_value=0.6))
    @settings(max_examples=25, deadline=None)
    def test_growth_and_compaction_match_dict(self, seed, spread, removal):
        rng = random.Random(seed)
        table = CounterTable(4096)
        reference = DictCounterReference()
        caps = {table._cap}
        for _ in range(3000):
            row = rng.randrange(spread)
            action = rng.random()
            if action < removal:
                assert table.remove(row) == reference.remove(row)
            elif action < removal + 0.1:
                # Overwrites move counts both ways in place.
                count = rng.randrange(6)
                table.set(row, count)
                reference.set(row, count)
            else:
                delta = rng.randrange(3)
                assert table.increment(row, delta) == reference.increment(
                    row, delta
                )
            assert table.argmax() == reference.argmax()
            assert len(table) == len(reference.counts)
            caps.add(table._cap)
        assert list(table.items()) == list(reference.counts.items())
        if spread > 2 * INITIAL_CAPACITY and removal < 0.3:
            assert max(caps) > INITIAL_CAPACITY

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_reinsertion_after_compaction_moves_to_back(self, seed):
        """A row removed and re-touched goes to the back of the order,
        also when a compaction ran in between."""
        rng = random.Random(seed)
        table = CounterTable(1024)
        reference = DictCounterReference()
        for round_ in range(6):
            for row in rng.sample(range(1024), 150):
                table.increment(row)
                reference.increment(row)
            for row in rng.sample(sorted(reference.counts), 100):
                table.remove(row)
                reference.remove(row)
            assert list(table.items()) == list(reference.counts.items())
            assert table.argmax() == reference.argmax()
        assert table.top < 6 * 150


class TestGrapheneFullSize:
    """Long activate/select interleavings on a full-size secure
    Graphene (34,305 entries) against the dict Misra-Gries and the
    scan-based selection, through a full table's decrement-all."""

    @given(seed=st.integers(0, 2**32 - 1),
           hot=st.integers(min_value=1, max_value=24),
           period=st.integers(min_value=250, max_value=2500),
           burst=st.integers(min_value=1, max_value=4))
    @settings(max_examples=4, deadline=None)
    def test_long_interleaving_matches_reference(self, seed, hot, period,
                                                 burst):
        tracker = make_graphene(32)
        entries = tracker.entries
        assert entries == 34305
        threshold = tracker.mitigation_threshold
        rng = random.Random(seed)
        hot_rows = rng.sample(range(1 << 16), hot)
        cold_rows = list(range(1 << 16))
        rng.shuffle(cold_rows)
        reference = {}
        conflicts = 0
        for i in range(entries + 12000):
            if rng.random() < 0.2:
                row = hot_rows[rng.randrange(hot)]
            else:
                row = cold_rows[i % len(cold_rows)]
            tracker.on_activate(row, 0)
            if row in reference:
                reference[row] += 1
            elif len(reference) < entries:
                reference[row] = 1
            else:
                conflicts += 1
                reference = {r: c - 1 for r, c in reference.items()
                             if c > 1}
            if i % period == period - 1:
                for _ in range(burst):
                    assert tracker.select_proactive() == scan_select(
                        reference, threshold
                    )
        assert conflicts > 0
        assert list(tracker._table.items()) == list(reference.items())


class TestIdealPerRowProperties:
    """The PRAC-count mirror against the insertion-ordered dict it
    replaced (``max`` over ``dict.items()``; ties to the first touch)."""

    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.integers(min_value=2, max_value=200),
           eth=st.sampled_from([0, 3]))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, seed, rows, eth):
        rng = random.Random(seed)
        policy = IdealPerRowPolicy(eth=eth, num_rows=256)
        mirror = {}
        prac = {}
        for _ in range(1500):
            action = rng.random()
            if action < 0.8:
                row = rng.randrange(rows)
                prac[row] = prac.get(row, 0) + 1
                policy.on_activate(row, prac[row])
                mirror[row] = prac[row]
            elif action < 0.9:
                expected = None
                if mirror:
                    row, count = max(mirror.items(), key=lambda kv: kv[1])
                    if count > eth:
                        expected = row
                        del mirror[row]
                        prac[row] = 0
                got = policy.select_proactive()
                assert got == expected
            else:
                start = rng.randrange(rows)
                group = list(range(start, min(rows, start + 8)))
                policy.on_ref(group)
                for row in group:
                    mirror.pop(row, None)
                    prac[row] = 0
        assert policy._counts.as_dict() == mirror
        assert list(policy._counts.items()) == list(mirror.items())


class ListMoatReference:
    """Slot-ordered list model of the MOAT register file.

    Mirrors the documented hardware rules: a tracked row's counter is
    kept live; an untracked row above ETH displaces the first-minimal
    entry only if stronger; a row crossing ATH is force-tracked
    (unconditional displacement) and latches the ALERT request.
    """

    def __init__(self, level: int, ath: int, eth: int) -> None:
        self.level, self.ath, self.eth = level, ath, eth
        self.entries = []  # [row, count] in slot order
        self.alert_requested = False
        self.alerts_requested = 0

    def _insert(self, row, count, only_if_stronger=False):
        if len(self.entries) < self.level:
            self.entries.append([row, count])
            return
        weakest = min(range(len(self.entries)),
                      key=lambda i: self.entries[i][1])
        if only_if_stronger and count <= self.entries[weakest][1]:
            return
        self.entries[weakest] = [row, count]

    def on_activate(self, row, count):
        slot = next(
            (i for i, e in enumerate(self.entries) if e[0] == row), -1
        )
        if slot >= 0:
            self.entries[slot][1] = count
        elif count > self.eth:
            self._insert(row, count, only_if_stronger=True)
        if count > self.ath and not self.alert_requested:
            if all(e[0] != row for e in self.entries):
                self._insert(row, count)
            self.alert_requested = True
            self.alerts_requested += 1

    def select_proactive(self):
        if self.entries:
            best = max(range(len(self.entries)),
                       key=lambda i: self.entries[i][1])
            # first maximal in slot order, like the hardware argmax
            for i, e in enumerate(self.entries):
                if e[1] == self.entries[best][1]:
                    best = i
                    break
            self.cma = self.entries.pop(best)[0]
        else:
            self.cma = None


#: Randomized (row, PRAC count) observations as the engine feeds them.
moat_observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=300,
)


class TestMoatRegisterFileProperties:
    """The ``array('q')``-backed MOAT tracker (the storage the kernel
    backends alias through :meth:`state_views`) must keep the exact
    slot semantics of the documented register file."""

    @given(obs=moat_observations, level=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_matches_list_reference(self, obs, level):
        policy = MoatPolicy(ath=24, eth=12, level=level)
        reference = ListMoatReference(level=level, ath=24, eth=12)
        for row, count in obs:
            policy.on_activate(row, count)
            reference.on_activate(row, count)
            # clear the latch like the engine's ALERT machinery does
            policy.alert_requested = False
            reference.alert_requested = False
            assert [
                [e.row, e.count] for e in policy.tracker
            ] == reference.entries
        assert policy.alerts_requested == reference.alerts_requested

    @given(obs=moat_observations, level=st.sampled_from([1, 2, 4]),
           period=st.integers(min_value=3, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_proactive_selection_keeps_slot_order(self, obs, level, period):
        policy = MoatPolicy(ath=1000, eth=12, level=level)
        reference = ListMoatReference(level=level, ath=1000, eth=12)
        for i, (row, count) in enumerate(obs):
            policy.on_activate(row, count)
            reference.on_activate(row, count)
            if i % period == period - 1:
                policy.select_proactive()
                reference.select_proactive()
                assert policy.cma == reference.cma
                assert [
                    [e.row, e.count] for e in policy.tracker
                ] == reference.entries

    @given(obs=moat_observations, level=st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_state_views_alias_live_storage(self, obs, level):
        """The numpy views the kernels mutate are the policy's own
        register file: reads agree with the tracker at every step, and
        a write through the view is a write to the policy."""
        policy = MoatPolicy(ath=24, eth=12, level=level)
        rows_view, counts_view = policy.state_views()
        assert len(rows_view) == len(counts_view) == level
        for row, count in obs:
            policy.on_activate(row, count)
            fill = policy._fill
            assert [
                [e.row, e.count] for e in policy.tracker
            ] == [
                [int(rows_view[i]), int(counts_view[i])] for i in range(fill)
            ]
        if policy._fill:
            counts_view[0] = 77
            assert policy.tracker[0].count == 77
