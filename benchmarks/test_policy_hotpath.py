"""Policy hot-path microbenchmark: tournament-tree selection vs a scan.

Graphene (a securely sized Misra-Gries table, 34,305 entries at
T_RH = 32) and TRR-Ideal's per-victim counters both mitigate "the row
with the maximal count, ties to the earliest insertion". Their host
structure (:class:`repro.mitigations.ordered_max.OrderedMax`) answers
that in O(log n); the linear scans it replaced survive here, and in
``tests/mitigations/test_state_properties.py``, only as oracles.

One fixed ACT/select stream (a fill phase that populates most of the
table, then hot rows hammered among fresh cold rows, with a proactive
selection every few dozen ACTs) drives both the policies and in-test
scan oracles. Every selection must agree; the time spent inside the
selections must be at least 5x lower than the scan's at full Graphene
size. Rows land in ``results/summary.json`` under ``policy_hotpath``.
"""

import random
import time
from typing import Dict, List, Optional, Tuple

from repro.mitigations.graphene import make_graphene
from repro.mitigations.victim_counter import VictimCounterPolicy
from repro.report.tables import format_table

ROWS = 1 << 16
#: Distinct cold rows activated before the timed selections begin.
FILL_ROWS = 30000
SELECTIONS = 200
ACTS_PER_SELECTION = 40
HOT_ROWS = 8
ETH = 16
REQUIRED_SPEEDUP = 5.0


def _stream(seed: int = 0) -> List[Tuple[List[int], bool]]:
    """``(acts, select_after)`` chunks: a fill chunk, then
    ``SELECTIONS`` chunks of ``ACTS_PER_SELECTION`` ACTs each."""
    rng = random.Random(seed)
    cold = list(range(ROWS))
    rng.shuffle(cold)
    hot = cold[-HOT_ROWS:]
    fill = cold[:FILL_ROWS] + [row for row in hot for _ in range(64)]
    rng.shuffle(fill)
    chunks = [(fill, False)]
    pointer = FILL_ROWS
    for _ in range(SELECTIONS):
        acts = []
        for _ in range(ACTS_PER_SELECTION):
            if rng.random() < 0.5:
                acts.append(hot[rng.randrange(HOT_ROWS)])
            else:
                acts.append(cold[pointer % (ROWS - HOT_ROWS)])
                pointer += 1
        chunks.append((acts, True))
    return chunks


def _first_max(table: Dict[int, int]) -> Optional[Tuple[int, int]]:
    best = None
    for row, count in table.items():
        if best is None or count > best[1]:
            best = (row, count)
    return best


class ScanGraphene:
    """Dict Misra-Gries with the scan-based mitigate-max."""

    def __init__(self, entries: int, threshold: int) -> None:
        self.entries = entries
        self.threshold = threshold
        self.table: Dict[int, int] = {}

    def on_activate(self, row: int, count: int) -> None:
        table = self.table
        if row in table:
            table[row] += 1
        elif len(table) < self.entries:
            table[row] = 1
        else:
            self.table = {r: c - 1 for r, c in table.items() if c > 1}

    def select_proactive(self) -> Optional[int]:
        best = _first_max(self.table)
        if best is None or best[1] < self.threshold:
            return None
        del self.table[best[0]]
        return best[0]


class ScanVictimCounter:
    """Dict per-victim counters with the scan-based global max."""

    def __init__(self, eth: int, blast_radius: int = 2) -> None:
        self.eth = eth
        self.blast_radius = blast_radius
        self.table: Dict[int, int] = {}

    def on_activate(self, row: int, count: int) -> None:
        table = self.table
        for victim in range(max(0, row - self.blast_radius),
                            min(ROWS - 1, row + self.blast_radius) + 1):
            if victim != row:
                table[victim] = table.get(victim, 0) + 1

    def select_proactive(self) -> Optional[int]:
        best = _first_max(self.table)
        if best is None or best[1] <= self.eth:
            return None
        del self.table[best[0]]
        return best[0]


def _drive(policy, chunks) -> Tuple[List[Optional[int]], float]:
    """Run the stream; returns the selections and the seconds spent
    inside ``select_proactive``."""
    on_activate = policy.on_activate
    select = policy.select_proactive
    picks: List[Optional[int]] = []
    select_s = 0.0
    for acts, select_after in chunks:
        for row in acts:
            on_activate(row, 0)
        if select_after:
            started = time.perf_counter()
            picks.append(select())
            select_s += time.perf_counter() - started
    return picks, select_s


def test_policy_selection_speedup(report, record_json):
    chunks = _stream()
    graphene = make_graphene(32)
    assert graphene.entries == 34305
    cases = {
        "graphene": (
            graphene,
            ScanGraphene(graphene.entries, graphene.mitigation_threshold),
        ),
        "victim-counter": (
            VictimCounterPolicy(eth=ETH, num_rows=ROWS),
            ScanVictimCounter(eth=ETH),
        ),
    }
    measured = {}
    for name, (policy, oracle) in cases.items():
        picks, tree_s = _drive(policy, chunks)
        expected, scan_s = _drive(oracle, chunks)
        assert picks == expected, f"{name}: selections diverge from the scan"
        assert sum(pick is not None for pick in picks) > SELECTIONS // 2
        measured[name] = {
            "tree_us_per_select": tree_s / SELECTIONS * 1e6,
            "scan_us_per_select": scan_s / SELECTIONS * 1e6,
            "speedup": scan_s / tree_s,
        }

    report(
        format_table(
            ["policy", "tree us/select", "scan us/select", "speedup"],
            [
                (name, f"{row['tree_us_per_select']:.1f}",
                 f"{row['scan_us_per_select']:.1f}",
                 f"{row['speedup']:.0f}x")
                for name, row in measured.items()
            ],
            title="Policy hot path - tournament-tree vs scan selection",
        )
    )
    record_json(
        {
            "policies": measured,
            "selections": SELECTIONS,
            "fill_rows": FILL_ROWS,
            "graphene_entries": graphene.entries,
            "required_speedup": REQUIRED_SPEEDUP,
        },
        key="policy_hotpath",
    )
    speedup = measured["graphene"]["speedup"]
    assert speedup >= REQUIRED_SPEEDUP, (
        f"Graphene selection only {speedup:.1f}x faster than the scan "
        f"(need {REQUIRED_SPEEDUP}x)"
    )
