"""The MOAT hot-loop kernels and the pair the platform can run.

The engine and the memory controller each have one narrow hot loop —
the ACT burst between scheduled events (:meth:`SubchannelSim.
activate_many`) and the closed-page request-serving loop
(:meth:`MemoryController.serve_streams`). This module holds both loops
as flat-array kernel functions and resolves, once per process, the
pair the platform can compile: the :func:`numba.njit` kernels when
numba imports, else ``None``, in which case the engine and controller
run their struct-of-arrays python loops. Nothing selects between the
two — both are bit-identical (pinned by the engine/controller
equivalence suites and by every committed baseline), so the choice
can change wall-clock only and never enters a sweep point identity.

The compiled loops specialize the narrow hot case (dense counters,
closed page, single sub-channel, MOAT or the unprotected baseline).
Everything else — PARA's RNG, Graphene's Misra-Gries table, open-page
scheduling, multi-client crossbars — stays on the general pure path,
per-bank and per-run (the Quark approach: specialize the narrow kernel
when the platform can compile it, keep the general path for the long
tail).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

# ---------------------------------------------------------------------------
# Kernel functions
# ---------------------------------------------------------------------------
#
# Written in the numba-compatible subset (numpy arrays and scalars
# only; no dicts, no None, no object attributes) so one source serves
# both the plain interpreter (in tests) and ``numba.njit``.
# All mutable state crosses the boundary through preallocated arrays;
# scalars that must round-trip live in small ``fstate``/``istate``
# vectors. The surrounding wrappers (engine / controller) own every
# event interaction: kernels run only *between* scheduled events and
# return a stop code the wrapper dispatches on.

#: ``fstate`` slots shared by both kernels.
F_NOW = 0          # controller clock (serve) / engine clock (burst)
F_CMD_FREE = 1     # controller: channel command front
F_ADMIT = 2        # controller: per-client admission floor
F_E_NOW = 3        # controller: engine clock mirror
F_E_CHFREE = 4     # controller: engine channel_free mirror
F_LAST = 5         # burst: last issue time / serve: alerting complete

#: ``istate`` slots.
I_NEXT = 0         # serve: next arrival index / burst: row cursor
I_SEQ = 1          # serve: admission sequence counter
I_QUEUED = 2       # serve: total queued requests
I_OUT = 3          # serve: completions produced
I_ACTS = 4         # ACTs performed since the last stats flush
I_FILL = 5         # burst: MOAT tracker fill (serve uses pfill[])
I_ALERT = 6        # burst: alert stop flag / serve: alerting bank

#: Serve-kernel stop codes.
SERVE_DONE = 0       # every request served
SERVE_ADVANCE = 1    # queues empty: wrapper must advance the clock
SERVE_EVENT = 2      # next issue crosses a scheduled event
SERVE_ALERT = 3      # a policy requested an ALERT (ACT committed)


def _act_burst(rows, prac_row, shadow_rows, shadow_counts,
               m_rows, m_counts, fstate, istate,
               t_rc, gap, not_before, next_ref, next_ext, window_end,
               eth, ath, level):
    """Serve one between-events ACT burst to a single bank.

    Mirrors the inner loop of :meth:`SubchannelSim.activate_many`
    exactly: same timing floors, same event gates, same shadow-counter
    and MOAT tracker updates (``level == 0`` means the unprotected
    baseline: no tracker, no ALERT). Stops at the first ACT that would
    interact with a scheduled event, or when a MOAT observation
    crosses ATH (the triggering ACT *is* committed, as in the pure
    loop; the wrapper then latches the ALERT request).
    """
    n = rows.shape[0]
    i = istate[I_NEXT]
    now = fstate[F_NOW]
    channel_free = fstate[F_CMD_FREE]
    bank_free = fstate[F_E_NOW]
    last_start = fstate[F_LAST]
    n_shadow = shadow_rows.shape[0]
    acts = 0
    fill = istate[I_FILL]
    alerting = 0
    while i < n:
        start = now
        if channel_free > start:
            start = channel_free
        if bank_free > start:
            start = bank_free
        if not_before > start:
            start = not_before
        complete = start + t_rc
        if next_ref < complete or next_ext <= start or complete > window_end:
            break
        row = rows[i]
        count = prac_row[row] + 1
        prac_row[row] = count
        for k in range(n_shadow):
            if shadow_rows[k] == row:
                count = shadow_counts[k] + 1
                shadow_counts[k] = count
                break
        i += 1
        acts += 1
        now = start
        last_start = start
        channel_free = start + gap
        bank_free = complete
        if level > 0:
            # MOAT on_activate: refresh a tracked slot, else insert
            # above ETH (replace-first-minimum, only if stronger).
            slot = -1
            for k in range(fill):
                if m_rows[k] == row:
                    slot = k
                    break
            if slot >= 0:
                m_counts[slot] = count
            elif count > eth:
                if fill < level:
                    m_rows[fill] = row
                    m_counts[fill] = count
                    fill += 1
                else:
                    weakest = 0
                    for k in range(1, fill):
                        if m_counts[k] < m_counts[weakest]:
                            weakest = k
                    if count > m_counts[weakest]:
                        m_rows[weakest] = row
                        m_counts[weakest] = count
            if count > ath:
                # Force-track the offender, then request the ALERT.
                tracked = -1
                for k in range(fill):
                    if m_rows[k] == row:
                        tracked = k
                        break
                if tracked < 0:
                    if fill < level:
                        m_rows[fill] = row
                        m_counts[fill] = count
                        fill += 1
                    else:
                        weakest = 0
                        for k in range(1, fill):
                            if m_counts[k] < m_counts[weakest]:
                                weakest = k
                        m_rows[weakest] = row
                        m_counts[weakest] = count
                alerting = 1
                break
    fstate[F_NOW] = now
    fstate[F_CMD_FREE] = channel_free
    fstate[F_E_NOW] = bank_free
    fstate[F_LAST] = last_start
    istate[I_NEXT] = i
    istate[I_ACTS] = acts
    istate[I_FILL] = fill
    istate[I_ALERT] = alerting


def _serve_closed(issue, rbank, rrow,
                  q_seq, q_ridx, q_enq, q_head, q_count, freed,
                  out_ridx, out_enq, out_start, out_complete,
                  prac, shadow_rows, shadow_counts,
                  m_rows, m_counts, pfill, bank_free, acts_per_bank,
                  fstate, istate,
                  cap, n_banks, frfcfs, t_rc, gap, t_cmd_gap,
                  eth, ath, level, next_ref, next_ext, window_end):
    """Serve closed-page requests on one sub-channel until an event.

    One iteration = the exact reference-controller step (in-order
    admission, FCFS/FR-FCFS pick over per-bank ring queues, inline
    engine issue, MOAT/null policy observation). Returns a stop code;
    the wrapper handles whatever the kernel cannot (clock advances,
    REFs, ALERT episodes, external services) and re-enters.
    """
    n = issue.shape[0]
    next_i = istate[I_NEXT]
    seq = istate[I_SEQ]
    queued = istate[I_QUEUED]
    out_n = istate[I_OUT]
    acts = istate[I_ACTS]
    now = fstate[F_NOW]
    cmd_free = fstate[F_CMD_FREE]
    admit_floor = fstate[F_ADMIT]
    e_now = fstate[F_E_NOW]
    e_chfree = fstate[F_E_CHFREE]
    n_shadow = shadow_rows.shape[1]
    code = SERVE_DONE
    while out_n < n:
        # In-order admission of every arrival at or before `now`.
        while next_i < n:
            t = issue[next_i]
            if t > now:
                break
            qi = rbank[next_i]
            if q_count[qi] >= cap:
                break
            enq = t
            if admit_floor > enq:
                enq = admit_floor
            if freed[qi] > enq:
                enq = freed[qi]
            admit_floor = enq
            slot = qi * cap + (q_head[qi] + q_count[qi]) % cap
            q_seq[slot] = seq
            q_ridx[slot] = next_i
            q_enq[slot] = enq
            seq += 1
            q_count[qi] += 1
            queued += 1
            next_i += 1
        if queued == 0:
            code = SERVE_ADVANCE
            break
        # Scheduler pick (closed page: always the queue head).
        best_qi = -1
        best_est = 0.0
        best_seq = 0
        if frfcfs:
            for qi in range(n_banks):
                if q_count[qi] == 0:
                    continue
                est = now
                if cmd_free > est:
                    est = cmd_free
                if bank_free[qi] > est:
                    est = bank_free[qi]
                hseq = q_seq[qi * cap + q_head[qi]]
                if (best_qi < 0 or est < best_est
                        or (est == best_est and hseq < best_seq)):
                    best_qi = qi
                    best_est = est
                    best_seq = hseq
        else:
            for qi in range(n_banks):
                if q_count[qi] == 0:
                    continue
                hseq = q_seq[qi * cap + q_head[qi]]
                if best_qi < 0 or hseq < best_seq:
                    best_qi = qi
                    best_seq = hseq
        qi = best_qi
        # Inline engine issue, gated on scheduled events.
        start = e_now
        if e_chfree > start:
            start = e_chfree
        if bank_free[qi] > start:
            start = bank_free[qi]
        if cmd_free > start:
            start = cmd_free
        complete = start + t_rc
        if next_ref < complete or next_ext <= start or complete > window_end:
            code = SERVE_EVENT
            break
        head = q_head[qi]
        slot = qi * cap + head
        ridx = q_ridx[slot]
        enq = q_enq[slot]
        was_full = q_count[qi] == cap
        q_head[qi] = (head + 1) % cap
        q_count[qi] -= 1
        queued -= 1
        row = rrow[ridx]
        count = prac[qi, row] + 1
        prac[qi, row] = count
        for k in range(n_shadow):
            if shadow_rows[qi, k] == row:
                count = shadow_counts[qi, k] + 1
                shadow_counts[qi, k] = count
                break
        acts += 1
        acts_per_bank[qi] += 1
        e_now = start
        e_chfree = start + gap
        bank_free[qi] = complete
        cmd_free = start + t_cmd_gap
        if was_full:
            freed[qi] = start
        if start > now:
            now = start
        out_ridx[out_n] = ridx
        out_enq[out_n] = enq
        out_start[out_n] = start
        out_complete[out_n] = complete
        out_n += 1
        if level > 0:
            fill = pfill[qi]
            slot2 = -1
            for k in range(fill):
                if m_rows[qi, k] == row:
                    slot2 = k
                    break
            if slot2 >= 0:
                m_counts[qi, slot2] = count
            elif count > eth:
                if fill < level:
                    m_rows[qi, fill] = row
                    m_counts[qi, fill] = count
                    pfill[qi] = fill + 1
                else:
                    weakest = 0
                    for k in range(1, fill):
                        if m_counts[qi, k] < m_counts[qi, weakest]:
                            weakest = k
                    if count > m_counts[qi, weakest]:
                        m_rows[qi, weakest] = row
                        m_counts[qi, weakest] = count
            if count > ath:
                fill = pfill[qi]
                tracked = -1
                for k in range(fill):
                    if m_rows[qi, k] == row:
                        tracked = k
                        break
                if tracked < 0:
                    if fill < level:
                        m_rows[qi, fill] = row
                        m_counts[qi, fill] = count
                        pfill[qi] = fill + 1
                    else:
                        weakest = 0
                        for k in range(1, fill):
                            if m_counts[qi, k] < m_counts[qi, weakest]:
                                weakest = k
                        m_rows[qi, weakest] = row
                        m_counts[qi, weakest] = count
                fstate[F_LAST] = complete
                istate[I_ALERT] = qi
                code = SERVE_ALERT
                break
    istate[I_NEXT] = next_i
    istate[I_SEQ] = seq
    istate[I_QUEUED] = queued
    istate[I_OUT] = out_n
    istate[I_ACTS] = acts
    fstate[F_NOW] = now
    fstate[F_CMD_FREE] = cmd_free
    fstate[F_ADMIT] = admit_floor
    fstate[F_E_NOW] = e_now
    fstate[F_E_CHFREE] = e_chfree
    return code


class Kernels(NamedTuple):
    """A kernel pair and the name run provenance records for it."""

    name: str
    act_burst: Callable
    serve_closed: Callable


#: Sentinel: :func:`platform_kernels` has not probed numba yet.
_UNRESOLVED = object()
_kernels = _UNRESOLVED


def platform_kernels() -> Optional[Kernels]:
    """The ``njit``-compiled kernel pair, or ``None`` without numba.

    Resolved once, on first use; simulators read it at construction.
    """
    global _kernels
    if _kernels is _UNRESOLVED:
        try:
            from numba import njit  # noqa: deferred heavy import
        except ImportError:
            _kernels = None
        else:
            _kernels = Kernels(
                "numba",
                njit(cache=True)(_act_burst),
                njit(cache=True)(_serve_closed),
            )
    return _kernels
