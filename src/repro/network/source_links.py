"""Every source's bandwidth-limited link, held in flat columns.

The paper's star gives each source its own capacity-constrained link: a
continuous token bucket like :class:`~repro.network.link.Link`, but one
that never queues -- a source self-paces (its priority queue is the send
queue, Sec 8), so a send without credit is refused.  One ``Link`` per
source paid for a FIFO deque, a name and a score of slots no source
uses, about 1 KB per source.  :class:`SourceLinks` instead holds all
``m`` buckets as Python lists indexed by source id; the owning
:class:`~repro.network.topology.Topology` charges sends on them
(``send_upstream`` inlines the charge block).

**Lazy rows.**  Rows whose per-tick refills can be reconstructed skip
the tick loop and are replayed on first touch by :meth:`sync`: steady
profiles by the saturation jump, non-steady
:class:`~repro.network.bandwidth.TraceBandwidth` rows by the segment
walk of :meth:`_sync_trace`.  Any other profile (a sine) stays *eager*
and is refilled each tick by :meth:`refill`.  An eager row stores
:data:`EAGER` as its synced tick, so the topology's "is this row behind
the ticker?" test never fires for it.

Lists rather than numpy arrays, as in the source plane: the protocol
touches one scalar per event, which is faster on a list, and the replay
must run the very float operations of the per-tick schedule.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Sequence

import numpy as np

from repro.network.bandwidth import (
    BandwidthProfile,
    ConstantBandwidth,
    TraceBandwidth,
)

#: Synced-tick sentinel of an eager row: larger than any tick number, so
#: an eager row is never behind the ticker and never replayed.
EAGER = 1 << 62

#: Cap on how many trace segments one lazy-sync jump check scans, bounding
#: the vectorized prefix pass; longer gaps just take another jump.
_JUMP_SPAN = 512


class SourceLinks:
    """Token buckets of ``m`` source links, one row per source id.

    Credit accrues continuously (a send mid-tick uses the capacity
    earned since the last accrual) and is capped once per tick at
    ``max(1, c) + c`` for that tick's earned capacity ``c``, exactly as
    :meth:`Link.refill <repro.network.link.Link.refill>` caps a cache
    link.  ``sends``/``units`` count accepted messages and the credit
    they spent; a source link delivers what it accepts, so one counter
    serves as both sent and delivered.  ``eager`` lists, ascending, the
    rows :meth:`refill` refills every tick.
    """

    __slots__ = ("profile", "const_rate", "trace", "credit", "last_accrue",
                 "tick_added", "synced_tick", "synced_boundary", "sends",
                 "units", "eager")

    def __init__(self, profiles: Sequence[BandwidthProfile]) -> None:
        rows = len(profiles)
        self.profile: list[BandwidthProfile] = list(profiles)
        # Constant rows take the accrual's closed-form fast path; the
        # expression is ConstantBandwidth.capacity verbatim, so the
        # shortcut is bit-identical to the method call it skips.
        self.const_rate: list[float | None] = [
            p._rate if type(p) is ConstantBandwidth else None
            for p in self.profile]
        # Non-steady trace rows get the segment-walk replay; steady ones
        # (flat traces included) keep the cheaper steady jump, so a row's
        # trace is only set when it matters.
        self.trace: list[TraceBandwidth | None] = [
            p if (type(p) is not ConstantBandwidth
                  and isinstance(p, TraceBandwidth)
                  and p.steady_rate is None) else None
            for p in self.profile]
        self.credit = [0.0] * rows
        self.last_accrue = [0.0] * rows
        self.tick_added = [0.0] * rows
        self.sends = [0] * rows
        self.units = [0.0] * rows
        self.classify(True)

    def __len__(self) -> int:
        return len(self.profile)

    # ------------------------------------------------------------------
    # Lazy / eager classification
    # ------------------------------------------------------------------
    def classify(self, lazy: bool) -> None:
        """Mark every replayable row lazy, or every row eager.

        Call before the first network tick: a row turning lazy starts
        its replay at tick 0.  A constant rate or a trace already proves
        a row replayable, so the validating :meth:`set_lazy` only runs
        for the other profiles.
        """
        rows = len(self.profile)
        self.synced_boundary = [0.0] * rows
        if not lazy:
            self.synced_tick = [EAGER] * rows
            self.eager = list(range(rows))
            return
        self.synced_tick = [0] * rows
        self.eager = []
        const_rate, trace, profile = self.const_rate, self.trace, self.profile
        for j in range(rows):
            if const_rate[j] is None and trace[j] is None:
                self.set_lazy(j, profile[j].steady_rate is not None)

    def set_lazy(self, row: int, lazy: bool) -> None:
        """Mark one row lazy or eager (before the first network tick).

        :meth:`sync` replays skipped refills exactly for steady profiles
        (closed-form saturation jump) and piecewise traces (segment-walk
        replay over the cumulative array); any other fluctuating profile
        replayed from the wrong boundary would fabricate credit.  Refuse
        early instead of silently diverging.
        """
        eager = self.eager
        if not lazy:
            if self.synced_tick[row] != EAGER:
                self.synced_tick[row] = EAGER
                insort(eager, row)
            return
        profile = self.profile[row]
        if profile.steady_rate is None and self.trace[row] is None:
            raise ValueError(
                f"source link {row} cannot refill lazily: profile "
                f"{profile!r} is not steady or piecewise (lazy sync "
                f"replays per-tick refills, which is only exact when the "
                f"capacity earned per tick is reconstructible)")
        if self.synced_tick[row] == EAGER:
            self.synced_tick[row] = 0
            self.synced_boundary[row] = 0.0
            eager.remove(row)

    # ------------------------------------------------------------------
    # Per-tick refill (eager rows)
    # ------------------------------------------------------------------
    def refill(self, now: float) -> None:
        """Tick boundary for every eager row: accrue, cap banked credit.

        Carry-over is capped at about one tick of unused credit, which
        permits fractional capacities (0.5 msgs/tick sends one message
        every other tick) without allowing unbounded bursts after idle
        spells.
        """
        credit, last_accrue = self.credit, self.last_accrue
        tick_added, const_rate = self.tick_added, self.const_rate
        for j in self.eager:
            last = last_accrue[j]
            if now > last:
                rate = const_rate[j]
                added = (rate * (now - last) if rate is not None
                         else self.profile[j].capacity(last, now))
                last_accrue[j] = now
                credit[j] += added
                tick_added[j] += added
            tick_capacity = tick_added[j]
            credit[j] = min(credit[j],
                            max(1.0, tick_capacity) + tick_capacity)
            tick_added[j] = 0.0

    # ------------------------------------------------------------------
    # Lazy replay
    # ------------------------------------------------------------------
    def sync(self, row: int, tick_no: int, tick_time: float,
             prev_tick_time: float, dt: float,
             boundaries: list[float] | None = None) -> None:
        """Replay the per-tick refills a lazy row skipped, bit for bit.

        Reconstructs every skipped tick boundary by the same repeated
        ``boundary + dt`` float accumulation the network ticker performs
        (the chains share their starting float, so they are identical),
        and executes :meth:`refill`'s accrue/cap/reset sequence at each
        one -- the identical float operations in the identical order, so
        a lazily-synced row is indistinguishable from an eagerly
        refilled one.  Closed forms are *not* safe here: summing
        ``rate * dt`` per tick and multiplying ``rate * k * dt`` once
        differ in the last ulp for non-dyadic rates, which is enough to
        flip an "at capacity" decision.

        Cost stays O(1) amortized: once the credit saturates at the
        refill cap (or the profile adds nothing), every further tick
        provably reproduces the same state, so the replay jumps straight
        to the final boundary (``prev_tick_time``/``tick_time``, the
        ticker's own floats).  A row therefore replays at most the ticks
        between its last consumption and saturation, never a whole idle
        span.

        Rows on a non-steady :class:`TraceBandwidth` take the
        segment-walk variant instead (:meth:`_sync_trace`), which needs
        the topology's recorded ``boundaries`` (tick index -> tick-time
        float) to jump over saturated in-segment spans; without them it
        replays tick by tick, still exactly.
        """
        pending = tick_no - self.synced_tick[row]
        if pending <= 0:
            return
        rate = self.const_rate[row]
        if rate is None:
            if self.trace[row] is not None:
                self._sync_trace(row, tick_no, tick_time, dt, boundaries)
                return
            capacity = self.profile[row].capacity
        credit = self.credit[row]
        last = self.last_accrue[row]
        tick_added = self.tick_added[row]
        boundary = self.synced_boundary[row]
        while pending > 0:
            boundary = boundary + dt
            if boundary > last:
                added = (rate * (boundary - last) if rate is not None
                         else capacity(last, boundary))
                last = boundary
                credit += added
                tick_added += added
            cap = max(1.0, tick_added) + tick_added
            saturated = credit >= cap or tick_added == 0.0
            credit = min(credit, cap)
            tick_added = 0.0
            pending -= 1
            if pending > 0 and saturated:
                # Saturated: each remaining tick would leave the credit
                # pinned at that tick's cap, so only the final boundary's
                # refill is observable.  Replay it directly.
                last = prev_tick_time
                if tick_time > last:
                    added = (rate * (tick_time - last) if rate is not None
                             else capacity(last, tick_time))
                    last = tick_time
                    credit += added
                    tick_added += added
                credit = min(credit, max(1.0, tick_added) + tick_added)
                tick_added = 0.0
                break
        self.credit[row] = credit
        self.last_accrue[row] = last
        self.tick_added[row] = tick_added
        self.synced_tick[row] = tick_no
        self.synced_boundary[row] = tick_time

    def _sync_trace(self, row: int, tick_no: int, tick_time: float,
                    dt: float, boundaries: list[float] | None) -> None:
        """Per-tick refill replay for piecewise (trace) profiles.

        The steady path's closed-form jump assumes every tick earns the
        same capacity; on a trace the per-tick capacity drifts with the
        rate curve.  The replay runs :meth:`refill`'s exact per-tick
        sequence until the credit saturates, then fast-forwards on one
        of two exactness arguments:

        * **Cap-pinned chain.**  A saturated refill leaves the credit
          exactly at its cap ``g(tc) = max(1, tc) + tc``, a pure
          function of that tick's capacity ``tc``.  Saturation persists
          into the next tick iff ``g(tc_prev) >= max(1, tc_next)``;
          since ``g`` is increasing, it persists across a whole span
          whenever ``max(1, lo) + lo >= max(1, hi)`` for conservative
          per-tick capacity bounds ``lo``/``hi`` (segment-rate extrema
          times ``dt``, padded for the ulp jitter between tick spans).
          Every skipped tick's state is then ``credit = cap_k`` -- so
          the jump replays only the *last* skipped tick, seeded with
          infinite credit so its ``min`` lands exactly on the eager
          chain's cap float, and the final tick runs normally from it.
        * **Zero-rate run.**  While every spanned segment has rate 0,
          each skipped tick accrues exactly 0.0 and caps at
          ``min(credit, 1.0)``: the first application is the fixpoint,
          so the jump applies it once and skips to the run's end.

        Both bounds are *monotone in span length* (extrema only widen as
        the span grows), so a prefix min/max accumulation over the
        spanned rate segments locates the furthest provably-saturated
        tick in one vectorized pass -- a *partial* jump to just before
        the first "barrier" segment (one where the earned-per-tick
        capacity more than doubles, e.g. an outage ending into a fat
        link).  The barrier tick itself replays explicitly and the
        chain resumes past it, so cost is bounded by segments actually
        spanned, never by ticks.

        ``boundaries[i]`` must be the network ticker's time float at tick
        ``i`` (the topology records them); when absent the loop replays
        every tick, which is exact but O(pending).
        """
        trace = self.trace[row]
        capacity = trace.capacity
        rates = trace.rates
        times = trace._times_list
        credit = self.credit[row]
        last = self.last_accrue[row]
        tick_added = self.tick_added[row]
        tick = self.synced_tick[row]
        boundary = self.synced_boundary[row]
        while tick < tick_no:
            tick += 1
            boundary = boundaries[tick] if boundaries is not None \
                else boundary + dt
            if boundary > last:
                added = capacity(last, boundary)
                last = boundary
                credit += added
                tick_added += added
            tick_capacity = tick_added
            cap = max(1.0, tick_capacity) + tick_capacity
            pinned = credit >= cap
            credit = min(credit, cap)
            tick_added = 0.0
            if boundaries is None or tick >= tick_no - 1 \
                    or not (pinned or tick_capacity == 0.0):
                continue
            last_tick = tick_no - 1  # the final tick always replays normally
            i0 = trace._segment(boundary)
            i1 = trace._segment(boundaries[last_tick])
            # `safe` = furthest segment the saturation chain provably
            # reaches; below i0 means the adjacent segment breaks it.
            # Both lookups depend only on the trace and the starting
            # segment -- never on this row's credit -- so they memoize
            # on the (often shared) trace: at most one vectorized prefix
            # pass per segment per run, a dict hit thereafter.
            if pinned:
                # Start the window at the current tick's *first* spanned
                # segment: its rate extrema then bound tick_capacity
                # too, keeping the memo row-independent.
                start = trace._segment(boundaries[tick - 1])
                if trace._jump_memo_dt != dt:
                    trace._jump_memo.clear()
                    trace._jump_memo_dt = dt
                safe = trace._jump_memo.get(start)
                if safe is None:
                    end = min(start + _JUMP_SPAN, len(rates) - 1)
                    if end == start:
                        r = trace._rates_list[start] * dt
                        lo = r * (1.0 - 1e-6)
                        safe = end if max(1.0, lo) + lo >= \
                            max(1.0, r * (1.0 + 1e-6)) else start - 1
                    else:
                        window = rates[start:end + 1] * dt
                        lo = np.minimum.accumulate(window)
                        lo *= 1.0 - 1e-6
                        hi = np.maximum.accumulate(window)
                        hi *= 1.0 + 1e-6
                        ok = np.maximum(1.0, lo) + lo \
                            >= np.maximum(1.0, hi)
                        k = int(np.argmin(ok))  # first False, 0 if none
                        safe = end if ok[k] else start + k - 1
                    trace._jump_memo[start] = safe
            else:  # tick_capacity == 0.0 with credit below the cap:
                # skipped ticks are no-ops only while the rate stays 0.
                safe = trace._zero_memo.get(i0)
                if safe is None:
                    end = min(i0 + _JUMP_SPAN, len(rates) - 1)
                    if end == i0:
                        safe = end if trace._rates_list[i0] == 0.0 \
                            else i0 - 1
                    else:
                        ok = rates[i0:end + 1] == 0.0
                        k = int(np.argmin(ok))
                        safe = end if ok[k] else i0 + k - 1
                    trace._zero_memo[i0] = safe
            if safe < i0:
                continue  # barrier right here: replay the next tick
            if safe >= i1:
                j = last_tick
            else:
                # Last tick still inside the provably-safe segments.
                j = bisect_right(boundaries, times[safe + 1],
                                 lo=tick, hi=last_tick + 1) - 1
            if not pinned:
                if j > tick:
                    # Zero-rate run through boundaries[j]: apply the
                    # one-time cap fixpoint and skip the no-op ticks.
                    credit = min(credit, 1.0)
                    tick = j
                    boundary = boundaries[j]
                    last = boundary
            elif j - 1 > tick:
                # Cap-pinned through `j`: skip to its previous boundary
                # and let the loop replay it from infinite credit --
                # the min lands exactly on its cap.
                tick = j - 1
                boundary = boundaries[tick]
                last = boundary
                credit = float("inf")
        self.credit[row] = credit
        self.last_accrue[row] = last
        self.tick_added[row] = tick_added
        self.synced_tick[row] = tick_no
        self.synced_boundary[row] = tick_time
