"""Capacity-constrained links with FIFO overflow queues.

The paper assumes "a standard underlying network model where any messages
for which there is not enough capacity become enqueued for later
transmission."  A :class:`Link` implements that as a continuous token
bucket:

* capacity accrues continuously (``accrue``), so a message sent mid-tick
  can use the capacity earned since the last tick boundary -- the paper
  neglects propagation latency, and making senders wait for the next tick
  boundary would add artificial delay precisely at high load;
* once per tick (:meth:`refill`, driven by the NETWORK phase) the bucket's
  carry-over is capped at roughly one tick's capacity, so idle links cannot
  bank unbounded bursts, and the tick's utilization telemetry resets;
* :meth:`drain` pops queued messages FIFO while credit remains;
* senders either :meth:`transmit_or_queue` (deliver now if possible, else
  join the FIFO queue -- the shared cache link, where congestion is
  supposed to happen) or :meth:`send` (spend credit, bypass the queue --
  the downstream flow).

Cache and peer links are ``Link`` objects.  Source links never queue --
sources self-pace, their priority queue is the send queue (paper Sec 8)
-- so all of them live in one column store,
:class:`~repro.network.source_links.SourceLinks`, instead.

Utilization over the last tick is tracked so the cache's feedback
controller can detect surplus bandwidth (Sec 5).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.network.bandwidth import BandwidthProfile, ConstantBandwidth
from repro.network.messages import Message

DeliveryCallback = Callable[[Message], None]


class Link:
    """A continuous-token-bucket message pipe with a FIFO overflow queue.

    One credit bucket is shared by both directions, matching the paper's
    buoy experiment where "the maximum total number of messages transmitted
    per minute over the satellite link" is constrained regardless of
    direction.
    """

    __slots__ = ("name", "profile", "deliver", "credit", "queue",
                 "_last_accrue", "_tick_added", "_const_rate", "on_queue",
                 "tick_capacity", "tick_used", "total_sent",
                 "total_delivered", "total_units", "total_queued_peak",
                 "_window_queued_peak")

    def __init__(self, name: str, profile: BandwidthProfile,
                 deliver: DeliveryCallback | None = None) -> None:
        self.name = name
        self.profile = profile
        self.deliver = deliver
        self.credit = 0.0
        self.queue: deque[Message] = deque()
        self._last_accrue = 0.0
        self._tick_added = 0.0
        # Constant profiles take accrue's closed-form fast path; the
        # expression below is ConstantBandwidth.capacity verbatim, so the
        # shortcut is bit-identical to the method call it skips.
        self._const_rate = (profile._rate
                            if type(profile) is ConstantBandwidth else None)
        #: optional callback invoked when a message joins the FIFO queue
        #: (lets a policy arm the owning cache's drain wakeup)
        self.on_queue: DeliveryCallback | None = None
        # Telemetry for the current tick and cumulative counters.
        self.tick_capacity = 0.0
        self.tick_used = 0.0
        self.total_sent = 0
        self.total_delivered = 0
        #: cumulative credit actually spent (bandwidth units); message
        #: counters count envelopes, this counts cost -- a multicast
        #: sibling copy is one more message but zero more units
        self.total_units = 0.0
        self.total_queued_peak = 0
        self._window_queued_peak = 0

    # ------------------------------------------------------------------
    # Credit management
    # ------------------------------------------------------------------
    def accrue(self, now: float) -> None:
        """Fold in capacity earned since the last accrual."""
        last = self._last_accrue
        if now <= last:
            return
        rate = self._const_rate
        if rate is not None:
            added = rate * (now - last)
        else:
            added = self.profile.capacity(last, now)
        self._last_accrue = now
        self.credit += added
        self._tick_added += added

    def refill(self, now: float) -> None:
        """Per-tick boundary: cap banked credit, reset tick telemetry."""
        self.accrue(now)
        tick_capacity = self._tick_added
        # Carry over at most ~one tick of unused credit; this permits
        # fractional capacities (0.5 msgs/tick sends one message every
        # other tick) without allowing unbounded bursts after idle spells.
        self.credit = min(self.credit, max(1.0, tick_capacity) + tick_capacity)
        self.tick_capacity = tick_capacity
        self.tick_used = 0.0
        self._tick_added = 0.0

    def try_consume(self, size: float = 1.0) -> bool:
        """Spend ``size`` credit if available; leave the bucket untouched
        otherwise.  The public credit-spending entry point for topologies
        that do their own routing and bookkeeping."""
        if self.credit < size:
            return False
        self._consume(size)
        return True

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message,
             receiver: DeliveryCallback | None = None) -> bool:
        """Spend credit and deliver to ``receiver``, bypassing the queue.

        The downstream path of a shared cache link: feedback and poll
        requests share the link's *credit* with the upstream flow but not
        its FIFO queue, so a refresh backlog does not block them.  When
        ``receiver`` is ``None`` the credit is still spent and counted (a
        message to an unwired endpoint disappears at delivery, not before).
        """
        self.accrue(message.sent_at)
        if not self.try_consume(message.size):
            return False
        self.total_sent += 1
        self.total_delivered += 1
        if receiver is not None:
            receiver(message)
        return True

    def enqueue(self, message: Message) -> None:
        """Accept a message unconditionally; it transmits as credit allows."""
        self.queue.append(message)
        self.total_sent += 1
        depth = len(self.queue)
        if depth > self.total_queued_peak:
            self.total_queued_peak = depth
        if depth > self._window_queued_peak:
            self._window_queued_peak = depth
        if self.on_queue is not None:
            self.on_queue(message)

    def transmit_or_queue(self, message: Message) -> bool:
        """Deliver immediately if capacity allows, otherwise queue.

        The paper neglects propagation latency, so an uncongested link
        delivers in-tick; only messages "for which there is not enough
        capacity become enqueued for later transmission".  Returns True
        when the message was delivered immediately.
        """
        self.accrue(message.sent_at)
        queue = self.queue
        if queue:
            # Only drain when the head could actually go out: a failed
            # head try_consume mutates nothing, so skipping it is exact --
            # and overloaded runs hit this branch once per queued message.
            if self.credit >= queue[0].size:
                self.drain()
            if queue:
                self.enqueue(message)
                return False
        if self.try_consume(message.size):
            self.total_sent += 1
            self.total_delivered += 1
            if self.deliver is not None:
                self.deliver(message)
            return True
        self.enqueue(message)
        return False

    def drain(self) -> int:
        """Transmit queued messages FIFO while credit lasts; return count."""
        delivered = 0
        while self.queue and self.try_consume(self.queue[0].size):
            message = self.queue.popleft()
            delivered += 1
            self.total_delivered += 1
            if self.deliver is not None:
                self.deliver(message)
        return delivered

    def _consume(self, size: float) -> None:
        self.credit -= size
        self.tick_used += size
        self.total_units += size

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Number of messages currently waiting for capacity."""
        return len(self.queue)

    def surplus(self, now: float | None = None) -> float:
        """Leftover credit after this tick's drain (0 when backlogged).

        The cache's feedback controller treats a positive surplus with an
        empty queue as "bandwidth underutilized" (Sec 5).  Pass ``now`` to
        fold in capacity earned since the link was last touched --
        without it a mid-tick reading under-counts, since credit accrues
        continuously but only sends and refills used to call
        :meth:`accrue`.  Tick-aligned readers (the feedback controller
        runs right after the NETWORK-phase refill) see identical values
        either way.
        """
        if now is not None:
            self.accrue(now)
        if self.queue:
            return 0.0
        return self.credit

    def queued_peak_since(self) -> int:
        """Worst FIFO depth since the last :meth:`reset_queued_peak`.

        ``total_queued_peak`` latches its lifetime max, so a controller
        reading it sees a cache as saturated forever after one burst; the
        windowed peak answers "was this link congested *recently*" and is
        what the rebalancer's decision rule consumes.  The current
        backlog counts toward the window even if nothing new was
        enqueued since the reset (a standing queue is still congestion).
        """
        depth = len(self.queue)
        if depth > self._window_queued_peak:
            return depth
        return self._window_queued_peak

    def reset_queued_peak(self) -> None:
        """Start a fresh observation window for :meth:`queued_peak_since`.

        The window restarts at the *current* backlog, not zero: messages
        already waiting will be the first peak of the new window.  The
        lifetime ``total_queued_peak`` is untouched.
        """
        self._window_queued_peak = len(self.queue)

    def utilization(self) -> float:
        """Fraction of this tick's capacity actually used (0 when idle)."""
        if self.tick_capacity <= 0:
            return 0.0
        return min(1.0, self.tick_used / self.tick_capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} credit={self.credit:.2f} "
                f"queued={len(self.queue)}>")
