"""Cache-side network layouts: the paper's star and its multi-cache successors.

A :class:`Topology` connects ``m`` sources to ``N`` cache nodes and owns
every link in between.  All message flows are addressed by the
``(cache_id, source_id)`` pair carried on the message itself; the topology
decides which links a message crosses and where congestion materializes.

Routing rules (see DESIGN.md Sec 4):

* **Upstream** (source -> cache: refreshes, poll responses): the message
  first consumes credit on the sending source's link (once, regardless of
  fan-out), then is *enqueued* on each target cache link, whose FIFO queue
  is where congestion and queueing delay materialize.  Delivery to a cache
  happens when that cache's link drains.
* **Downstream** (cache -> source: positive feedback, poll requests): the
  message consumes credit on the sending cache's link and is delivered to
  the source with negligible latency.  The cooperative policy only sends
  feedback out of *surplus* credit, so feedback never queues behind
  refreshes, matching the paper's flood-avoidance argument.

Two concrete layouts:

* :class:`StarTopology` -- the paper's single shared cache link plus one
  link per source.
* :class:`MultiCacheTopology` -- N cache nodes, each with its own link,
  FIFO queue and bandwidth profile.  Each source either reports to exactly
  one cache (*sharded*) or fans every upstream message out to several
  (*replicated*).  With one cache and the full bandwidth profile it
  reproduces the star's results bit for bit.

The topology is policy-agnostic: receivers are registered as callbacks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.network.bandwidth import (
    BandwidthProfile,
    ConstantBandwidth,
    split_bandwidth,
)
from repro.network.delivery import (
    DELIVERY_MODES,
    DeliveryPlane,
    make_delivery_plane,
)
from repro.network.link import Link
from repro.network.messages import FeedbackMessage, Message
from repro.network.source_links import SourceLinks

Receiver = Callable[[Message], None]


class Topology(ABC):
    """Abstract routing fabric between ``m`` sources and ``N`` caches.

    Concrete topologies own the links and implement routing; the interface
    exposes wiring (receiver registration), the per-tick network phase
    (refill + drain), sending in both directions, and capacity telemetry.

    **Source links.**  The ``m`` source links live in one
    :class:`~repro.network.source_links.SourceLinks` column store
    (``self.source_links``), one row per source id; they never queue, so
    they need none of a :class:`Link`'s FIFO machinery.

    **Active-link set.**  The per-tick network phase used to refill every
    link, making each tick O(m) even when nothing moves.  Source rows
    with steady or piecewise-trace bandwidth profiles are instead lazy:
    they skip the tick loop and are brought up to date on first touch
    through :meth:`SourceLinks.sync`, whose refill replay is bit-for-bit
    identical to the eager schedule.  Cache links stay eager -- they
    carry FIFO queues, surplus telemetry and possibly time-varying
    profiles -- as do source rows with other profiles.
    :meth:`set_lazy_links` restores the fully eager schedule (the
    tick-scan baseline benchmarks measure against).
    """

    # ------------------------------------------------------------------
    # Shared per-tick state (initialized via _init_network_state)
    # ------------------------------------------------------------------
    def _init_network_state(self) -> None:
        """Set up tick bookkeeping and the active-link set.

        Concrete topologies call this at the end of ``__init__`` once
        ``self.source_links`` (the
        :class:`~repro.network.source_links.SourceLinks` store, classified
        lazy), :attr:`cache_links`, ``self._delivery``
        (the :class:`~repro.network.delivery.DeliveryPlane`) and
        ``self._upstream_targets`` (per-source cache-id tuples) exist.
        """
        self._tick_no = 0
        self._tick_time = 0.0
        self._prev_tick_time = 0.0
        # The exact ticker interval float: the first network tick fires at
        # sim-start (0.0) + dt, so its timestamp *is* dt.  Lazy rows need
        # it to reproduce the ticker's boundary accumulation bit for bit.
        self._tick_dt = 0.0
        # Every tick's timestamp, indexed by tick number (entry 0 is the
        # simulation start).  Lazy rows on piecewise profiles need the
        # true boundary floats to replay skipped refills and to bisect
        # their saturation jumps; ~8 bytes per tick, independent of m.
        self._tick_boundaries: list[float] = [0.0]
        self._lazy_enabled = True
        # Scratch message reused by send_downstream_batch: feedback carries
        # no per-message payload beyond its routing fields, so the batch
        # path restamps one instance instead of allocating per target.
        self._feedback_scratch = FeedbackMessage(source_id=0)
        # Downstream receiver slots, one per source; populated later via
        # set_source_receiver.  Owned here because the concrete base
        # methods (send_downstream_batch) index it.
        self._source_receivers: list[Receiver | None] = (
            [None] * self.num_sources)
        # Fault machinery (absent by default).  _delivery_guard is the
        # single upstream interception point: when it stays None every
        # delivery path runs the exact fault-free instruction sequence,
        # which is what makes an empty FaultPlan bitwise-identical to no
        # plan at all.
        self._fault_injector = None
        self._reliable = None
        self._delivery_guard: Callable[[Message, int], bool] | None = None
        self._crash_listeners: dict[int, list[Callable[[float], None]]] = {}
        # Cache-to-cache transfer links (rebalancer migrations, replica
        # seeding).  Empty unless a controller installs some; the tick
        # loop then iterates nothing, keeping the no-peer path exact.
        self._peer_links: dict[tuple[int, int], Link] = {}
        self._peer_link_list: list[Link] = []
        # Hot-path bindings for the shared send_upstream: a stable list
        # of cache links (the cache_links property may build a tuple per
        # call) and the delivery plane's bound fan_out, resolved once so
        # per-send cost is one extra call, not an attribute chain.
        self._upstream_links = list(self.cache_links)
        self._fan_out = self._delivery.fan_out

    @property
    def delivery_plane(self) -> DeliveryPlane:
        """The fan-out strategy this topology routes upstream sends by."""
        return self._delivery

    def set_lazy_links(self, enabled: bool) -> None:
        """Enable/disable lazy source-link refills (call before running).

        Rows are classified when the topology is built, with lazy
        refills on; only a change of mode reclassifies them.
        """
        if enabled != self._lazy_enabled:
            self._lazy_enabled = enabled
            self.source_links.classify(enabled)

    @property
    def active_link_count(self) -> int:
        """Links refilled eagerly each network tick (telemetry)."""
        return len(self.source_links.eager) + len(self.cache_links)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def num_sources(self) -> int:
        """Number of source endpoints."""

    @property
    @abstractmethod
    def num_caches(self) -> int:
        """Number of cache endpoints."""

    @property
    @abstractmethod
    def cache_links(self) -> Sequence[Link]:
        """One constrained link per cache node, indexed by ``cache_id``."""

    @abstractmethod
    def caches_of(self, source_id: int) -> tuple[int, ...]:
        """Cache ids source ``source_id`` reports to; the first is primary."""

    def primary_cache_of(self, source_id: int) -> int:
        """The cache that runs the feedback protocol for this source."""
        return self.caches_of(source_id)[0]

    @abstractmethod
    def sources_of(self, cache_id: int) -> tuple[int, ...]:
        """All sources whose upstream messages reach cache ``cache_id``."""

    def owned_sources_of(self, cache_id: int) -> tuple[int, ...]:
        """Sources for which ``cache_id`` is the *primary* cache.

        Feedback targeting partitions sources by primary cache so that a
        replicated source never receives double feedback per surplus tick.
        """
        return tuple(j for j in self.sources_of(cache_id)
                     if self.primary_cache_of(j) == cache_id)

    def object_replicas(self, owner: Sequence[int]
                        ) -> list[tuple[int, ...]]:
        """Replica cache ids per object, given each object's owning source.

        ``owner`` maps global object index to source id (the workload's
        precomputed :attr:`~repro.workloads.synthetic.Workload.owner`
        array).  An object lives wherever its source's upstream messages
        land, so its replica set is its owner's cache assignment.  The read
        model resolves this once per run.
        """
        per_source = [self.caches_of(j) for j in range(self.num_sources)]
        return [per_source[int(j)] for j in owner]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @abstractmethod
    def set_cache_receiver(self, receiver: Receiver,
                           cache_id: int = 0) -> None:
        """Register the message handler of cache node ``cache_id``."""

    def set_source_receiver(self, source_id: int,
                            receiver: Receiver) -> None:
        """Register the message handler of source ``source_id``."""
        self._source_receivers[source_id] = receiver

    def set_source_receivers(self, receiver: Receiver) -> None:
        """Register one handler for every source; it dispatches on the
        message's ``source_id``."""
        self._source_receivers = [receiver] * self.num_sources

    # ------------------------------------------------------------------
    # Fault injection and reliable delivery (see repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, injector=None, reliable=None) -> None:
        """Hook fault machinery into every delivery path.

        ``injector`` (a :class:`~repro.faults.injector.FaultInjector`)
        decides the fate of each delivery *after* link credit was spent;
        ``reliable`` (a :class:`~repro.faults.retry.ReliableDelivery`)
        tracks refresh acks and suppresses duplicate deliveries.  With
        both ``None`` the guard resets to the fault-free fast path.
        """
        self._fault_injector = injector
        self._reliable = reliable
        if reliable is not None:
            reliable.bind(self)
        if injector is None and reliable is None:
            self._delivery_guard = None
            return

        def guard(message: Message, cache_id: int) -> bool:
            if injector is not None and not injector.allow_upstream(
                    message, cache_id):
                if reliable is not None:
                    reliable.on_lost(message, cache_id)
                return False
            if reliable is not None:
                return reliable.on_delivered(message, cache_id)
            return True

        self._delivery_guard = guard

    @property
    def reliable(self):
        """The installed reliable-delivery layer, if any."""
        return self._reliable

    def add_crash_listener(self, cache_id: int,
                           listener: Callable[[float], None]) -> None:
        """Register ``listener(now)`` to run when ``cache_id`` crashes."""
        self._crash_listeners.setdefault(cache_id, []).append(listener)

    def crash_cache(self, cache_id: int, now: float) -> None:
        """Cold-restart one cache: drop its in-flight queue, reset state.

        Messages sitting in the crashed link's FIFO die with the node
        (they consumed send-side accounting but never deliver -- the
        reliable layer, if any, learns of each loss so its timeouts can
        retransmit).  Registered listeners then rebuild the node's
        learned state; accrued link credit survives, since the link
        models the network path, not the process.
        """
        link = self.cache_links[cache_id]
        if link.queue:
            injector = self._fault_injector
            reliable = self._reliable
            for message in link.queue:
                if injector is not None:
                    injector.dropped_crash += 1
                if reliable is not None:
                    reliable.on_lost(message, cache_id)
            link.queue.clear()
        for listener in self._crash_listeners.get(cache_id, ()):
            listener(now)

    # ------------------------------------------------------------------
    # Per-tick network phase
    # ------------------------------------------------------------------
    def on_network_tick(self, now: float) -> None:
        """Refill every *active* link and drain each cache link's queue.

        Lazy source rows are skipped here and catch up on first touch;
        see the class docstring for why that is behavior-preserving.
        """
        self._prev_tick_time = self._tick_time
        self._tick_no += 1
        self._tick_time = now
        self._tick_boundaries.append(now)
        if self._tick_no == 1:
            self._tick_dt = now
        self.source_links.refill(now)
        for link in self.cache_links:
            link.refill(now)
            link.drain()
        for link in self._peer_link_list:
            link.refill(now)
            link.drain()

    def drain_cache(self, cache_id: int) -> int:
        """Second in-tick drain of one cache link (the CACHE phase)."""
        return self.cache_links[cache_id].drain()

    # ------------------------------------------------------------------
    # Cache-to-cache transfer links
    # ------------------------------------------------------------------
    def add_peer_link(self, from_cache: int, to_cache: int,
                      profile: BandwidthProfile,
                      now: float = 0.0) -> Link:
        """Install a directed transfer link between two cache nodes.

        Peer links carry migrations and replica seeds; they are refilled
        and drained in the NETWORK phase like cache links but deliver
        straight to the destination cache's receiver (no fault guard:
        they model an internal backbone, not the source-edge paths the
        injector perturbs).  ``now`` anchors credit accrual at the
        installation time so a link created mid-run does not bank the
        whole elapsed history on its first refill.
        """
        if from_cache == to_cache:
            raise ValueError(f"peer link {from_cache}->{to_cache} is a loop")
        for k in (from_cache, to_cache):
            if not 0 <= k < self.num_caches:
                raise ValueError(f"unknown cache {k} for peer link")
        key = (from_cache, to_cache)
        if key in self._peer_links:
            raise ValueError(f"peer link {from_cache}->{to_cache} exists")
        link = Link(f"peer-{from_cache}-{to_cache}", profile,
                    deliver=self._make_peer_deliver(to_cache))
        link._last_accrue = now
        self._peer_links[key] = link
        self._peer_link_list.append(link)
        return link

    def peer_link(self, from_cache: int, to_cache: int) -> Link | None:
        """The directed transfer link between two caches, if installed."""
        return self._peer_links.get((from_cache, to_cache))

    def send_peer(self, message: Message) -> bool:
        """Cache ``from_cache`` -> cache ``cache_id`` over the peer link.

        The message (a :class:`~repro.network.messages.MigrateMessage`)
        consumes peer-link credit proportional to its payload and queues
        FIFO when the link is saturated.  Returns True when delivered
        in-tick.  Raises when no such link exists: migrations must never
        silently teleport state.
        """
        key = (message.from_cache, message.cache_id)
        link = self._peer_links.get(key)
        if link is None:
            raise ValueError(f"no peer link {key[0]}->{key[1]} installed")
        return link.transmit_or_queue(message)

    def _make_peer_deliver(self, cache_id: int) -> "Receiver":
        def deliver(message: Message) -> None:
            receiver = self._cache_receiver_of(cache_id)
            if receiver is not None:
                receiver(message)
        return deliver

    def _cache_receiver_of(self, cache_id: int) -> "Receiver | None":
        """The registered receiver of one cache (topology-specific slot)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support peer links")

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_upstream(self, message: Message) -> bool:
        """Source -> assigned cache(s); source credit is charged once.

        Returns False if the source link lacks credit; routing stamps
        ``message.cache_id`` with the primary target before the delivery
        plane fans the message out to every replica link.

        The sync/accrue/consume helpers are inlined here: every
        update-driven source drain lands on this method, and at m ~ 1e6
        the call overhead of the layered helpers dominates.  The float
        operations run in the helpers' exact order, so results are
        bit-for-bit unchanged (pinned by the equivalence suites).  This
        is the one copy of the charge block all topologies share; what
        used to be per-topology per-replica loops is now the plane's
        :meth:`~repro.network.delivery.DeliveryPlane.fan_out`.
        """
        links = self.source_links
        j = message.source_id
        if links.synced_tick[j] < self._tick_no:
            links.sync(j, self._tick_no, self._tick_time,
                       self._prev_tick_time, self._tick_dt,
                       self._tick_boundaries)
        now = message.sent_at
        credit = links.credit
        balance = credit[j]
        last_accrue = links.last_accrue
        last = last_accrue[j]
        if now > last:
            rate = links.const_rate[j]
            added = (rate * (now - last) if rate is not None
                     else links.profile[j].capacity(last, now))
            last_accrue[j] = now
            balance += added
            links.tick_added[j] += added
        size = message.size
        if balance < size:
            credit[j] = balance
            return False
        credit[j] = balance - size
        links.units[j] += size
        links.sends[j] += 1
        if self._reliable is not None:
            self._reliable.on_send(message)
        targets = self._upstream_targets[j]
        primary = targets[0]
        message.cache_id = primary
        if len(targets) == 1:
            # Single-target sends (star, sharded, replication 1) have no
            # fan-out to delegate: every plane delivers one full-size
            # copy on the primary link, so the plane call is skipped --
            # this keeps the unicast hot path within the pre-plane
            # overhead budget (bench_multicast gates the ratio).
            self._upstream_links[primary].transmit_or_queue(message)
        else:
            self._fan_out(self._upstream_links, message, targets)
        return True

    def send_upstream_unconstrained(self, message: Message) -> None:
        """Source -> cache ignoring source-side limits.

        Figure 6's CGM comparison states "the polling model used in the CGM
        approach assumes no limitations on source-side bandwidth", so poll
        responses bypass the source link.  The target cache is
        ``message.cache_id`` (the cache that issued the poll) -- polls are
        point-to-point round-trips, so no plane fan-out applies.
        """
        self._upstream_links[message.cache_id].transmit_or_queue(message)

    def send_downstream(self, message: Message) -> bool:
        """Cache ``message.cache_id`` -> source ``message.source_id``.
        Consumes that cache link's credit; immediate delivery."""
        receiver = self._source_receivers[message.source_id]
        injector = self._fault_injector
        if injector is not None and not injector.allow_downstream(
                message.cache_id, message.source_id):
            receiver = None  # credit still spent; delivery suppressed
        return self._upstream_links[message.cache_id].send(message,
                                                           receiver)

    def send_downstream_batch(self, cache_id: int,
                              source_ids: Sequence[int],
                              now: float) -> int:
        """Positive feedback from one cache to many sources; returns the
        number delivered (a prefix of ``source_ids``).

        The fast path behind :meth:`FeedbackController.on_tick`: the cache
        link is charged through one accrue and one counter update for the
        whole batch, and a single scratch :class:`FeedbackMessage` is
        restamped per target instead of allocating one per message.

        Credit is still *consumed* one message at a time, interleaved with
        delivery.  That is deliberate, not an oversight: delivering
        feedback makes the source drain, and the refreshes it sends come
        straight back through this same cache link's credit bucket -- a
        pre-charged batch would let later feedback messages spend credit
        the re-entrant refreshes already used, diverging from the
        per-message path the equivalence suite pins.  Receivers must not
        retain the scratch message beyond the callback.
        """
        link = self.cache_links[cache_id]
        link.accrue(now)
        receivers = self._source_receivers
        injector = self._fault_injector
        message = self._feedback_scratch
        message.cache_id = cache_id
        message.sent_at = now
        delivered = 0
        for source_id in source_ids:
            if not link.try_consume(message.size):
                break
            delivered += 1
            message.source_id = source_id
            if injector is not None and not injector.allow_downstream(
                    cache_id, source_id):
                continue  # credit spent; delivery suppressed
            receiver = receivers[source_id]
            if receiver is not None:
                receiver(message)
        link.total_sent += delivered
        link.total_delivered += delivered
        return delivered

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def source_at_capacity(self, source_id: int) -> bool:
        """True when the source spent all its credit this tick (footnote 3).

        A lazy row is first brought up to the last tick boundary."""
        links = self.source_links
        if links.synced_tick[source_id] < self._tick_no:
            links.sync(source_id, self._tick_no, self._tick_time,
                       self._prev_tick_time, self._tick_dt,
                       self._tick_boundaries)
        return links.credit[source_id] < 1.0

    def cache_surplus(self, cache_id: int,
                      now: float | None = None) -> float:
        """Leftover credit on one cache link (0 when backlogged).

        ``now`` forwards to :meth:`Link.surplus` so mid-tick readers (a
        feedback controller probing between refills) see credit earned
        since the link was last touched instead of a stale balance.
        """
        return self.cache_links[cache_id].surplus(now)

    def cache_messages_total(self) -> int:
        """Messages accepted by all cache links so far."""
        return sum(link.total_sent for link in self.cache_links)

    def cache_units_total(self) -> float:
        """Bandwidth units consumed across all cache links so far.

        Distinct from :meth:`cache_messages_total`: a multicast sibling
        copy is one more *message* but zero more *units*, so this is the
        honest denominator for divergence-per-unit-bandwidth comparisons
        across delivery planes (experiment E14).
        """
        return sum(link.total_units for link in self.cache_links)

    def cache_queued_peak(self) -> int:
        """Worst FIFO backlog observed on any cache link."""
        return max((link.total_queued_peak for link in self.cache_links),
                   default=0)

    def telemetry(self, now: float | None = None) -> dict:
        """Per-cache capacity counters, for reports and diagnostics.

        ``now`` forwards to each link's :meth:`Link.surplus` so the
        reported ``cache_surplus`` folds in credit accrued since the
        link was last touched (the stale-credit pitfall PR 5 fixed);
        reports pass the simulation clock instead of hand-rolling
        per-cache ``cache_surplus`` calls.
        """
        injector = self._fault_injector
        reliable = self._reliable
        return {
            "num_caches": self.num_caches,
            "cache_utilization": [link.utilization()
                                  for link in self.cache_links],
            "cache_queued": [link.queued for link in self.cache_links],
            "cache_queued_peak": [link.total_queued_peak
                                  for link in self.cache_links],
            "cache_surplus": [link.surplus(now)
                              for link in self.cache_links],
            "dropped": injector.dropped if injector is not None else 0,
            "retransmitted": (reliable.retransmitted
                              if reliable is not None else 0),
            "duplicate_suppressed": (reliable.duplicate_suppressed
                                     if reliable is not None else 0),
        }

    @abstractmethod
    def total_messages(self) -> int:
        """All messages accepted anywhere in the network so far."""


class StarTopology(Topology):
    """One shared cache link plus one link per source (the paper's model)."""

    def __init__(self, cache_profile: BandwidthProfile,
                 source_profiles: list[BandwidthProfile],
                 delivery: str | DeliveryPlane = "unicast") -> None:
        self.cache_link = Link("cache", cache_profile,
                               deliver=self._deliver_to_cache)
        self.source_links = SourceLinks(source_profiles)
        self._cache_receiver: Receiver | None = None
        self._all_sources = tuple(range(len(source_profiles)))
        self._delivery = (delivery if isinstance(delivery, DeliveryPlane)
                          else make_delivery_plane(delivery))
        # Every source targets the single cache; one shared tuple is fine
        # because fan_out only reads it (cache_id restamps are per copy).
        self._upstream_targets: Sequence[tuple[int, ...]] = (
            [(0,)] * len(source_profiles))
        self._init_network_state()

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_sources(self) -> int:
        return len(self.source_links)

    @property
    def num_caches(self) -> int:
        return 1

    @property
    def cache_links(self) -> Sequence[Link]:
        return (self.cache_link,)

    def caches_of(self, source_id: int) -> tuple[int, ...]:
        return (0,)

    def sources_of(self, cache_id: int) -> tuple[int, ...]:
        return self._all_sources

    def owned_sources_of(self, cache_id: int) -> tuple[int, ...]:
        return self._all_sources

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_cache_receiver(self, receiver: Receiver,
                           cache_id: int = 0) -> None:
        if cache_id != 0:
            raise IndexError(
                f"star topology has a single cache, got id {cache_id}")
        self._cache_receiver = receiver

    def _cache_receiver_of(self, cache_id: int) -> Receiver | None:
        return self._cache_receiver

    # ------------------------------------------------------------------
    # Internal delivery
    # ------------------------------------------------------------------
    def _deliver_to_cache(self, message: Message) -> None:
        guard = self._delivery_guard
        if guard is not None and not guard(message, 0):
            return
        if self._cache_receiver is not None:
            self._cache_receiver(message)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def total_messages(self) -> int:
        return self.cache_link.total_sent + sum(self.source_links.sends)


class MultiCacheTopology(Topology):
    """N cache nodes, each with its own link, queue and bandwidth profile.

    ``assignment`` maps each source to the tuple of cache ids its upstream
    messages reach; the first entry is the *primary* cache (feedback and
    poll traffic).  A one-element tuple per source is a sharded layout; a
    longer tuple replicates the source's refreshes onto several cache
    links, each copy consuming that link's capacity (the source-side link
    is charged once -- the fan-out happens inside the network, as with IP
    multicast).

    With ``len(cache_profiles) == 1`` and every source assigned to cache 0
    the routing degenerates to exactly the star's arithmetic, which the
    equivalence tests pin down bit for bit.
    """

    def __init__(self, cache_profiles: Sequence[BandwidthProfile],
                 source_profiles: Sequence[BandwidthProfile],
                 assignment: Sequence[Sequence[int]] | None = None,
                 delivery: str | DeliveryPlane = "unicast") -> None:
        if not cache_profiles:
            raise ValueError("need at least one cache profile")
        num_caches = len(cache_profiles)
        num_sources = len(source_profiles)
        if assignment is None:
            assignment = shard_assignment(num_sources, num_caches)
        if len(assignment) != num_sources:
            raise ValueError(
                f"assignment covers {len(assignment)} sources, "
                f"expected {num_sources}")
        self._assignment: list[tuple[int, ...]] = []
        for j, targets in enumerate(assignment):
            targets = tuple(targets)
            if not targets:
                raise ValueError(f"source {j} is assigned to no cache")
            if len(set(targets)) != len(targets):
                raise ValueError(f"source {j} has duplicate cache targets")
            for k in targets:
                if not 0 <= k < num_caches:
                    raise ValueError(
                        f"source {j} assigned to unknown cache {k}")
            self._assignment.append(targets)
        self._cache_links = [
            Link(f"cache-{k}", profile,
                 deliver=self._make_cache_deliver(k))
            for k, profile in enumerate(cache_profiles)
        ]
        self.source_links = SourceLinks(source_profiles)
        self._cache_receivers: list[Receiver | None] = [None] * num_caches
        self._build_membership()
        self._delivery = (delivery if isinstance(delivery, DeliveryPlane)
                          else make_delivery_plane(delivery))
        # The SAME list object as _assignment, so reassign_source's
        # in-place mutations route the very next upstream send.
        self._upstream_targets: Sequence[tuple[int, ...]] = self._assignment
        self._init_network_state()

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_sources(self) -> int:
        return len(self.source_links)

    @property
    def num_caches(self) -> int:
        return len(self._cache_links)

    @property
    def cache_links(self) -> Sequence[Link]:
        return self._cache_links

    def caches_of(self, source_id: int) -> tuple[int, ...]:
        return self._assignment[source_id]

    def sources_of(self, cache_id: int) -> tuple[int, ...]:
        return self._sources_by_cache[cache_id]

    def owned_sources_of(self, cache_id: int) -> tuple[int, ...]:
        return self._owned_by_cache[cache_id]

    def reassign_source(self, source_id: int, cache_id: int) -> int:
        """Re-home a sharded source to a new primary cache; returns the old.

        Routing flips immediately: the next upstream refresh lands on the
        new cache's link, and :meth:`caches_of`/:meth:`owned_sources_of`
        reflect the move (the precomputed membership tuples are rebuilt
        in one pass over the assignment).  Messages already sitting in
        the old cache's FIFO still deliver there -- exactly the in-flight
        window the migration protocol's freshness counters tolerate.
        Only single-target (sharded) sources can migrate; a replicated
        source's copies are load-balanced by construction.
        """
        if not 0 <= source_id < self.num_sources:
            raise ValueError(f"unknown source {source_id}")
        if not 0 <= cache_id < self.num_caches:
            raise ValueError(f"unknown cache {cache_id}")
        targets = self._assignment[source_id]
        if len(targets) != 1:
            raise ValueError(
                f"source {source_id} is replicated to {targets}; only "
                f"sharded sources can be re-homed")
        old = targets[0]
        if cache_id == old:
            raise ValueError(
                f"source {source_id} is already homed on cache {cache_id}")
        self._assignment[source_id] = (cache_id,)
        self._build_membership()
        return old

    def _build_membership(self) -> None:
        """Per-cache member and owned-source tuples, ascending source ids,
        in one pass over the assignment."""
        members: list[list[int]] = [[] for _ in self._cache_links]
        owned: list[list[int]] = [[] for _ in self._cache_links]
        for j, targets in enumerate(self._assignment):
            owned[targets[0]].append(j)
            for k in targets:
                members[k].append(j)
        self._sources_by_cache: list[tuple[int, ...]] = [
            tuple(sources) for sources in members]
        self._owned_by_cache: list[tuple[int, ...]] = [
            tuple(sources) for sources in owned]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_cache_receiver(self, receiver: Receiver,
                           cache_id: int = 0) -> None:
        self._cache_receivers[cache_id] = receiver

    def _cache_receiver_of(self, cache_id: int) -> Receiver | None:
        return self._cache_receivers[cache_id]

    def _make_cache_deliver(self, cache_id: int) -> Receiver:
        def deliver(message: Message) -> None:
            guard = self._delivery_guard
            if guard is not None and not guard(message, cache_id):
                return
            receiver = self._cache_receivers[cache_id]
            if receiver is not None:
                receiver(message)
        return deliver

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def total_messages(self) -> int:
        return (sum(link.total_sent for link in self._cache_links)
                + sum(self.source_links.sends)
                + sum(link.total_sent for link in self._peer_link_list))


# ----------------------------------------------------------------------
# Assignment helpers
# ----------------------------------------------------------------------
def shard_assignment(num_sources: int, num_caches: int,
                     strategy: str = "block") -> list[tuple[int, ...]]:
    """One cache per source.

    ``"block"`` keeps contiguous source ranges together (balanced block
    partition, the natural layout when object indices are row-major per
    source); ``"stride"`` deals sources round-robin.
    """
    if num_caches < 1:
        raise ValueError(f"need at least one cache, got {num_caches}")
    if strategy == "block":
        return [(j * num_caches // max(num_sources, 1),)
                for j in range(num_sources)]
    if strategy == "stride":
        return [(j % num_caches,) for j in range(num_sources)]
    raise ValueError(f"unknown shard strategy {strategy!r}")


def replica_assignment(num_sources: int, num_caches: int,
                       replication: int,
                       strategy: str = "block") -> list[tuple[int, ...]]:
    """``replication`` caches per source: its shard plus the next ring
    neighbours, so replica load stays balanced across caches."""
    if not 1 <= replication <= num_caches:
        raise ValueError(
            f"replication must be in [1, {num_caches}], got {replication}")
    primaries = shard_assignment(num_sources, num_caches, strategy)
    return [
        tuple((primary[0] + r) % num_caches for r in range(replication))
        for primary in primaries
    ]


@dataclass(frozen=True)
class TopologyConfig:
    """Declarative topology choice, pluggable into a simulation context.

    ``kind`` is ``"star"`` (the paper's layout), ``"sharded"`` (each source
    reports to one of ``num_caches`` caches) or ``"replicated"`` (each
    source fans out to ``replication`` caches).  The aggregate cache-side
    bandwidth is split evenly across the cache links, so scenarios with
    different ``num_caches`` stay budget-comparable -- unless
    ``cache_rates`` pins explicit per-cache rates (heterogeneous edges:
    one beefy regional cache plus thin PoPs), in which case those absolute
    msgs/s rates replace the even split of the aggregate profile.

    ``delivery`` picks the fan-out plane (``"unicast"``/``"multicast"``,
    see :mod:`repro.network.delivery`); it only changes behavior when
    sources are replicated, but is accepted for every kind so sweeps can
    vary it orthogonally.
    """

    kind: str = "star"
    num_caches: int = 1
    replication: int = 2
    strategy: str = "block"
    cache_rates: tuple[float, ...] | None = None
    delivery: str = "unicast"

    def __post_init__(self) -> None:
        if self.kind not in ("star", "sharded", "replicated"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.delivery not in DELIVERY_MODES:
            raise ValueError(
                f"unknown delivery plane {self.delivery!r}; expected one "
                f"of {DELIVERY_MODES}")
        if self.num_caches < 1:
            raise ValueError(
                f"num_caches must be >= 1, got {self.num_caches}")
        if self.kind == "star" and self.num_caches != 1:
            raise ValueError("a star topology has exactly one cache; "
                             "use kind='sharded' for more")
        if self.kind == "replicated" and not (
                1 <= self.replication <= self.num_caches):
            raise ValueError(
                f"replication must be in [1, {self.num_caches}], "
                f"got {self.replication}")
        if self.cache_rates is not None:
            object.__setattr__(self, "cache_rates",
                               tuple(float(r) for r in self.cache_rates))
            if len(self.cache_rates) != self.num_caches:
                raise ValueError(
                    f"cache_rates lists {len(self.cache_rates)} rates for "
                    f"{self.num_caches} caches")
            if any(r <= 0 for r in self.cache_rates):
                raise ValueError(
                    f"cache_rates must be > 0, got {self.cache_rates}")

    def assignment_for(self, num_sources: int) -> list[tuple[int, ...]]:
        """The source -> caches map this configuration induces."""
        if self.kind == "star":
            return [(0,)] * num_sources
        if self.kind == "sharded":
            return shard_assignment(num_sources, self.num_caches,
                                    self.strategy)
        return replica_assignment(num_sources, self.num_caches,
                                  self.replication, self.strategy)

    def cache_profiles(self, cache_profile: BandwidthProfile
                       ) -> list[BandwidthProfile]:
        """Per-cache link profiles: the explicit heterogeneous rates when
        configured, otherwise an even split of the aggregate bandwidth."""
        if self.cache_rates is not None:
            return [ConstantBandwidth(rate) for rate in self.cache_rates]
        return split_bandwidth(cache_profile, self.num_caches)

    def build(self, cache_profile: BandwidthProfile,
              source_profiles: Sequence[BandwidthProfile]) -> Topology:
        """Materialize the topology for one simulation run."""
        if self.kind == "star":
            if self.cache_rates is not None:
                cache_profile = ConstantBandwidth(self.cache_rates[0])
            return StarTopology(cache_profile, list(source_profiles),
                                delivery=self.delivery)
        return MultiCacheTopology(
            self.cache_profiles(cache_profile), source_profiles,
            assignment=self.assignment_for(len(source_profiles)),
            delivery=self.delivery)
