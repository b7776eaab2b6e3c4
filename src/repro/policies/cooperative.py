"""The paper's practical algorithm: threshold-based source cooperation.

This policy assembles the full Sec 5 machinery over the message-level
network substrate:

* one :class:`SourcePlane` holding every source's protocol state in flat
  columns -- the thresholds (``alpha``/``omega``/``gamma`` dynamics), a
  lazy priority heap per source, the send/feedback counters -- with one
  priority monitor for all sources (exact triggers by default, sampling
  optional) and one :class:`SourceNode` row view per source, which is
  what the update, wake and feedback paths call;
* one :class:`CacheNode` per cache node in the configured topology, each
  applying whatever refreshes arrive on its link and running its own
  :class:`FeedbackController`, spending surplus link bandwidth on positive
  feedback to the highest-threshold sources it is primary for;
* a :class:`Topology` (the paper's star by default, or a sharded /
  replicated :class:`MultiCacheTopology` via the context's
  :class:`TopologyConfig`) whose cache links are where congestion,
  queueing delay and flooding actually happen.

Every coordination byte is accounted: refresh messages carry the
piggybacked thresholds, feedback messages consume real bandwidth, and the
run result separates useful refreshes from overhead.
"""

from __future__ import annotations

import math

from repro.cache.cache import CacheNode
from repro.cache.feedback import FeedbackController
from repro.cache.store import CacheStore
from repro.core.divergence import DivergenceMetric
from repro.core.objects import DataObject
from repro.core.priority import PriorityFunction
from repro.core.threshold import (
    DEFAULT_ALPHA,
    DEFAULT_OMEGA,
    check_threshold_params,
)
from repro.core.tracking import PriorityTracker
from repro.network.bandwidth import BandwidthProfile
from repro.network.topology import Topology
from repro.policies.base import SimulationContext, SyncPolicy
from repro.sim.events import Phase, WakeupSet
from repro.source.batching import BatchingSource
from repro.source.monitor import SamplingMonitor, TriggerMonitor
from repro.source.plane import SourcePlane, check_batching
from repro.source.source import SourceNode


class CooperativePolicy(SyncPolicy):
    """Sec 5's adaptive threshold-setting algorithm, end to end.

    Parameters
    ----------
    cache_bandwidth:
        Aggregate cache-side profile ``C(t)``; the context's topology
        splits it evenly across its cache links.
    source_bandwidths:
        One profile per source (``B_j(t)``).
    priority_fn:
        Refresh priority function shared by all sources.
    alpha, omega:
        Threshold increase / decrease factors (paper's best: 1.1 and 10).
    initial_threshold:
        Starting ``T_j`` for every source; any positive value works after
        warm-up.
    feedback_period:
        Expected feedback period ``P_feedback`` for the ``gamma`` factor;
        ``None`` derives the paper's rough estimate per cache
        (``sources at that cache / mean cache-link bandwidth``).
    monitor:
        ``"trigger"`` (exact, default) or ``"sampling"`` (Sec 8.2.1).
    sampling_interval, predictive_sampling:
        Sampling-monitor knobs (ignored for trigger monitoring).
    reprioritize_interval:
        Optional periodic re-computation of all priorities, for fluctuating
        weights or time-varying priority functions.
    batch_size, batch_timeout:
        When ``batch_size > 1``, sources package that many refreshes into
        each message (Sec 10.1 future work), flushing a partial batch
        after ``batch_timeout``.
    feedback_ttl:
        Staleness bound on feedback (graceful degradation under faults):
        a source that has heard no feedback for this long stops treating
        the silence as flood pressure and instead decays its threshold
        by ``1/omega`` per TTL elapsed, drifting back toward the uniform
        allocation.  ``None`` (default) keeps the paper's pure protocol.
    rebalance:
        A :class:`~repro.rebalance.controller.RebalanceConfig` to run a
        shard rebalancer over this policy's caches (multi-cache sharded
        topologies; inert on a star).  ``None`` (default) leaves every
        code path exactly as without the feature -- the same pin
        discipline as the fault injector's empty plan.
    scheduling:
        ``"event"`` (default): sources and caches are woken per entity by
        a :class:`~repro.sim.events.WakeupSet` only when they have work
        (pending bandwidth-blocked refreshes, sampling deadlines, feedback
        targets, queued messages), and idle steady-profile source links
        skip the network tick.  ``"tick"``: the paper-literal full scan of
        every node every ``dt`` (the degenerate "everyone wakes every dt"
        schedule).  Both produce bit-for-bit identical results; the
        equivalence tests pin that.

    Out-of-range options raise ``ValueError`` here, before any topology
    is built.  :meth:`attach` builds one :class:`SourcePlane` for all
    sources and exposes a row view per source as ``sources[j]``.
    """

    name = "cooperative"

    def __init__(self, cache_bandwidth: BandwidthProfile,
                 source_bandwidths: list[BandwidthProfile],
                 priority_fn: PriorityFunction,
                 alpha: float = DEFAULT_ALPHA,
                 omega: float = DEFAULT_OMEGA,
                 initial_threshold: float = 1.0,
                 feedback_period: float | None = None,
                 monitor: str = "trigger",
                 sampling_interval: float = 10.0,
                 predictive_sampling: bool = False,
                 reprioritize_interval: float | None = None,
                 batch_size: int = 1,
                 batch_timeout: float = 5.0,
                 scheduling: str = "event",
                 feedback_ttl: float | None = None,
                 rebalance=None) -> None:
        if scheduling not in ("event", "tick"):
            raise ValueError(f"unknown scheduling mode {scheduling!r}")
        if monitor not in ("trigger", "sampling"):
            raise ValueError(f"unknown monitor kind {monitor!r}")
        if sampling_interval <= 0:
            raise ValueError(
                f"sampling interval must be > 0, got {sampling_interval}")
        check_batching(batch_size, batch_timeout)
        check_threshold_params(initial_threshold, alpha, omega,
                               feedback_period, feedback_ttl)
        self.scheduling = scheduling
        self.cache_bandwidth = cache_bandwidth
        self.source_bandwidths = source_bandwidths
        self.priority_fn = priority_fn
        self.alpha = alpha
        self.omega = omega
        self.initial_threshold = initial_threshold
        self.feedback_period = feedback_period
        self.monitor_kind = monitor
        self.sampling_interval = sampling_interval
        self.predictive_sampling = predictive_sampling
        self.reprioritize_interval = reprioritize_interval
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.feedback_ttl = feedback_ttl
        self.rebalance = rebalance
        self.rebalancer = None
        self.topology: Topology | None = None
        self.caches: list[CacheNode] = []
        self.stores: list[CacheStore] = []
        self.feedbacks: list[FeedbackController] = []
        self.plane: SourcePlane | None = None
        self.sources: list[SourceNode] = []
        self._event_driven = False
        self._wake_monitor = False
        self._source_wakeups = WakeupSet()
        self._cache_wakeups = WakeupSet()

    # ------------------------------------------------------------------
    # Single-cache conveniences (the star special case)
    # ------------------------------------------------------------------
    @property
    def cache(self) -> CacheNode | None:
        return self.caches[0] if self.caches else None

    @property
    def store(self) -> CacheStore | None:
        return self.stores[0] if self.stores else None

    @property
    def feedback(self) -> FeedbackController | None:
        return self.feedbacks[0] if self.feedbacks else None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, ctx: SimulationContext) -> None:
        workload = ctx.workload
        if len(self.source_bandwidths) != workload.num_sources:
            raise ValueError(
                f"expected {workload.num_sources} source bandwidth "
                f"profiles, got {len(self.source_bandwidths)}")
        self._ctx = ctx
        self.topology = ctx.build_topology(self.cache_bandwidth,
                                           self.source_bandwidths)
        topology = self.topology
        self.caches = []
        self.stores = []
        self.feedbacks = []
        delivery = topology.delivery_plane
        m = workload.num_sources
        # Each source's home: its primary cache at attach, which fixes
        # the feedback period its gamma factor uses.
        home = [0] * m
        periods = []
        for k in range(topology.num_caches):
            owned = topology.owned_sources_of(k)
            # Per-source refresh value under this delivery plane: r-way
            # replicated sources are r times cheaper per unit of
            # divergence removed under multicast.  All-ones collapses to
            # None so the unicast ranking arithmetic is untouched; with
            # one cache every source has one replica, so it is None.
            gains = None
            if topology.num_caches > 1:
                gains = [delivery.feedback_gain(len(topology.caches_of(j)))
                         for j in owned]
                if all(g == 1.0 for g in gains):
                    gains = None
                for j in owned:
                    home[j] = k
            periods.append(self._feedback_period_for(k, ctx))
            feedback = FeedbackController(
                topology, self.omega, cache_id=k,
                source_ids=owned, gains=gains)
            store = CacheStore(workload.num_objects,
                               workload.trace.initial_values)
            cache = CacheNode(ctx.objects, ctx.metric, topology,
                              collector=ctx.collector, store=store,
                              feedback=feedback,
                              clock=lambda: ctx.sim.now, cache_id=k)
            self.feedbacks.append(feedback)
            self.stores.append(store)
            self.caches.append(cache)

        plane = SourcePlane(
            m, topology, PriorityTracker(m), ctx.objects,
            workload.objects_per_source, initial=self.initial_threshold,
            alpha=self.alpha, omega=self.omega, periods=periods, home=home,
            feedback_ttl=self.feedback_ttl)
        monitor = self._build_monitor(plane, workload.weights, ctx.metric)
        plane.monitor = monitor
        if self.batch_size > 1:
            plane.enable_batching(self.batch_size, self.batch_timeout)
            view = BatchingSource.view
        else:
            view = SourceNode.view
        self.plane = plane
        self.sources = [view(plane, j) for j in range(m)]
        topology.set_source_receivers(self._on_downstream)
        if topology.reliable is not None:
            topology.reliable.register_monitor(monitor)

        # Time-varying priorities change every object's priority every
        # tick, so there is nothing to schedule around: fall back to the
        # degenerate everyone-wakes-every-dt schedule for them.
        event_requested = self.scheduling == "event"
        self._event_driven = event_requested and not monitor.wants_tick
        self._wake_monitor = monitor.schedules_wakes
        topology.set_lazy_links(event_requested)
        self._source_wakeups = WakeupSet()
        self._cache_wakeups = WakeupSet()
        if self._event_driven:
            # Trigger monitors without a feedback TTL arm nothing, so
            # only sampling deadlines or TTL decays need a priming pass.
            if self._wake_monitor or self.feedback_ttl is not None:
                monitor.prime(ctx.objects)
                for j in range(m):
                    self._rearm_source(j, 0.0, blocked=False)
            for k in range(topology.num_caches):
                self._cache_wakeups.arm(k, 0.0)
                self.caches[k].activity_hook = self._make_cache_activity(k)
                topology.cache_links[k].on_queue = self._make_queue_hook(k)

        ctx.add_update_hook(self._on_update)
        ctx.sim.every(ctx.dt, topology.on_network_tick,
                      phase=Phase.NETWORK)
        ctx.sim.every(ctx.dt, self._sources_tick, phase=Phase.SOURCES)
        ctx.sim.every(ctx.dt, self._caches_tick, phase=Phase.CACHE)
        if self.reprioritize_interval is not None:
            ctx.sim.every(self.reprioritize_interval,
                          self._reprioritize_all, phase=Phase.SOURCES)
        self.rebalancer = None
        if self.rebalance is not None:
            # Local import: the rebalance package imports cache/topology
            # modules, and policies must stay importable without it.
            from repro.rebalance.controller import Rebalancer
            self.rebalancer = Rebalancer(self.rebalance, topology,
                                         self.caches)
            self.rebalancer.install(ctx)

    def _feedback_period_for(self, primary: int,
                             ctx: SimulationContext) -> float | None:
        """Expected feedback period of the sources homed at ``primary``.

        The paper's rough estimate is m / mean cache bandwidth, taken here
        per cache node: the sources sharing the primary cache over that
        link's mean rate.  At the alpha/omega equilibrium one feedback
        balances ln(omega)/ln(alpha) refreshes (~24 at the default
        settings), so the *expected* period between feedback messages to
        one source is that many times longer.
        Scaling the estimate (and flooring it at a few ticks) keeps gamma
        measuring genuine feedback droughts across bandwidth regimes --
        the paper notes the estimate "need only be a rough estimate".
        """
        if self.feedback_period is not None:
            return self.feedback_period
        assert self.topology is not None
        mean_rate = self.topology.cache_links[primary].profile.mean_rate
        if mean_rate <= 0:
            return None
        slack = math.log(self.omega) / math.log(self.alpha)
        peers = len(self.topology.owned_sources_of(primary))
        return max(slack * peers / mean_rate, 5.0 * ctx.dt)

    def _build_monitor(self, plane: SourcePlane, weights,
                       metric: DivergenceMetric):
        if self.monitor_kind == "trigger":
            return TriggerMonitor(plane.tracker, self.priority_fn, weights)
        return SamplingMonitor(
            plane.tracker, self.priority_fn, weights, metric,
            interval=self.sampling_interval,
            predictive=self.predictive_sampling, threshold=plane.value)

    def _on_downstream(self, message) -> None:
        """The one downstream receiver: route to the message's source."""
        j = message.source_id
        now = self._ctx.sim.now
        blocked = self.sources[j].on_message(message, now)
        if self._event_driven:
            self._rearm_source(j, now, blocked)

    def _make_cache_activity(self, cache_id: int):
        def hook(now: float) -> None:
            self._cache_wakeups.arm(cache_id, now)
        return hook

    def _make_queue_hook(self, cache_id: int):
        def hook(message) -> None:
            self._cache_wakeups.arm(cache_id, message.sent_at)
        return hook

    # ------------------------------------------------------------------
    # Event routing
    #
    # In event mode the per-tick dispatchers below wake only the entities
    # whose WakeupSet entry is due, in the same ascending-id order the
    # full scans used; every source entry point (update, feedback, wake)
    # re-arms the source's wakeup from its blocked status and its
    # monitor's next sampling deadline.  A source is parked exactly when
    # a tick-scan visit would have been a no-op, which is what makes the
    # two schedules bit-for-bit identical.
    # ------------------------------------------------------------------
    def _on_update(self, obj: DataObject, now: float) -> None:
        j = obj.source_id
        blocked = self.sources[j].on_update(obj, now)
        if self._event_driven:
            self._rearm_source(j, now, blocked)

    def _rearm_source(self, j: int, now: float, blocked: bool) -> None:
        if blocked:
            # Out of bandwidth with over-threshold work: credit accrues by
            # the next tick, so wake at the next dispatcher fire.
            self._source_wakeups.arm(j, now)
        if self._wake_monitor:
            next_wake = self.plane.monitor.next_wake_time(j)
            if next_wake is not None:
                self._source_wakeups.arm(j, next_wake)
        if self.feedback_ttl is not None:
            # TTL decay must fire even while the source is otherwise
            # parked, or a blacked-out event-mode source would never
            # drift -- breaking tick/event equivalence.
            self._source_wakeups.arm(j, self.plane.decay_deadline[j])

    def _sources_tick(self, now: float) -> None:
        if not self._event_driven:
            for source in self.sources:
                source.on_tick(now)
            return
        for j in self._source_wakeups.pop_due(now, eps=1e-12):
            blocked = self.sources[j].on_wake(now)
            self._rearm_source(j, now, blocked)

    def _caches_tick(self, now: float) -> None:
        if not self._event_driven:
            for cache in self.caches:
                cache.on_tick(now)
            return
        for k in self._cache_wakeups.pop_due(now):
            cache = self.caches[k]
            cache.on_tick(now)
            if self._cache_needs_tick(cache):
                self._cache_wakeups.arm(k, now)

    def _cache_needs_tick(self, cache: CacheNode) -> bool:
        """A cache keeps its per-tick wakeup while it has queued messages
        to drain or feedback-eligible sources to pay surplus credit to."""
        assert self.topology is not None
        if self.topology.cache_links[cache.cache_id].queue:
            return True
        return cache.feedback is not None and cache.feedback.has_targets()

    def _reprioritize_all(self, now: float) -> None:
        plane = self.plane
        for j in range(len(self.sources)):
            plane.monitor.refresh_priorities(plane.objects_of(j), now)
            if self._event_driven and plane.tracker.peek(j) is not None:
                # Re-evaluated priorities may now clear the threshold; the
                # tick-scan schedule would notice at the next tick's drain.
                self._source_wakeups.arm(j, now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def refreshes(self) -> int:
        return sum(cache.refreshes_applied for cache in self.caches)

    def feedback_messages(self) -> int:
        return sum(fb.feedback_sent for fb in self.feedbacks)

    def messages_total(self) -> int:
        if self.topology is None:
            return 0
        return self.topology.cache_messages_total()

    def _legs_sent(self) -> int:
        """Refresh legs sent: a send reaches every cache of its source,
        so it counts one leg per replica."""
        if self.plane is None:
            return 0
        caches_of = self.topology.caches_of
        return sum(sent * len(caches_of(j))
                   for j, sent in enumerate(self.plane.refreshes_sent))

    def check_conservation(self) -> None:
        """Links conserve messages, the cache links accepted one leg per
        replica of every source send (feedback is the only downstream
        traffic), and every source link accepted exactly the sends its
        source counted."""
        super().check_conservation()
        if self.plane is None:
            return
        accepted = sum(link.total_sent for link in self.topology.cache_links)
        accepted -= self.feedback_messages()
        fanned = self._legs_sent()
        if accepted != fanned:
            raise RuntimeError(
                f"cache links accepted {accepted} refresh legs, but the "
                f"sources sent {fanned} (sends times replicas)")
        sends = self.topology.source_links.sends
        counted = self.plane.refreshes_sent
        if sends != counted:
            j = next(j for j, (a, c) in enumerate(zip(sends, counted))
                     if a != c)
            raise RuntimeError(
                f"source {j}: its source link accepted {sends[j]} sends, "
                f"but the source counted {counted[j]} refreshes")

    def extras(self) -> dict:
        plane = self.plane
        thresholds = plane.value if plane is not None else []
        extras = {
            "mean_threshold": (sum(thresholds) / len(thresholds)
                               if thresholds else 0.0),
            "refreshes_sent": (sum(plane.refreshes_sent)
                               if plane is not None else 0),
            # legs, not sends, so in-flight compares with per-replica
            # applications
            "refreshes_in_flight": self._legs_sent() - self.refreshes(),
            "cache_queue_peak": (self.topology.cache_queued_peak()
                                 if self.topology else 0),
        }
        if self.topology is not None and self.topology.num_caches > 1:
            extras["topology"] = self.topology.telemetry(
                now=self._ctx.sim.now)
        if self.rebalancer is not None:
            extras["rebalance"] = self.rebalancer.telemetry()
        return extras
