"""The cooperating data source (paper Secs 5 and 8).

A :class:`SourceNode` owns a contiguous range of objects, watches their
refresh priorities through a :class:`PriorityMonitor`, and implements the
source half of the threshold-setting protocol:

* whenever source-side bandwidth allows, refresh the highest-priority
  object *if* its priority is at least the local threshold ``T_j``;
* raise ``T_j`` by ``alpha * gamma`` per refresh sent;
* on positive feedback, lower ``T_j`` by ``omega`` unless sending at full
  source-side capacity (footnote 3);
* piggyback the current ``T_j`` on every refresh message so the cache can
  target feedback at the sources with the highest thresholds.

The state lives in a :class:`~repro.source.plane.SourcePlane`; a
:class:`SourceNode` is a view of one row of it, holding nothing but the
plane and its source id.  Its methods read and write the plane's columns
and run the same float operations in the same order as a source that
owned its state, so results are bit-for-bit those of that design.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.objects import DataObject
from repro.core.threshold import ThresholdController
from repro.network.messages import FeedbackMessage, Message, RefreshMessage
from repro.network.topology import Topology
from repro.source.monitor import PriorityMonitor
from repro.source.plane import SourcePlane


class SourceNode:
    """One cooperating source; topology-agnostic.

    The source does not care how many caches exist: the topology routes
    its upstream refreshes to the right cache link(s), and downstream
    feedback arrives tagged with the ``cache_id`` it came from (tallied
    in ``feedback_by_cache`` for diagnostics).

    Constructed directly, a source is the row its ``threshold`` views
    (row 0 of a standalone controller's one-row plane, so ``source_id``
    must be 0) on a plane that shares the controller's columns;
    :meth:`view` wraps a row of an existing plane without allocating
    anything else.
    """

    __slots__ = ("plane", "source_id")

    def __init__(self, source_id: int, objects: Sequence[DataObject],
                 monitor: PriorityMonitor,
                 threshold: ThresholdController,
                 topology: Topology) -> None:
        if source_id != threshold.row:
            raise ValueError(
                f"source {source_id} cannot take over row {threshold.row} "
                f"of its threshold's plane")
        self.plane = SourcePlane.adopt(threshold.plane, topology, monitor,
                                       objects)
        self.source_id = source_id

    @classmethod
    def view(cls, plane: SourcePlane, source_id: int) -> SourceNode:
        """The source of row ``source_id`` of ``plane``."""
        source = cls.__new__(cls)
        source.plane = plane
        source.source_id = source_id
        return source

    # ------------------------------------------------------------------
    # Row accessors
    # ------------------------------------------------------------------
    @property
    def objects(self) -> Sequence[DataObject]:
        return self.plane.objects_of(self.source_id)

    @property
    def monitor(self) -> PriorityMonitor:
        return self.plane.monitor

    @property
    def threshold(self) -> ThresholdController:
        return ThresholdController.view(self.plane, self.source_id)

    @property
    def refreshes_sent(self) -> int:
        return self.plane.refreshes_sent[self.source_id]

    @property
    def feedback_received(self) -> int:
        return self.plane.feedback_received[self.source_id]

    @property
    def feedback_by_cache(self) -> dict[int, int]:
        """Feedback messages received, per sending cache."""
        j = self.source_id
        return {cache_id: count
                for (source_id, cache_id), count
                in self.plane.feedback_from.items() if source_id == j}

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_update(self, obj: DataObject, now: float) -> bool:
        """An update was applied to one of this source's objects.

        The paper's sources "decide whether to refresh immediately after
        each update" (Sec 3.4), so after repositioning the object in the
        priority queue we immediately try to drain.  Returns True when the
        drain was cut short by bandwidth (the source needs a wakeup at the
        next refill to finish).
        """
        self.plane.monitor.on_update(obj, now)
        return self.drain(now)

    def on_tick(self, now: float) -> None:
        """Per-tick refresh opportunity (SOURCES phase, tick-scan mode)."""
        self.plane.monitor.on_tick(self.objects, now)
        self.drain(now)

    def on_wake(self, now: float) -> bool:
        """Deadline-driven refresh opportunity (event scheduling).

        Performs exactly what :meth:`on_tick` would have at this tick --
        the monitor touches only its due objects -- and reports whether
        the source still has over-threshold work blocked on bandwidth.
        """
        self.plane.monitor.on_wake(self, now)
        return self.drain(now)

    def on_message(self, message: Message, now: float) -> bool:
        """Downstream message from a cache.  Returns the blocked status
        of any drain this message triggered."""
        if isinstance(message, FeedbackMessage):
            return self.on_feedback(now, cache_id=message.cache_id)
        return False

    def on_feedback(self, now: float, cache_id: int = 0) -> bool:
        """Positive feedback: lower the threshold and use it right away."""
        plane = self.plane
        j = self.source_id
        plane.feedback_received[j] += 1
        key = (j, cache_id)
        plane.feedback_from[key] = plane.feedback_from.get(key, 0) + 1
        at_capacity = plane.topology.source_at_capacity(j)
        plane.on_feedback(j, now, at_capacity=at_capacity)
        return self.drain(now)

    # ------------------------------------------------------------------
    # Refresh scheduling
    # ------------------------------------------------------------------
    def drain(self, now: float) -> bool:
        """Send refreshes while priority >= threshold and bandwidth allows.

        Returns True when an over-threshold object could not be sent for
        lack of source-side bandwidth -- the caller should schedule a
        wakeup at the next credit refill; False when the queue is exhausted
        or the top priority fell below the threshold (only a new update,
        feedback or sample can change that, each of which re-drains).
        """
        plane = self.plane
        j = self.source_id
        if now >= plane.decay_deadline[j]:
            plane.maybe_decay(j, now)
        tracker = plane.tracker
        while True:
            top = tracker.peek(j)
            if top is None:
                return False
            index, priority = top
            if priority < plane.value[j]:
                return False
            if not self._send_refresh(plane.by_index[index], now):
                return True  # out of source-side bandwidth this tick

    def _send_refresh(self, obj: DataObject, now: float,
                      adjust_threshold: bool = True) -> bool:
        """Send one refresh message; ``adjust_threshold=False`` is used by
        source-priority sends in competitive mode (Sec 7), which are paced
        by their own allocation rather than the threshold protocol."""
        plane = self.plane
        j = self.source_id
        message = RefreshMessage(
            source_id=j,
            sent_at=now,
            object_index=obj.index,
            value=obj.value,
            threshold=plane.value[j],
            update_count=obj.update_count,
        )
        if not plane.topology.send_upstream(message):
            return False
        obj.mark_sent(now)
        plane.monitor.on_refresh_sent(obj, now)
        if adjust_threshold:
            plane.on_refresh(j, now)
        plane.refreshes_sent[j] += 1
        for hook in plane.send_hooks:
            hook(obj, now, adjust_threshold)
        return True
