"""Refresh batching (paper Sec 10.1, future work).

"In some environments it may be appropriate to amortize network bandwidth
by packaging several data objects into the same message for refreshing.
Doing so will cause some refreshes to be delayed artificially while the
source waits for other refreshes to accumulate.  It would be interesting
to explore the tradeoff between packaging multiple refresh messages
together to save bandwidth versus the increased divergence resulting from
delaying refreshes."

:class:`BatchingSource` extends the cooperating source with a holding pen:
objects whose priority crosses the threshold are *staged* rather than sent,
and a batch message (one bandwidth unit) departs when either ``batch_size``
items have accumulated or the oldest staged item has waited
``batch_timeout``.  The cache applies each item individually.

Threshold bookkeeping: the protocol's multiplicative increase regulates
*bandwidth* consumption, and a batch costs one message, so the threshold
rises once per batch, not once per item.

Like :class:`~repro.source.source.SourceNode`, a batching source is a row
view: its holding pen lives in the plane's batch columns, which
:meth:`~repro.source.plane.SourcePlane.enable_batching` allocates only
for batching policies.
"""

from __future__ import annotations

from repro.network.messages import BatchRefreshMessage
from repro.source.source import SourceNode


class BatchingSource(SourceNode):
    """A source that packages several refreshes into each message."""

    __slots__ = ()

    def __init__(self, *args, batch_size: int = 4,
                 batch_timeout: float = 5.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.plane.enable_batching(batch_size, batch_timeout)

    @property
    def batches_sent(self) -> int:
        return self.plane.batches_sent[self.source_id]

    @property
    def items_sent(self) -> int:
        return self.plane.items_sent[self.source_id]

    # ------------------------------------------------------------------
    # Refresh scheduling (overrides the one-message-per-object flow)
    # ------------------------------------------------------------------
    def drain(self, now: float) -> bool:
        """Stage over-threshold objects; flush when full or timed out.

        A batching source reports "needs a wakeup" whenever refreshes are
        still staged: a partial batch is waiting on its timeout and a full
        one may be waiting on bandwidth, both of which resolve on a later
        tick.
        """
        plane = self.plane
        j = self.source_id
        plane.maybe_decay(j, now)
        tracker = plane.tracker
        staged = plane.staged[j]
        staged_indices = {obj.index for obj in staged}
        while True:
            top = tracker.peek(j)
            if top is None:
                break
            index, priority = top
            if priority < plane.value[j]:
                break
            tracker.pop(j)
            if index in staged_indices:
                continue
            staged.append(plane.by_index[index])
            staged_indices.add(index)
            if plane.staged_since[j] is None:
                plane.staged_since[j] = now
        self._maybe_flush(now)
        return bool(plane.staged[j])

    def on_tick(self, now: float) -> None:
        super().on_tick(now)
        self._maybe_flush(now)

    def _maybe_flush(self, now: float) -> None:
        plane = self.plane
        j = self.source_id
        staged = plane.staged[j]
        if not staged:
            return
        since = plane.staged_since[j]
        full = len(staged) >= plane.batch_size
        expired = since is not None and now - since >= plane.batch_timeout
        if full or expired:
            self._flush(now)

    def _flush(self, now: float) -> bool:
        """Send one batch message (one bandwidth unit)."""
        plane = self.plane
        j = self.source_id
        size = plane.batch_size
        batch = plane.staged[j][:size]
        message = BatchRefreshMessage(
            source_id=j,
            sent_at=now,
            items=[(obj.index, obj.value, obj.update_count)
                   for obj in batch],
            threshold=plane.value[j],
        )
        if not plane.topology.send_upstream(message):
            return False  # out of bandwidth; retry on a later tick
        monitor = plane.monitor
        for obj in batch:
            obj.mark_sent(now)
            monitor.on_refresh_sent(obj, now)
            plane.items_sent[j] += 1
        rest = plane.staged[j][size:]
        plane.staged[j] = rest
        plane.staged_since[j] = now if rest else None
        plane.on_refresh(j, now)
        plane.batches_sent[j] += 1
        plane.refreshes_sent[j] += 1  # one message on the wire
        return True

    @property
    def staged(self) -> int:
        """Number of refreshes currently waiting for the batch to fill."""
        return len(self.plane.staged[self.source_id])
