"""The source plane: every source's protocol state in flat columns.

In the paper's protocol (Secs 5 and 8) each source keeps a threshold
``T_j``, a priority queue over its objects and a few counters.  Holding
that as a graph of per-source objects costs about a dozen allocations
per source, which dominates set-up (and the collector's exit pause) at
``m ~ 10^5``.  A :class:`SourcePlane` instead owns the state of all of
one policy's sources:

* the threshold columns and their arithmetic, inherited from
  :class:`~repro.core.threshold.ThresholdPlane`;
* ``refreshes_sent`` / ``feedback_received`` columns and a plane-wide
  ``(source, cache) -> count`` feedback tally;
* one :class:`~repro.core.tracking.PriorityTracker` with a heap per
  source and the lazy-heap priority/version maps shared plane-wide,
  keyed by global object index, so heap entries and tie-breaks stay
  exactly ``(-priority, version, index)``;
* one priority monitor for every source;
* the batch state, allocated only when batching is on.

:class:`~repro.source.source.SourceNode` is a two-slot row view
(``plane``, ``source_id``) whose methods run the protocol on these
columns.  Columns are Python lists rather than numpy arrays: the protocol
touches one scalar per event, which is faster on a list, and the
reported mean threshold stays a left-to-right Python float sum.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.objects import DataObject
from repro.core.threshold import ThresholdPlane
from repro.core.tracking import PriorityTracker
from repro.network.topology import Topology


def check_batching(batch_size: int, batch_timeout: float) -> None:
    """Raise ``ValueError`` on batch parameters batching rejects."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_timeout <= 0:
        raise ValueError(f"batch_timeout must be > 0, got {batch_timeout}")


class SourcePlane(ThresholdPlane):
    """Protocol state of ``rows`` sources over one topology.

    Parameters beyond :class:`~repro.core.threshold.ThresholdPlane`'s:

    topology:
        The routing fabric refreshes are sent through.
    tracker:
        The priority tracker, one heap per row.  The plane's priority
        monitor (attribute ``monitor``, set once built) keeps it current.
    objects:
        Every object of the plane's sources, source-major, with
        ``per_source`` objects per source: row ``j`` owns
        ``objects[j * per_source:(j + 1) * per_source]``.
    by_index:
        Global object index -> object (``objects`` itself when the
        objects are the whole workload in index order).
    """

    __slots__ = ("topology", "monitor", "tracker", "objects", "per_source",
                 "by_index", "refreshes_sent", "feedback_received",
                 "feedback_from", "send_hooks", "batch_size",
                 "batch_timeout", "staged", "staged_since", "batches_sent",
                 "items_sent")

    def __init__(self, rows: int, topology: Topology,
                 tracker: PriorityTracker,
                 objects: Sequence[DataObject], per_source: int,
                 by_index: Sequence[DataObject] | dict | None = None,
                 **threshold_params) -> None:
        super().__init__(rows, **threshold_params)
        self.topology = topology
        self.tracker = tracker
        self.monitor = None
        self.objects = objects
        self.per_source = per_source
        self.by_index = objects if by_index is None else by_index
        self.refreshes_sent = [0] * rows
        self.feedback_received = [0] * rows
        #: ``(source_id, cache_id) -> feedback messages`` (diagnostics)
        self.feedback_from: dict[tuple[int, int], int] = {}
        #: callbacks ``hook(obj, now, threshold_driven)`` fired per send
        self.send_hooks: list = []
        self.batch_size = 1
        self.batch_timeout = None
        self.staged = self.staged_since = None
        self.batches_sent = self.items_sent = None

    @classmethod
    def adopt(cls, thresholds: ThresholdPlane, topology: Topology, monitor,
              objects: Sequence[DataObject]) -> SourcePlane:
        """A plane over ``thresholds``' rows that shares its columns.

        This is how a standalone source is built from a standalone
        :class:`~repro.core.threshold.ThresholdController`: writes through
        either the source or the controller land in the same lists.
        """
        objects = list(objects)
        plane = cls(len(thresholds.value), topology, monitor.tracker,
                    objects, per_source=len(objects),
                    by_index={obj.index: obj for obj in objects},
                    alpha=thresholds.alpha, omega=thresholds.omega,
                    floor=thresholds.floor, ceil=thresholds.ceil,
                    feedback_ttl=thresholds.feedback_ttl)
        for name in ThresholdPlane.__slots__:
            setattr(plane, name, getattr(thresholds, name))
        plane.monitor = monitor
        return plane

    def enable_batching(self, batch_size: int, batch_timeout: float) -> None:
        """Allocate the per-source batch state (Sec 10.1 batching)."""
        check_batching(batch_size, batch_timeout)
        rows = len(self.value)
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.staged = [[] for _ in range(rows)]
        self.staged_since = [None] * rows
        self.batches_sent = [0] * rows
        self.items_sent = [0] * rows

    def objects_of(self, j: int) -> Sequence[DataObject]:
        """The objects source ``j`` owns."""
        per = self.per_source
        return self.objects[j * per:(j + 1) * per]
