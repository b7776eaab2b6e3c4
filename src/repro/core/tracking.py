"""Lazy max-heap priority tracking (paper Sec 8).

"Sources can maintain a priority queue so that the highest-priority updated
object can be located quickly whenever spare bandwidth becomes available."

Priorities (for the non-time-varying functions) change only when an object
is updated, so a *lazy* heap is exact: every priority change pushes a new
entry stamped with a per-object version number, and stale entries are
discarded on pop.  Objects whose priority is zero (freshly refreshed, or
fresh under the staleness metric) are kept out of the heap entirely.
"""

from __future__ import annotations

import heapq


class PriorityTracker:
    """Tracks ``index -> priority`` with O(log n) max extraction.

    ``rows`` lazy heaps share one priority map and one version map keyed
    by global object index.  A policy's source plane keeps one heap per
    source (``row`` is the source id) in a single tracker, so attaching
    ``m`` sources costs ``m`` empty lists rather than ``m`` trackers with
    two dicts each; a standalone tracker has one row.  Each index lives
    in exactly one row, so heap entries and their tie-breaks --
    ``(-priority, version, index)`` -- are the same as with a private
    tracker per row.  ``len`` and :meth:`items` cover all rows.
    """

    __slots__ = ("_heaps", "_priority", "_version")

    def __init__(self, rows: int = 1) -> None:
        # one heap per row of (-priority, version, index)
        self._heaps: list[list[tuple[float, int, int]]] = [
            [] for _ in range(rows)]
        self._priority: dict[int, float] = {}
        self._version: dict[int, int] = {}

    @property
    def rows(self) -> int:
        """Number of heaps (sources) this tracker serves."""
        return len(self._heaps)

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, index: int) -> bool:
        return index in self._priority

    def get(self, index: int) -> float:
        """Current priority of ``index`` (0 when untracked)."""
        return self._priority.get(index, 0.0)

    def update(self, index: int, priority: float, row: int = 0) -> None:
        """Set the priority of ``index`` (queued on heap ``row``);
        zero/negative removes it."""
        version = self._version.get(index, 0) + 1
        self._version[index] = version
        if priority <= 0.0:
            self._priority.pop(index, None)
            return
        self._priority[index] = priority
        heapq.heappush(self._heaps[row], (-priority, version, index))

    def remove(self, index: int) -> None:
        """Drop ``index`` from the queue (e.g. after refreshing it)."""
        self._version[index] = self._version.get(index, 0) + 1
        self._priority.pop(index, None)

    def peek(self, row: int = 0) -> tuple[int, float] | None:
        """Highest-priority ``(index, priority)`` of heap ``row`` without
        removing it."""
        # Stale entries (superseded versions, removed indices) are
        # discarded here, lazily.
        heap = self._heaps[row]
        version = self._version
        priority = self._priority
        while heap:
            neg_priority, entry_version, index = heap[0]
            if version.get(index) == entry_version and index in priority:
                return index, -neg_priority
            heapq.heappop(heap)
        return None

    def pop(self, row: int = 0) -> tuple[int, float] | None:
        """Remove and return the highest-priority ``(index, priority)``
        of heap ``row``."""
        top = self.peek(row)
        if top is not None:
            heapq.heappop(self._heaps[row])
            self.remove(top[0])
        return top

    def items(self) -> list[tuple[int, float]]:
        """All tracked ``(index, priority)`` pairs (unsorted)."""
        return list(self._priority.items())
