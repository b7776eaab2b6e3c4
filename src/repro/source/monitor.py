"""Priority monitoring at the sources (paper Sec 8).

Two implementations of the same interface:

* :class:`TriggerMonitor` -- exact: priority is recomputed whenever an
  update occurs (Sec 8.2 shows priority can only change on updates for
  non-time-varying priority functions).  Requires triggers or equivalent
  change capture at the source.
* :class:`SamplingMonitor` -- approximate (Sec 8.2.1): the source samples
  each object's divergence periodically, estimates the divergence integral
  by the midpoint rule ("each sampled value can be assumed to have been
  active during the period beginning and ending halfway between successive
  samples"), and optionally schedules the *next* sample predictively at the
  time the priority is projected to reach the refresh threshold:

      t_future = t_last + sqrt((t_now - t_last)^2
                               + 2 (T - P(O, t_now)) / (rho_i W(O, t_now)))

  with ``rho_i`` the estimated divergence rate.

One monitor serves every source of a policy: it keeps the priorities of
all objects in one :class:`PriorityTracker` whose heap rows are source
ids (an object is queued on the row of its ``source_id``), and the
sampling monitor's per-object estimator state is keyed by global object
index.  A standalone monitor over a one-row tracker serves source 0.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.core.divergence import DivergenceMetric
from repro.core.objects import DataObject
from repro.core.priority import PriorityFunction
from repro.core.tracking import PriorityTracker
from repro.core.weights import WeightModel
from repro.sim.events import WakeupSet


class PriorityMonitor(ABC):
    """Keeps the sources' :class:`PriorityTracker` up to date."""

    __slots__ = ("tracker", "priority_fn", "weights")

    def __init__(self, tracker: PriorityTracker,
                 priority_fn: PriorityFunction,
                 weights: WeightModel) -> None:
        self.tracker = tracker
        self.priority_fn = priority_fn
        self.weights = weights

    @abstractmethod
    def on_update(self, obj: DataObject, now: float) -> None:
        """An update was applied to ``obj``."""

    @abstractmethod
    def on_tick(self, obj_list: list[DataObject], now: float) -> None:
        """Periodic work (sampling, re-evaluation of time-varying priority)."""

    # ------------------------------------------------------------------
    # Event-driven scheduling hooks
    # ------------------------------------------------------------------
    #: True when :meth:`on_tick` does real work *every* tick regardless of
    #: activity (time-varying priorities); the policy then falls back to
    #: the degenerate everyone-wakes-every-dt schedule.
    @property
    def wants_tick(self) -> bool:
        return False

    #: True when :meth:`next_wake_time` can return a time; the policy
    #: skips the per-interaction query for monitors that never do.
    schedules_wakes: bool = False

    def prime(self, obj_list: list[DataObject]) -> None:
        """Install initial wakeup state for event-driven scheduling."""

    def next_wake_time(self, source_id: int = 0) -> float | None:
        """Earliest time this monitor needs source ``source_id`` woken
        (or ``None``).

        The owning policy arms the source's wakeup with this after every
        interaction, so a monitor never needs to call back into the
        engine itself.
        """
        return None

    def on_wake(self, source, now: float) -> None:
        """Deadline-driven replacement for :meth:`on_tick`.

        Called by the policy dispatcher when the source was woken; must
        perform exactly the work the per-tick scan would have done at this
        tick for the objects that are actually due.
        """

    def on_refresh_sent(self, obj: DataObject, now: float) -> None:
        """``obj`` was refreshed; drop it from the queue."""
        self.tracker.remove(obj.index)

    def refresh_priorities(self, obj_list: list[DataObject],
                           now: float) -> None:
        """Bulk re-evaluation (for fluctuating weights or time-varying
        priority functions).  Monitors that cannot observe state on demand
        (sampling) leave their estimates untouched."""

    def _recompute(self, obj: DataObject, now: float) -> None:
        weight = self.weights.weight(obj.index, now)
        priority = self.priority_fn.priority(obj, weight, now)
        self.tracker.update(obj.index, priority, obj.source_id)


class TriggerMonitor(PriorityMonitor):
    """Exact monitoring via update triggers (the paper's default)."""

    __slots__ = ()

    # An update recomputes the object's exact priority; bound directly
    # (not wrapped) because it runs once per update of every source.
    on_update = PriorityMonitor._recompute

    def on_tick(self, obj_list: list[DataObject], now: float) -> None:
        # Only time-varying priority functions (the Sec 9 bound priority)
        # need periodic recomputation; everything else is exact already.
        if self.priority_fn.time_varying:
            self.refresh_priorities(obj_list, now)

    @property
    def wants_tick(self) -> bool:
        # With a time-varying priority every object's priority changes
        # every tick, so there is nothing to schedule around; otherwise
        # priorities move only on updates and the monitor is fully
        # event-driven (Sec 8.2).
        return self.priority_fn.time_varying

    def refresh_priorities(self, obj_list: list[DataObject],
                           now: float) -> None:
        # Time-varying priorities (the Sec 9 bound) grow even for
        # synchronized objects, so every object is re-evaluated; for
        # update-driven priorities only diverged objects can be nonzero.
        time_varying = self.priority_fn.time_varying
        for obj in obj_list:
            if (time_varying or obj.index in self.tracker
                    or obj.belief.divergence != 0.0):
                self._recompute(obj, now)


class SamplingMonitor(PriorityMonitor):
    """Sampling-based monitoring for sources without update triggers.

    Parameters
    ----------
    metric:
        Divergence metric to evaluate on each sample.
    interval:
        Regular sampling interval per object.
    predictive:
        When True and a threshold getter is provided, the next sample of an
        object is scheduled at the projected threshold-crossing time
        (clamped to ``[min_interval, interval]``).
    threshold:
        The current refresh threshold, used only for predictive
        scheduling: the plane's threshold column (a list indexed by
        source id) or, for a monitor serving one source, a zero-argument
        callable.
    """

    __slots__ = ("metric", "interval", "min_interval", "predictive",
                 "samples_taken", "_threshold_of", "_last_sample_time",
                 "_last_sample_div", "_est_integral", "_next_sample",
                 "_deadlines")

    def __init__(self, tracker: PriorityTracker,
                 priority_fn: PriorityFunction, weights: WeightModel,
                 metric: DivergenceMetric, interval: float,
                 predictive: bool = False,
                 threshold=None, min_interval: float = 1.0) -> None:
        super().__init__(tracker, priority_fn, weights)
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        self.metric = metric
        self.interval = interval
        self.min_interval = min_interval
        self.predictive = predictive
        # Normalized to "source id -> current threshold".
        if isinstance(threshold, list):
            self._threshold_of = threshold.__getitem__
        elif threshold is not None:
            self._threshold_of = lambda _source_id: threshold()
        else:
            self._threshold_of = None
        self.samples_taken = 0
        # Per-object estimator state, keyed by object index.
        self._last_sample_time: dict[int, float] = {}
        self._last_sample_div: dict[int, float] = {}
        self._est_integral: dict[int, float] = {}
        self._next_sample: dict[int, float] = {}
        # Event-driven view of _next_sample: the same deadlines on one
        # heap per source, so a wakeup-scheduled source touches only the
        # objects that are due instead of scanning all of them each tick.
        self._deadlines = [WakeupSet() for _ in range(tracker.rows)]

    # ------------------------------------------------------------------
    # Monitor interface
    # ------------------------------------------------------------------
    def on_update(self, obj: DataObject, now: float) -> None:
        # A sampling source does not see individual updates.
        pass

    def on_refresh_sent(self, obj: DataObject, now: float) -> None:
        super().on_refresh_sent(obj, now)
        index = obj.index
        self._last_sample_time[index] = now
        self._last_sample_div[index] = 0.0
        self._est_integral[index] = 0.0
        self._set_next_sample(obj, now + self.interval)

    def on_tick(self, obj_list: list[DataObject], now: float) -> None:
        for obj in obj_list:
            if now + 1e-12 >= self._next_sample.get(obj.index, 0.0):
                self.sample(obj, now)

    # ------------------------------------------------------------------
    # Event-driven scheduling hooks
    # ------------------------------------------------------------------
    schedules_wakes = True

    def prime(self, obj_list: list[DataObject]) -> None:
        """Arm every object's deadline (unseen objects are due at once,
        mirroring ``_next_sample``'s default of 0)."""
        deadlines = self._deadlines
        for obj in obj_list:
            deadlines[obj.source_id].reschedule(
                obj.index, self._next_sample.get(obj.index, 0.0))

    def next_wake_time(self, source_id: int = 0) -> float | None:
        return self._deadlines[source_id].peek_time()

    def on_wake(self, source, now: float) -> None:
        """Sample exactly the objects whose deadline has arrived.

        ``pop_due`` returns indices ascending, the same order the per-tick
        scan visited due objects, and the ``1e-12`` slack matches the
        scan's deadline comparison -- so a wakeup-scheduled source takes
        bit-identical samples at bit-identical times.
        """
        by_index = source.plane.by_index
        due = self._deadlines[source.source_id].pop_due(now, eps=1e-12)
        for index in due:
            self.sample(by_index[index], now)

    def _set_next_sample(self, obj: DataObject, time: float) -> None:
        self._next_sample[obj.index] = time
        self._deadlines[obj.source_id].reschedule(obj.index, time)

    # ------------------------------------------------------------------
    # Sampling machinery
    # ------------------------------------------------------------------
    def sample(self, obj: DataObject, now: float) -> None:
        """Take one divergence sample of ``obj`` and update its priority."""
        index = obj.index
        view = obj.belief
        divergence = self.metric.compute(
            obj.value, view.reference_value,
            obj.update_count - view.reference_count)
        last_t = self._last_sample_time.get(index, view.last_refresh_time)
        last_d = self._last_sample_div.get(index, 0.0)
        integral = self._est_integral.get(index, 0.0)
        # Midpoint attribution: each sample's value is active from halfway
        # since the previous sample to halfway until the next; telescoping
        # over samples this equals the trapezoid rule used here.
        integral += 0.5 * (last_d + divergence) * (now - last_t)
        self._last_sample_time[index] = now
        self._last_sample_div[index] = divergence
        self._est_integral[index] = integral
        self.samples_taken += 1

        weight = self.weights.weight(index, now)
        elapsed = now - view.last_refresh_time
        priority = (elapsed * divergence - integral) * weight
        self.tracker.update(index, priority, obj.source_id)
        self._set_next_sample(obj, now + self._next_delay(
            obj, priority, divergence, last_t, last_d, now, weight))

    def _next_delay(self, obj: DataObject, priority: float,
                    divergence: float, last_t: float, last_d: float,
                    now: float, weight: float) -> float:
        if not self.predictive or self._threshold_of is None:
            return self.interval
        threshold = self._threshold_of(obj.source_id)
        if priority >= threshold:
            return self.min_interval
        elapsed_since_last = now - last_t
        if elapsed_since_last <= 0:
            return self.interval
        rho = (divergence - last_d) / elapsed_since_last
        if rho <= 0 or weight <= 0:
            return self.interval
        t_last = obj.belief.last_refresh_time
        radicand = ((now - t_last) ** 2
                    + 2.0 * (threshold - priority) / (rho * weight))
        if radicand < 0:
            return self.min_interval
        t_future = t_last + math.sqrt(radicand)
        return min(max(t_future - now, self.min_interval), self.interval)
