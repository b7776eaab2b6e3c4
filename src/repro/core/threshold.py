"""The adaptive local refresh threshold (paper Sec 5).

Each source ``S_j`` keeps a local threshold ``T_j`` and refreshes its
top-priority object only while that priority is at least ``T_j``.  The
threshold adapts:

* **increase on refresh**: every refresh sent multiplies the threshold by
  ``alpha * gamma``.  ``alpha`` (paper's best setting: 1.1) conservatively
  slows the refresh rate in the absence of feedback.  ``gamma`` accelerates
  the back-off when the network looks flooded: with ``t_fb`` the elapsed
  time since the last feedback message and ``P_fb`` the expected feedback
  period (roughly ``num_sources / mean cache bandwidth``),
  ``gamma = max(1, t_fb / P_fb)``.
* **decrease on positive feedback**: a feedback message divides the
  threshold by ``omega`` (paper's best setting: 10) -- *unless* the source
  is currently sending at full source-side capacity, in which case the
  feedback is ignored (footnote 3: a capacity-limited source lowering its
  threshold would build a backlog that could later flood the cache).

The order-of-magnitude asymmetry between ``alpha`` and ``omega`` reflects
that increases (per refresh) are far more frequent than decreases (per
feedback message).

State layout: :class:`ThresholdPlane` holds the thresholds of many
sources as flat list columns indexed by source id, and its methods are
the one copy of the arithmetic above.  :class:`ThresholdController` is a
view of one row; constructed on its own it is a one-row plane.  The
source plane (:class:`repro.source.plane.SourcePlane`) extends the
threshold plane with the rest of a source's protocol state.
"""

from __future__ import annotations

DEFAULT_ALPHA = 1.1
DEFAULT_OMEGA = 10.0

_INF = float("inf")


def check_threshold_params(initial: float, alpha: float, omega: float,
                           feedback_period: float | None = None,
                           feedback_ttl: float | None = None) -> None:
    """Raise ``ValueError`` on parameters the threshold dynamics reject."""
    if initial <= 0:
        raise ValueError(f"initial threshold must be > 0, got {initial}")
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if omega <= 1.0:
        raise ValueError(f"omega must be > 1, got {omega}")
    if feedback_period is not None and feedback_period <= 0:
        raise ValueError(
            f"feedback period must be > 0, got {feedback_period}")
    if feedback_ttl is not None and feedback_ttl <= 0:
        raise ValueError(
            f"feedback TTL must be > 0, got {feedback_ttl}")


class ThresholdPlane:
    """The local thresholds ``T_j`` of ``rows`` sources, one column each.

    Parameters
    ----------
    rows:
        Number of sources (row ``j`` is source ``j``).
    initial:
        Starting threshold of every row.  The algorithm is adaptive, so
        any positive value works after a warm-up period (paper Sec 5).
    alpha:
        Multiplicative increase applied per refresh sent.
    omega:
        Multiplicative decrease applied per accepted feedback message.
    periods, home:
        Expected time between feedback messages (``P_feedback``) of each
        *home* (a source's primary cache), and each row's home index
        (``None``: every row uses ``periods[0]``).  A ``None`` period
        disables the flood-acceleration factor ``gamma`` (it stays 1).
        The paper notes the estimate "need only be a rough estimate".
    floor, ceil:
        Numerical clamps keeping the threshold in a sane range.
    feedback_ttl:
        Staleness bound on the last feedback message.  When set, silence
        longer than the TTL stops counting as flood evidence (``gamma``
        freezes at 1) and instead decays the threshold by ``1/omega``
        once per elapsed TTL, so a source cut off from feedback -- a
        blackout, a crashed cache -- drifts back toward the uniform
        allocation instead of backing off forever.  ``None`` (default)
        keeps the paper's pure behaviour.

    The columns are Python lists, not arrays: every access is a
    per-event scalar read or write, which is faster on a list, and
    consumers sum them left to right as Python floats.
    """

    __slots__ = ("alpha", "omega", "floor", "ceil", "feedback_ttl",
                 "periods", "home", "value", "last_feedback",
                 "decay_deadline", "refreshes", "feedbacks",
                 "feedbacks_ignored", "ttl_decays")

    def __init__(self, rows: int, initial: float = 1.0,
                 alpha: float = DEFAULT_ALPHA,
                 omega: float = DEFAULT_OMEGA,
                 periods: list[float | None] | None = None,
                 home: list[int] | None = None,
                 floor: float = 1e-12, ceil: float = 1e15,
                 start_time: float = 0.0,
                 feedback_ttl: float | None = None) -> None:
        periods = [None] if periods is None else periods
        for period in periods:
            check_threshold_params(initial, alpha, omega, period,
                                   feedback_ttl)
        self.alpha = float(alpha)
        self.omega = float(omega)
        self.floor = floor
        self.ceil = ceil
        self.feedback_ttl = feedback_ttl
        self.periods = periods
        self.home = [0] * rows if home is None else home
        self.value = [float(initial)] * rows
        self.last_feedback = [start_time] * rows
        self.decay_deadline = [start_time + feedback_ttl
                               if feedback_ttl is not None else _INF] * rows
        self.refreshes = [0] * rows
        self.feedbacks = [0] * rows
        self.feedbacks_ignored = [0] * rows
        self.ttl_decays = [0] * rows

    def gamma(self, j: int, now: float) -> float:
        """Flood-acceleration factor ``max(1, t_feedback / P_feedback)``."""
        period = self.periods[self.home[j]]
        if period is None:
            return 1.0
        elapsed = now - self.last_feedback[j]
        if elapsed <= period:
            return 1.0
        ttl = self.feedback_ttl
        if ttl is not None and elapsed > ttl:
            # Feedback is *stale*, not merely overdue: silence this long
            # means the channel is down, which is no evidence of flooding.
            return 1.0
        return elapsed / period

    def maybe_decay(self, j: int, now: float) -> None:
        """Apply any TTL decays of row ``j`` that have come due (lazy,
        idempotent).

        Called from the source's drain path; the loop catches up one
        ``1/omega`` step per full TTL elapsed since the deadline, so the
        result depends only on ``now`` -- not on how often the source
        happened to be polled during the blackout.
        """
        deadline = self.decay_deadline[j]
        if now < deadline:
            return
        ttl = self.feedback_ttl
        value = self.value[j]
        decays = 0
        while now >= deadline:
            value = max(self.floor, value / self.omega)
            decays += 1
            deadline += ttl
        self.value[j] = value
        self.ttl_decays[j] += decays
        self.decay_deadline[j] = deadline

    def next_decay_time(self, j: int) -> float | None:
        """When row ``j``'s next TTL decay is due (``None`` if TTL
        disabled)."""
        if self.feedback_ttl is None:
            return None
        return self.decay_deadline[j]

    def on_refresh(self, j: int, now: float) -> None:
        """A refresh was sent: raise the threshold by ``alpha * gamma``."""
        self.refreshes[j] += 1
        self.value[j] = min(self.ceil,
                            self.value[j] * self.alpha * self.gamma(j, now))

    def on_feedback(self, j: int, now: float,
                    at_capacity: bool = False) -> None:
        """Positive feedback arrived: lower the threshold by ``omega``.

        ``at_capacity`` implements footnote 3: sources already sending at
        full source-side capacity leave their threshold unmodified.
        """
        self.last_feedback[j] = now
        if self.feedback_ttl is not None:
            self.decay_deadline[j] = now + self.feedback_ttl
        if at_capacity:
            self.feedbacks_ignored[j] += 1
            return
        self.feedbacks[j] += 1
        self.value[j] = max(self.floor, self.value[j] / self.omega)


def _row_field(name: str, doc: str) -> property:
    """A read/write property forwarding to the plane column ``name``."""
    def get(self):
        return getattr(self.plane, name)[self.row]

    def set(self, value) -> None:
        getattr(self.plane, name)[self.row] = value
    return property(get, set, doc=doc)


class ThresholdController:
    """One source's local refresh threshold ``T_j``: a row view.

    Constructed directly (the parameters are those of
    :class:`ThresholdPlane`, with a single ``feedback_period``), it is row
    0 of a fresh one-row plane; :meth:`view` wraps a row of an existing
    plane.  Either way every read and write goes to the plane's columns,
    so the arithmetic runs in exactly one place.
    """

    __slots__ = ("plane", "row")

    def __init__(self, initial: float = 1.0, alpha: float = DEFAULT_ALPHA,
                 omega: float = DEFAULT_OMEGA,
                 feedback_period: float | None = None,
                 floor: float = 1e-12, ceil: float = 1e15,
                 start_time: float = 0.0,
                 feedback_ttl: float | None = None) -> None:
        self.plane = ThresholdPlane(
            1, initial=initial, alpha=alpha, omega=omega,
            periods=[feedback_period], floor=floor, ceil=ceil,
            start_time=start_time, feedback_ttl=feedback_ttl)
        self.row = 0

    @classmethod
    def view(cls, plane: ThresholdPlane, row: int) -> ThresholdController:
        """The controller of row ``row`` of ``plane``."""
        controller = cls.__new__(cls)
        controller.plane = plane
        controller.row = row
        return controller

    value = _row_field("value", "Current threshold.")
    refreshes = _row_field("refreshes", "Refreshes that raised it.")
    feedbacks = _row_field("feedbacks", "Feedback messages that lowered it.")
    feedbacks_ignored = _row_field(
        "feedbacks_ignored", "Feedback ignored at capacity (footnote 3).")
    ttl_decays = _row_field("ttl_decays", "TTL decays applied.")

    def gamma(self, now: float) -> float:
        """Flood-acceleration factor ``max(1, t_feedback / P_feedback)``."""
        return self.plane.gamma(self.row, now)

    def maybe_decay(self, now: float) -> None:
        """Apply any TTL decays that have come due (lazy, idempotent)."""
        self.plane.maybe_decay(self.row, now)

    def next_decay_time(self) -> float | None:
        """When the next TTL decay is due (``None`` if TTL disabled)."""
        return self.plane.next_decay_time(self.row)

    def on_refresh(self, now: float) -> None:
        """A refresh was sent: raise the threshold by ``alpha * gamma``."""
        self.plane.on_refresh(self.row, now)

    def on_feedback(self, now: float, at_capacity: bool = False) -> None:
        """Positive feedback arrived: lower the threshold by ``omega``
        (unless ``at_capacity``, footnote 3)."""
        self.plane.on_feedback(self.row, now, at_capacity=at_capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ThresholdController T={self.value:.4g} "
                f"alpha={self.plane.alpha} omega={self.plane.omega}>")
