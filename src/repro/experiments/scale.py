"""Scale sweep (E9): event-driven wakeups vs. the per-tick scan loops.

The paper's simulator ticks once per second and its seed reproduction
scanned every source and every link each tick, so wall-clock cost was
O(ticks x m) even when nothing changed.  Cooperative-caching studies at
realistic scale (thousands of nodes/objects; see PAPERS.md) live exactly
in the regime that design cannot reach: many sources, each updating
rarely (``lambda << 1/dt``).

This experiment runs the cooperative policy on such a sparse workload --
m sources, one object each, identical low Poisson update rates -- under
both schedulers:

* ``tick`` -- the seed's full scan of every source/link/cache every dt;
* ``event`` -- per-entity wakeups (the default): work is proportional to
  updates, refreshes, feedback and sampling deadlines, not to m x ticks.

Both schedules are *bit-for-bit identical* in their measured divergence
(pinned here and in tests/test_equivalence.py); only the wall clock
differs.  The headline number is the speedup at m = 10^3; the m = 10^4
point demonstrates that the event-driven scheduler reaches a scale where
the tick scan is impractical, so its baseline is skipped by default
(``max_tick_sources``).

At the default cache bandwidth the large points are not in the regime
the protocol is designed for: the cache link serves each source far less
often than once per run, so most sent refreshes are still queued at the
end.  :func:`render_scale` says so with a ``WARNING: E9 regime`` line
whenever more than half of the sent refreshes were never applied.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.metrics.report import format_table
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import Workload, uniform_random_walk


@dataclass
class ScalePoint:
    """One (num_sources, scheduler, replay mode) measurement."""

    num_sources: int
    scheduling: str
    wall_seconds: float
    weighted_divergence: float
    refreshes: int
    feedback_messages: int
    gen_seconds: float = 0.0  #: wall clock of workload generation
    replay: str = "batched"  #: trace replay mode used
    bandwidth: str = "steady"  #: link-profile kind ("steady" or a trace
    #: label like "diurnal-1000"; see experiments.netcond)
    refreshes_sent: int = 0  #: refreshes the sources sent; those not in
    #: ``refreshes`` were still queued or discarded stale at the end


def sparse_workload(num_sources: int, horizon: float,
                    rng: np.random.Generator,
                    update_rate: float = 0.002) -> Workload:
    """One object per source, all updating at the same sparse Poisson rate.

    ``update_rate`` defaults to 0.002/s: with dt = 1 s the expected number
    of updates per source per tick is 1/500, i.e. almost every tick is
    idle for almost every source -- the regime the wakeup layer targets.
    """
    return uniform_random_walk(
        num_sources=num_sources, objects_per_source=1, horizon=horizon,
        rng=rng, rate_range=(update_rate, update_rate))


@dataclass(frozen=True)
class ScaleCell:
    """One picklable (m, scheduler, replay) cell of the E9 sweep."""

    num_sources: int
    scheduling: str
    replay: str
    update_rate: float
    cache_bandwidth: float
    source_bandwidth: float
    warmup: float
    measure: float
    seed: int


def _run_scale_cell(cell: ScaleCell) -> ScalePoint:
    """Worker-side E9 cell: regenerate the workload, run, measure.

    The workload comes from a :class:`WorkloadSpec` (seed + parameters),
    so any process produces the bit-identical trace; consecutive cells in
    one worker sharing a spec reuse the build (gen time then shows up on
    the first cell only).
    """
    wspec = WorkloadSpec.make(
        sparse_workload, cell.seed, num_sources=cell.num_sources,
        horizon=cell.warmup + cell.measure,
        update_rate=cell.update_rate)
    gen_start = time.perf_counter()
    workload = build_workload(wspec)
    gen_seconds = time.perf_counter() - gen_start
    spec = RunSpec(warmup=cell.warmup, measure=cell.measure,
                   seed=cell.seed, replay=cell.replay)
    policy = CooperativePolicy(
        ConstantBandwidth(cell.cache_bandwidth),
        [ConstantBandwidth(cell.source_bandwidth)
         for _ in range(cell.num_sources)],
        priority_fn=AreaPriority(),
        scheduling=cell.scheduling)
    start = time.perf_counter()
    result = run_policy(workload, ValueDeviation(), policy, spec)
    wall = time.perf_counter() - start
    # The policy's node graph is cyclic (closures back-ref the policy)
    # and big at m ~ 10^5; drop it and collect *outside* the timed window
    # so neither its memory pressure nor its collection lands in the next
    # cell's wall clock.
    del policy
    gc.collect()
    return ScalePoint(
        num_sources=cell.num_sources,
        scheduling=cell.scheduling,
        wall_seconds=wall,
        weighted_divergence=result.weighted_divergence,
        refreshes=result.refreshes,
        feedback_messages=result.feedback_messages,
        gen_seconds=gen_seconds,
        replay=cell.replay,
        refreshes_sent=result.extras["refreshes_sent"])


def run_scale(sources: tuple[int, ...] = (100, 1000, 10000),
              update_rate: float = 0.002,
              cache_bandwidth: float = 8.0,
              source_bandwidth: float = 1.0,
              warmup: float = 100.0,
              measure: float = 500.0,
              seed: int = 0,
              max_tick_sources: int = 2000,
              replays: tuple[str, ...] = ("batched",),
              workers: int = 1) -> list[ScalePoint]:
    """Sweep source counts, timing both schedulers on identical workloads.

    Above ``max_tick_sources`` only the event scheduler runs (the tick
    scan at m = 10^4 costs minutes of CI time for a result already pinned
    identical at smaller m).  ``replays`` adds the trace-replay axis:
    ``("event", "batched")`` times the per-event replay loop against the
    batched fast path on the same workload (results must agree bit for
    bit; :func:`check_equivalence` covers the whole cross product).
    Workload generation is timed separately (``gen_seconds``: each
    cell's own build, about 0 when it reuses the previous cell's
    workload); the benchmark suite tracks it next to the run's wall
    clock across PRs in ``BENCH_scale.json``.

    Every cell goes through one
    :class:`~repro.experiments.parallel.ParallelRunner` map: ``workers``
    = 1 runs them in-process, ``workers`` > 1 fans them over a process
    pool; results come back in cell order and are bit-for-bit identical
    either way.
    """
    cells = [
        ScaleCell(num_sources=m, scheduling=scheduling, replay=replay,
                  update_rate=update_rate,
                  cache_bandwidth=cache_bandwidth,
                  source_bandwidth=source_bandwidth,
                  warmup=warmup, measure=measure, seed=seed)
        for m in sources
        for scheduling in (("tick", "event") if m <= max_tick_sources
                           else ("event",))
        for replay in replays
    ]
    return ParallelRunner(workers).map(_run_scale_cell, cells)


def speedups(points: list[ScalePoint]) -> dict[int, float]:
    """tick wall-clock divided by event wall-clock, per source count.

    Compared within one replay mode (batched when present), so the
    scheduler ratio is never polluted by the replay axis.
    """
    modes = {p.replay for p in points}
    mode = "batched" if "batched" in modes else next(iter(modes), None)
    walls: dict[tuple[int, str], float] = {
        (p.num_sources, p.scheduling): p.wall_seconds
        for p in points if p.replay == mode
    }
    out: dict[int, float] = {}
    for (m, scheduling), wall in walls.items():
        if scheduling != "tick":
            continue
        event = walls.get((m, "event"))
        if event and event > 0:
            out[m] = wall / event
    return out


def replay_speedups(points: list[ScalePoint]) -> dict[int, float]:
    """event-replay wall divided by batched-replay wall, per source count
    (within the event scheduler, the mode both replays run under)."""
    walls: dict[tuple[int, str], float] = {
        (p.num_sources, p.replay): p.wall_seconds
        for p in points if p.scheduling == "event"
    }
    out: dict[int, float] = {}
    for (m, replay), wall in walls.items():
        if replay != "event":
            continue
        batched = walls.get((m, "batched"))
        if batched and batched > 0:
            out[m] = wall / batched
    return out


def check_equivalence(points: list[ScalePoint]) -> bool:
    """True when every (scheduler, replay) run agrees bit-for-bit at
    every source count."""
    by_m: dict[int, list[ScalePoint]] = {}
    for p in points:
        by_m.setdefault(p.num_sources, []).append(p)
    for group in by_m.values():
        first = group[0]
        for p in group[1:]:
            if (p.weighted_divergence != first.weighted_divergence
                    or p.refreshes != first.refreshes
                    or p.feedback_messages != first.feedback_messages):
                return False
    return True


def render_scale(points: list[ScalePoint], title: str) -> str:
    """The sweep as a table, one row per (m, scheduler, replay)."""
    ratio = speedups(points)
    modes = {p.replay for p in points}
    ratio_mode = "batched" if "batched" in modes else next(iter(modes),
                                                           None)
    rows = []
    for p in points:
        # The scheduler speedup is computed within one replay mode; only
        # that mode's event rows can own the number.
        speedup = ratio.get(p.num_sources, float("nan")) \
            if p.scheduling == "event" and p.replay == ratio_mode \
            else float("nan")
        rows.append([p.num_sources, p.scheduling, p.replay,
                     round(p.gen_seconds, 4),
                     round(p.wall_seconds, 4), p.weighted_divergence,
                     p.refreshes, p.feedback_messages,
                     "-" if speedup != speedup else round(speedup, 2)])
    table = format_table(
        ["sources", "scheduler", "replay", "gen s", "wall s",
         "divergence", "refreshes", "feedback", "speedup"],
        rows, title=title)
    lines = [table, "schedulers agree bit-for-bit"
             if check_equivalence(points)
             else "WARNING: scheduler results diverge"]
    # The protocol's designed regime drains the cache link; when most
    # sent refreshes are still queued (or discarded stale) at the end,
    # the sweep measures a backlog, not synchronization.
    first: dict[int, ScalePoint] = {}
    for p in points:
        first.setdefault(p.num_sources, p)
    for m, p in first.items():
        unapplied = p.refreshes_sent - p.refreshes
        if 2 * unapplied > p.refreshes_sent:
            lines.append(
                f"WARNING: E9 regime: {unapplied} of {p.refreshes_sent} "
                f"refreshes ({100.0 * unapplied / p.refreshes_sent:.1f}%) "
                f"sent but never applied (m = {m})")
    return "\n".join(lines)
