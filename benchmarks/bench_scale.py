"""E9: the event-driven wakeup layer and vectorized pipeline at scale.

Reproduces the scale sweep of ``repro.experiments.scale`` at the four
points the acceptance criteria pin:

* m = 10^3 sparse sources: the event scheduler must be >= 5x faster than
  the tick scan while producing bit-for-bit identical metrics;
* m = 10^4 sparse sources: the event scheduler completes in CI time (the
  tick baseline at this size is skipped -- it is O(ticks x m) and its
  equivalence is already pinned at m = 10^3);
* m = 10^5 sparse sources: generation + an event-mode cooperative run
  must complete within a CI-feasible budget (generation is timed as the
  points' ``gen_seconds``, which the perf-regression job gates together
  with the run's wall clock);
* m = 10^6 sparse sources: the paper's star, run serially, must fit
  the same 60 s generation + run budget.  The test also times a small
  sweep serial vs pooled (``ParallelRunner`` of
  ``repro.experiments.parallel``) and archives the machine's cpu count,
  the worker count and the sweep speedup alongside the m = 10^5 numbers
  (a ``null`` speedup when only one worker was available, since the
  sweep then runs serially both times).

The m = 10^5 point also archives its numbers to
``BENCH_scale.current.json`` in the working directory (untracked, so
local bench runs never dirty the tree; see ``conftest.BENCH_FILE``); CI
uploads the file as an artifact, the perf-regression job compares it
against a baseline measured on the same runner, and the *committed*
``BENCH_scale.json`` snapshot is refreshed deliberately by copying a
representative run over it.

Timing-ratio asserts are inherently machine-sensitive; CI runs this bench
in a non-failing perf-smoke job, while the equivalence asserts are hard
everywhere.
"""

import dataclasses
import os
import time
from dataclasses import asdict

from conftest import run_once, write_bench_payload, write_bench_section

from repro.experiments.scale import (
    check_equivalence,
    replay_speedups,
    run_scale,
    speedups,
)

#: Wall-clock budget for the m = 10^5 generation + event-mode run.
EXTREME_BUDGET_SECONDS = 60.0

#: Wall-clock budget for the m = 10^6 generation + serial star run.
MILLION_BUDGET_SECONDS = 60.0

#: Source counts of the sweep timed serial vs pooled; one cell each, so
#: more workers than cells would sit idle.
SWEEP_SOURCES = (20_000, 40_000)


def test_scale_1000_sources_speedup(benchmark):
    """Tick vs event at m = 10^3: identical results, >= 5x wall clock."""
    points = run_once(benchmark, run_scale, sources=(1000,),
                      warmup=100.0, measure=500.0)
    assert check_equivalence(points), \
        "event-driven scheduler diverged from the tick scan"
    ratio = speedups(points)[1000]
    assert ratio >= 5.0, f"expected >= 5x speedup, measured {ratio:.2f}x"


def test_scale_10000_sources_event_only(benchmark):
    """The m = 10^4 point runs event-only and finishes in CI time."""
    points = run_once(benchmark, run_scale, sources=(10000,),
                      warmup=100.0, measure=500.0,
                      max_tick_sources=2000)
    (point,) = points
    assert point.scheduling == "event"
    assert point.refreshes > 0


def test_scale_100000_sources_extreme(benchmark):
    """m = 10^5: generation + run CI-feasible end to end, batched replay
    bit-identical to the per-event loop.

    Starts a fresh ``BENCH_scale.current.json`` (untracked) so the
    perf-smoke job can archive the numbers as an artifact and the
    regression job can compare them against a same-runner baseline; the
    committed ``BENCH_scale.json`` snapshot is only ever updated
    deliberately.
    """
    points = run_once(benchmark, run_scale, sources=(100_000,),
                      warmup=100.0, measure=500.0, max_tick_sources=2000,
                      replays=("event", "batched"))
    assert check_equivalence(points), \
        "batched replay diverged from per-event replay"
    by_replay = {p.replay: p for p in points}
    batched = by_replay["batched"]
    write_bench_payload({
        "experiment": "E9-extreme",
        "budget_seconds": EXTREME_BUDGET_SECONDS,
        "points": [asdict(p) for p in points],
        "replay_speedup": replay_speedups(points).get(100_000),
    })
    assert batched.scheduling == "event"
    assert batched.refreshes > 0
    for point in points:
        total = point.gen_seconds + point.wall_seconds
        assert total <= EXTREME_BUDGET_SECONDS, (
            f"m = 10^5 generation + {point.replay}-replay run took "
            f"{total:.1f}s (budget {EXTREME_BUDGET_SECONDS}s)")


def _strip_timing(point):
    """Drop machine-dependent fields so points compare bit-for-bit."""
    return dataclasses.replace(point, wall_seconds=0.0, gen_seconds=0.0)


def _run_million():
    """The m = 10^6 serial star point, plus a small sweep timed serial vs
    pooled."""
    workers = max(1, min(len(SWEEP_SOURCES), os.cpu_count() or 1))
    (point,) = run_scale(sources=(1_000_000,), warmup=100.0, measure=500.0,
                         replays=("batched",))

    sweep = dict(sources=SWEEP_SOURCES, warmup=100.0, measure=500.0,
                 max_tick_sources=2000)
    start = time.perf_counter()
    sweep_serial = run_scale(workers=1, **sweep)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    sweep_parallel = run_scale(workers=workers, **sweep)
    parallel_wall = time.perf_counter() - start
    return {
        "workers": workers,
        "point": point,
        "sweep_serial": sweep_serial,
        "sweep_parallel": sweep_parallel,
        "sweep_speedup": serial_wall / parallel_wall,
    }


def test_scale_1000000_sources_star(benchmark):
    """m = 10^6 on the serial star: generation + run under the advisory
    60 s budget; the pooled sweep bit-identical to the serial one.

    This point is in the E9 backlog regime (ROADMAP item 1): the cache
    link serves 8 refreshes/s, so each source gets a slot about once per
    m / B = 125,000 s against a 600 s run, and nearly every refresh the
    sources send is still queued at the end.  Its wall clock times that
    backlog, not synchronization; the archived point carries
    ``refreshes_sent`` next to the applied ``refreshes`` to show it.

    Merges its numbers (cpu count, worker count, sweep speedup, the
    million point) into ``BENCH_scale.current.json`` next to the
    m = 10^5 payload.  The budget is advisory: this bench runs in the
    non-failing perf-smoke job.
    """
    r = run_once(benchmark, _run_million)

    # Pooled execution must not change a single bit.
    assert ([_strip_timing(p) for p in r["sweep_parallel"]]
            == [_strip_timing(p) for p in r["sweep_serial"]])

    point = r["point"]
    million = {
        "budget_seconds": MILLION_BUDGET_SECONDS,
        "cpu_count": os.cpu_count(),
        "workers": r["workers"],
        "points": [asdict(point)],
        "sweep_speedup": r["sweep_speedup"],
    }
    if r["workers"] == 1:
        million.update(
            sweep_speedup=None,
            speedup_note="not measured: with one worker the sweep runs "
                         "serially both times, so the ratio is noise")
    write_bench_section("million", million)

    assert point.scheduling == "event"
    assert point.refreshes > 0
    total = point.gen_seconds + point.wall_seconds
    assert total <= MILLION_BUDGET_SECONDS, (
        f"m = 10^6 star took {total:.1f}s "
        f"(budget {MILLION_BUDGET_SECONDS}s)")
