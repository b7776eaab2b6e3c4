"""E9: the event-driven wakeup layer and vectorized pipeline at scale.

Reproduces the scale sweep of ``repro.experiments.scale`` at the three
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
* m = 10^6 sparse sources: a 4-shard topology run shard-parallel
  (tier 2 of ``repro.experiments.parallel``) must fit the same 60 s
  budget on a multi-core runner, with generation folded into the
  workers' wall clock.  The test also measures both parallel tiers
  against their serial counterparts and archives worker counts and
  per-tier speedups alongside the m = 10^5 numbers (``null`` speedups
  when only one worker was available, since both tiers then run
  serially).

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

#: Wall-clock budget for the m = 10^6 shard-parallel run (gen + run;
#: generation happens inside the workers, so it is part of the wall).
MILLION_BUDGET_SECONDS = 60.0

#: Shards (= workers, capped by the machine) for the m = 10^6 point.
MILLION_SHARDS = 4


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
    return dataclasses.replace(point, wall_seconds=0.0, gen_seconds=0.0,
                               workers=1)


def _run_million():
    """The m = 10^6 point: 4-shard topology, serial then shard-parallel,
    plus a small tier-1 sweep timed serial vs pooled."""
    workers = max(1, min(MILLION_SHARDS, os.cpu_count() or 1))
    million = dict(sources=(1_000_000,), warmup=100.0, measure=500.0,
                   shard_caches=MILLION_SHARDS)
    start = time.perf_counter()
    serial = run_scale(workers=1, **million)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_scale(workers=workers, **million)
    parallel_wall = time.perf_counter() - start

    sweep = dict(sources=(20_000, 40_000), warmup=100.0, measure=500.0,
                 max_tick_sources=2000)
    start = time.perf_counter()
    sweep_serial = run_scale(workers=1, **sweep)
    tier1_serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    sweep_parallel = run_scale(workers=workers, **sweep)
    tier1_parallel_wall = time.perf_counter() - start
    return {
        "workers": workers,
        "serial": serial, "serial_wall": serial_wall,
        "parallel": parallel, "parallel_wall": parallel_wall,
        "sweep_serial": sweep_serial,
        "sweep_parallel": sweep_parallel,
        "tier1_speedup": tier1_serial_wall / tier1_parallel_wall,
        "tier2_speedup": serial_wall / parallel_wall,
    }


def test_scale_1000000_sources_shard_parallel(benchmark):
    """m = 10^6 via 4 shard-parallel caches: under the 60 s budget on a
    multi-core runner, bit-identical to the serially-executed shards.

    Merges its numbers (worker count, per-tier speedups, the million
    points) into ``BENCH_scale.current.json`` next to the m = 10^5
    payload; the budget assert is expected to hold on CI's multi-core
    runners, not necessarily on a single-core laptop (this bench runs
    in the non-failing perf-smoke job).
    """
    r = run_once(benchmark, _run_million)

    # Shard-parallel execution must not change a single bit.
    assert ([_strip_timing(p) for p in r["parallel"]]
            == [_strip_timing(p) for p in r["serial"]])
    assert ([_strip_timing(p) for p in r["sweep_parallel"]]
            == [_strip_timing(p) for p in r["sweep_serial"]])

    million = {
        "budget_seconds": MILLION_BUDGET_SECONDS,
        "shard_caches": MILLION_SHARDS,
        "workers": r["workers"],
        "points": [asdict(p) for p in r["parallel"]],
        "serial_wall_seconds": r["serial_wall"],
        "parallel_wall_seconds": r["parallel_wall"],
        "tier1_sweep_speedup": r["tier1_speedup"],
        "tier2_shard_speedup": r["tier2_speedup"],
    }
    if r["workers"] == 1:
        million.update(
            tier1_sweep_speedup=None, tier2_shard_speedup=None,
            speedup_note="not measured: with one worker both tiers "
                         "run serially, so the ratio is noise")
    write_bench_section("million", million)

    (point,) = r["parallel"]
    assert point.topology == f"sharded-{MILLION_SHARDS}"
    assert point.refreshes > 0
    total = point.gen_seconds + point.wall_seconds
    assert total <= MILLION_BUDGET_SECONDS, (
        f"m = 10^6 shard-parallel run took {total:.1f}s "
        f"(budget {MILLION_BUDGET_SECONDS}s, {r['workers']} workers)")
