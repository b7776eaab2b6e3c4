"""E13: shard rebalancing under a moving hotspot.

Two benches pin the rebalance layer of ``repro.rebalance``:

* a reduced cache-count sweep whose three structural verdicts (inert
  rebalancer == static sharding bitwise, adaptive migrates at every
  multi-cache count, adaptive beats static on weighted divergence) are
  hard asserts everywhere -- they are exactness/ordering claims, not
  timings;
* a machinery-overhead pair: one static run with no rebalancer object,
  one with the *inert* configuration (``max_moves = 0``), so the peer
  links, per-cache window telemetry and the decision ticker all run yet
  no shard ever moves.  The results must match bit for bit and the
  armed wall must stay within ``MACHINERY_OVERHEAD_LIMIT`` x the bare
  one -- the acceptance number for keeping the rebalance hooks out of
  the rebalancer-off hot path.

The overhead test merges its walls into ``BENCH_scale.current.json``
(untracked; see ``bench_scale.py``) under a ``rebalance`` section so
the perf regression job archives them alongside the E9/E11/E12 points.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job, while the verdict asserts are hard
everywhere.
"""

import json
import time

import numpy as np
from conftest import run_once

from repro.core.divergence import ValueDeviation
from repro.experiments.harness import make_policy, render, run
from repro.experiments.rebalance import REBALANCE
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.rebalance import RebalanceConfig
from repro.workloads.hotspot import moving_hotspot

#: Max armed-but-inert / bare wall-clock ratio.
MACHINERY_OVERHEAD_LIMIT = 1.2


def test_rebalance_sweep_verdicts(benchmark):
    """Reduced E13 sweep: all three structural verdicts must hold."""
    points = run_once(benchmark, run, REBALANCE, num_caches=(1, 2, 4),
                      warmup=50.0, measure=200.0)
    print()
    print(render(REBALANCE, points, "E13 (reduced): rebalance sweep"))
    assert len(points) == 3
    for verdict in REBALANCE.verdicts:
        assert verdict.judge(points) == "yes", verdict.label


def _cooperative_wall(workload, spec, rebalance):
    policy = make_policy(
        "cooperative", ConstantBandwidth(24.0),
        [ConstantBandwidth(4.0) for _ in range(workload.num_sources)],
        workload.num_objects, rebalance=rebalance)
    start = time.perf_counter()
    result = run_policy(workload, ValueDeviation(), policy, spec)
    return time.perf_counter() - start, result.weighted_divergence


def test_rebalance_machinery_overhead(benchmark):
    """The inert config: bitwise identical, <= 1.2x the bare wall.

    ``max_moves = 0`` is the worst case for machinery-off overhead: the
    full-mesh peer links refill every network tick, every applied
    refresh books window telemetry, and the decision ticker fires every
    window -- yet nothing may move a single float in the result.
    """

    def both():
        workload = moving_hotspot(16, 8, horizon=300.0,
                                  rng=np.random.default_rng(0),
                                  num_phases=4, hot_boost=25.0,
                                  rate_range=(0.02, 0.12))
        spec = RunSpec(warmup=50.0, measure=250.0, seed=0,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=4))
        inert = RebalanceConfig(interval=10.0, max_moves=0,
                                saturation_queue=2)
        # Interleave and take minima so clock drift hits both arms.
        walls_off, walls_on, divs = [], [], []
        for _ in range(2):
            wall, div = _cooperative_wall(workload, spec, None)
            walls_off.append(wall)
            divs.append(div)
            wall, div = _cooperative_wall(workload, spec, inert)
            walls_on.append(wall)
            divs.append(div)
        return min(walls_off), min(walls_on), divs

    wall_off, wall_on, divs = run_once(benchmark, both)
    assert len(set(divs)) == 1, \
        "the inert rebalancer changed the cooperative result"

    ratio = wall_on / wall_off
    try:
        with open("BENCH_scale.current.json") as f:
            payload = json.load(f)
    except FileNotFoundError:
        payload = {"experiment": "E9-extreme"}
    payload["rebalance"] = {
        "machinery_overhead_limit": MACHINERY_OVERHEAD_LIMIT,
        "machinery_overhead": ratio,
        "wall_off_seconds": wall_off,
        "wall_on_seconds": wall_on,
    }
    with open("BENCH_scale.current.json", "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    assert ratio <= MACHINERY_OVERHEAD_LIMIT, (
        f"inert-rebalancer run {ratio:.2f}x the bare wall "
        f"(limit {MACHINERY_OVERHEAD_LIMIT}x)")
