"""Network-condition experiment (E11): policies under fluctuating links.

The paper models bandwidth fluctuation only through the analytic ``mB``
sine knob; real links see diurnal load cycles, congestion bursts and
outages.  With the segment-indexed :class:`TraceBandwidth` fast path,
piecewise profiles run on the same event-driven machinery as constant
ones, so this experiment can ask the question the paper never could: how
do the five policies degrade when bandwidth itself fluctuates?

The matrix is {steady, diurnal, bursty, outage} (see
:func:`repro.workloads.bandwidth_traces.scenario_profile`) x
{star, sharded-4} x all five policies, on one seeded random-walk
workload.  Three structural verdicts are checked:

1. **steady trace == constant**: the flat trace is the control arm; the
   cooperative policy must reproduce the ``ConstantBandwidth`` run bit
   for bit (the split factors are dyadic, so even the sharded layout's
   per-link share arithmetic is exact either way).
2. **outage degrades every policy**: severing the links for 15% of the
   run can only raise divergence relative to steady.
3. **graceful degradation**: the feedback-driven cooperative policy's
   outage/steady divergence ratio stays at or below static uniform
   allocation's -- adaptivity re-concentrates the post-outage budget on
   the objects that drifted, uniform cannot.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.core.divergence import ValueDeviation
from repro.experiments.harness import (
    POLICIES,
    Axis,
    Cell,
    Experiment,
    Param,
    Point,
    Verdict,
    axis_values,
    by_cell,
    cell_spec,
    cell_workload,
    make_policy,
    run_arm,
    timing,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.workloads.bandwidth_traces import SCENARIOS, scenario_profile

#: cache layout name -> topology (None = the paper's star)
LAYOUTS = {"star": None,
           "sharded-4": TopologyConfig(kind="sharded", num_caches=4)}
TOPOLOGIES = tuple(LAYOUTS)


def _netcond_cell(cell: Cell) -> dict:
    """Worker-side cell: one seeded workload through all five policies.

    The cache link carries the scenario's condition; each source link
    carries the same kind of condition seeded per source, so bursty
    cells get heterogeneous per-source congestion walks.  Steady cells
    add the ``cooperative+constant`` control arm on plain
    ``ConstantBandwidth`` links.
    """
    workload = cell_workload(cell)
    spec = cell_spec(cell, topology=LAYOUTS[cell["topology"]])
    duration = cell["warmup"] + cell["measure"]

    def shape(rate, k):
        return scenario_profile(cell["scenario"], rate, duration,
                                seed=cell["seed"] + k)

    arms = {}
    for name in POLICIES:
        _, result = run_arm(cell, workload, name, spec, shape)
        arms[name] = {"divergence": result.weighted_divergence,
                      "refreshes": result.refreshes}
    if cell["scenario"] == "steady":
        _, result = run_arm(cell, workload, "cooperative", spec)
        arms["cooperative+constant"] = {
            "divergence": result.weighted_divergence}
    return arms


def run_netcond_scale(num_sources: int = 100_000,
                      update_rate: float = 0.002,
                      cache_bandwidth: float = 8.0,
                      source_bandwidth: float = 1.0,
                      warmup: float = 100.0,
                      measure: float = 500.0,
                      seed: int = 0,
                      num_breakpoints: int = 1000):
    """E9-style sparse run, trace-driven vs constant bandwidth.

    One m-source sparse workload, two event-mode cooperative runs: plain
    ``ConstantBandwidth`` links, then a ``num_breakpoints``-segment
    diurnal :class:`TraceBandwidth` with the same mean on the cache link
    and one *shared* diurnal trace instance across every source link
    (the trace is read-only during a run -- its only mutable state is a
    segment-index lookup cache -- so sharing keeps the m = 10^5 point at
    one cumulative array instead of 10^5).  Returns the two
    :class:`~repro.experiments.scale.ScalePoint`\\ s, labeled via their
    ``bandwidth`` field so the BENCH regression checker keys them apart;
    the trace point's wall clock is the O(log segments) acceptance
    number (must stay within 2x the constant wall).
    """
    from repro.experiments.scale import ScalePoint, sparse_workload
    from repro.workloads.bandwidth_traces import diurnal_trace

    duration = warmup + measure
    rng = np.random.default_rng(seed)
    gen_start = time.perf_counter()
    workload = sparse_workload(num_sources, duration, rng,
                               update_rate=update_rate)
    gen_seconds = time.perf_counter() - gen_start
    metric = ValueDeviation()
    spec = RunSpec(warmup=warmup, measure=measure, seed=seed)
    points = []
    for bandwidth in ("steady", f"diurnal-{num_breakpoints}"):
        if bandwidth == "steady":
            cache_bw = ConstantBandwidth(cache_bandwidth)
            source_bws = [ConstantBandwidth(source_bandwidth)
                          for _ in range(num_sources)]
        else:
            cache_bw = diurnal_trace(cache_bandwidth, duration,
                                     num_breakpoints)
            shared = diurnal_trace(source_bandwidth, duration,
                                   num_breakpoints)
            source_bws = [shared] * num_sources
        policy = make_policy("cooperative", cache_bw, source_bws,
                             workload.num_objects)
        start = time.perf_counter()
        result = run_policy(workload, metric, policy, spec)
        wall = time.perf_counter() - start
        points.append(ScalePoint(
            num_sources=num_sources, scheduling="event",
            wall_seconds=wall,
            weighted_divergence=result.weighted_divergence,
            refreshes=result.refreshes,
            feedback_messages=result.feedback_messages,
            gen_seconds=gen_seconds, bandwidth=bandwidth))
        del policy, result
        gc.collect()
    return points


# ----------------------------------------------------------------------
# Structural verdicts
# ----------------------------------------------------------------------
def steady_matches_constant(points: list[Point]) -> bool:
    """True when every steady trace reproduced its constant control arm
    bit for bit (the fast path changed nothing on flat profiles)."""
    steady = [p for p in points if p.axes["scenario"] == "steady"]
    return bool(steady) and all(
        "cooperative+constant" in p.arms
        and (p.arms["cooperative"]["divergence"]
             == p.arms["cooperative+constant"]["divergence"])
        for p in steady)


def _outage_pairs(points: list[Point]) -> list[tuple[Point, Point]]:
    """(steady, outage) points sharing a topology."""
    cells = by_cell(points, "scenario", "topology")
    return [(cells[("steady", topology)], out)
            for (scenario, topology), out in cells.items()
            if scenario == "outage" and ("steady", topology) in cells]


def outage_degrades(points: list[Point]) -> bool:
    """True when the outage scenario's divergence is at least the steady
    scenario's for every policy on every topology both were run on."""
    pairs = _outage_pairs(points)
    return bool(pairs) and all(
        out.arms[name]["divergence"]
        >= steady.arms.get(name, {}).get("divergence", 0.0)
        for steady, out in pairs for name in out.arms)


def _degradation_ratio(outage: float, steady: float) -> float:
    """Outage/steady divergence ratio, defined at a zero baseline (a
    tiny matrix can drive steady divergence to exactly 0)."""
    if steady > 0.0:
        return outage / steady
    return float("inf") if outage > 0.0 else 1.0


def graceful_degradation(points: list[Point]) -> bool:
    """True when cooperative's outage/steady divergence ratio is at most
    uniform allocation's on every topology (adaptive feedback recovers
    from the blackout at least as gracefully as the static split)."""

    def ratio(steady, out, name):
        return _degradation_ratio(out.arms[name]["divergence"],
                                  steady.arms[name]["divergence"])

    pairs = _outage_pairs(points)
    return bool(pairs) and all(
        ratio(steady, out, "cooperative") <= ratio(steady, out, "uniform")
        for steady, out in pairs)


NETCOND = Experiment(
    name="netcond",
    title="E11 network conditions: five policies under trace-driven "
          "bandwidth (weighted divergence)",
    summary="E11 network-condition matrix: five policies under "
            "steady/diurnal/bursty/outage traces",
    axes=(
        Axis("scenario", "--scenarios", SCENARIOS,
             "bandwidth scenarios to run", choices=SCENARIOS),
        Axis("topology", "--topologies", TOPOLOGIES,
             "cache layouts to run", choices=TOPOLOGIES),
    ),
    params=(
        Param("sources", 16),
        Param("objects", 8, "objects per source"),
        Param("cache_bandwidth", 20.0,
              "mean aggregate cache-side msgs/s (the scenario trace "
              "fluctuates around it)"),
        Param("source_bandwidth", 4.0, "mean per-source msgs/s"),
        *timing(),
    ),
    cell=_netcond_cell,
    columns=("scenario", "layout", *POLICIES),
    row=lambda p: [p.axes["scenario"], p.axes["topology"],
                   *(p.arms[name]["divergence"] for name in POLICIES)],
    verdicts=(
        Verdict("steady trace == constant bandwidth (cooperative, "
                "bitwise)",
                lambda points: "steady" in axis_values(points, "scenario"),
                steady_matches_constant, bad="WARNING: diverged"),
        Verdict("outage degrades every policy vs steady",
                lambda points: bool(_outage_pairs(points)),
                outage_degrades),
        Verdict("cooperative degrades no worse than uniform under outage",
                lambda points: bool(_outage_pairs(points)),
                graceful_degradation),
    ),
)
