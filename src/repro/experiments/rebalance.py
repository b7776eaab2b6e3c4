"""Shard-rebalancing experiment (E13): follow the heat or eat the queue.

Static sharding is the paper's implicit multi-cache deployment model:
each source reports to one fixed cache forever.  A moving hotspot
(:func:`repro.workloads.hotspot.moving_hotspot`) breaks that model on
purpose -- each phase a different contiguous source block updates
``hot_boost`` times faster, so under a static block assignment each
phase saturates a *different* cache link while the others idle with
banked credit.  The :class:`~repro.rebalance.controller.Rebalancer`
reads windowed link telemetry (FIFO peaks, banked surplus, per-source
applied refreshes) at feedback-window boundaries and migrates the
hottest shard of the most backlogged cache toward surplus bandwidth
over cache-to-cache peer links.

Four arms per cache count:

* ``static`` -- today's fixed block sharding, no rebalancer object at
  all (the pre-PR code path);
* ``inert`` -- rebalancer armed with ``max_moves = 0``: peer links,
  window telemetry and the decision ticker all run but no shard ever
  moves.  Must match ``static`` **bit for bit** (the off-pin, same
  discipline as the fault injector's empty plan);
* ``adaptive`` -- the global rule: worst windowed backlog donates its
  hottest source to the most surplus-rich uncongested cache;
* ``distributed`` -- the Avrachenkov-style local baseline: each cache
  compares itself with its ring neighbour only (O(1) state, no global
  ranking).

Verdicts: (1) ``inert == static`` bitwise at every cache count;
(2) adaptive migrates at every count >= 2; (3) adaptive beats static on
weighted divergence at every count >= 2.  The distributed arm is
reported, not gated -- it is the cheap-coordination yardstick the
adaptive rule must justify its global view against.
"""

from __future__ import annotations

from repro.experiments.harness import (
    Axis,
    Cell,
    Experiment,
    Param,
    Point,
    Verdict,
    cell_spec,
    cell_workload,
    run_arm,
    timing,
)
from repro.network.topology import TopologyConfig
from repro.rebalance import RebalanceConfig
from repro.workloads.hotspot import moving_hotspot

ARMS = ("static", "inert", "adaptive", "distributed")
CACHE_COUNTS = (1, 2, 4, 8)


def _rebalance_config(cell: Cell, arm: str) -> RebalanceConfig | None:
    if arm == "static":
        return None
    mode = "distributed" if arm == "distributed" else "adaptive"
    return RebalanceConfig(
        interval=cell["interval"], mode=mode,
        saturation_queue=cell["saturation_queue"],
        max_moves=0 if arm == "inert" else cell["max_moves"],
        peer_rate=cell["peer_rate"])


def _rebalance_cell(cell: Cell) -> dict:
    """Worker-side cell: the four arms on one seeded hotspot workload."""
    workload = cell_workload(
        cell, builder=moving_hotspot, num_phases=cell["phases"],
        hot_boost=cell["hot_boost"], rate_range=tuple(cell["rate_range"]))
    num_caches = cell["num_caches"]
    spec = cell_spec(cell, topology=(
        None if num_caches == 1
        else TopologyConfig(kind="sharded", num_caches=num_caches)))
    arms = {}
    for arm in ARMS:
        policy, result = run_arm(cell, workload, "cooperative", spec,
                                 rebalance=_rebalance_config(cell, arm))
        rebalancer = policy.rebalancer
        arms[arm] = {
            "divergence": result.weighted_divergence,
            "refreshes": result.refreshes,
            "messages": policy.messages_total(),
            "migrations": (rebalancer.migrations
                           if rebalancer is not None else 0)}
    return arms


# ----------------------------------------------------------------------
# Structural verdicts
# ----------------------------------------------------------------------
def _multi(points: list[Point]) -> list[Point]:
    return [p for p in points if p.axes["num_caches"] >= 2]


def inert_matches_static(points: list[Point]) -> bool:
    """True when the armed-but-idle rebalancer changed *nothing*: same
    weighted divergence and the same applied-refresh count, bit for bit,
    at every cache count (the E13 off-pin)."""
    return bool(points) and all(
        p.arms["inert"][metric] == p.arms["static"][metric]
        for p in points for metric in ("divergence", "refreshes"))


def adaptive_migrates(points: list[Point]) -> bool:
    """True when the adaptive arm actually moved shards at every cache
    count >= 2 (a zero-migration win would be vacuous)."""
    multi = _multi(points)
    return bool(multi) and all(
        p.arms["adaptive"]["migrations"] > 0 for p in multi)


def adaptive_beats_static(points: list[Point]) -> bool:
    """True when adaptive rebalancing strictly lowers weighted divergence
    vs the static block assignment at every cache count >= 2."""
    multi = _multi(points)
    return bool(multi) and all(
        p.arms["adaptive"]["divergence"] < p.arms["static"]["divergence"]
        for p in multi)


REBALANCE = Experiment(
    name="rebalance",
    title="E13 shard rebalancing: static vs adaptive vs distributed under "
          "a moving hotspot (weighted divergence)",
    summary="E13 shard-rebalancing sweep: static vs adaptive vs "
            "distributed allocation under a moving hotspot",
    axes=(
        Axis("num_caches", "--num-caches", CACHE_COUNTS,
             "cache counts to sweep (1 runs the star control arm)",
             bounds=lambda params: (1, None)),
    ),
    params=(
        Param("sources", 16),
        Param("objects", 8, "objects per source"),
        Param("cache_bandwidth", 24.0,
              "aggregate cache-side msgs/s, split across cache links"),
        Param("source_bandwidth", 4.0,
              "per-source msgs/s (also the hot sources' send ceiling)"),
        Param("phases", 4,
              "hotspot phases over the horizon (the hot block advances "
              "by its own width each phase)"),
        Param("hot_boost", 25.0, "update-rate multiplier on the hot block"),
        Param("rate_range", (0.02, 0.12),
              "uniform base update-rate range; keep it low enough that "
              "cold caches bank surplus", nargs=2),
        Param("interval", 10.0,
              "seconds between rebalance decision windows"),
        Param("max_moves", 2, "migrations per decision window"),
        Param("saturation_queue", 2,
              "windowed FIFO peak that flags a donor"),
        Param("peer_rate", 4.0, "cache-to-cache peer link msgs/s"),
        *timing(),
    ),
    cell=_rebalance_cell,
    columns=("caches", *ARMS, "moves(adapt)", "moves(dist)"),
    row=lambda p: [p.axes["num_caches"],
                   *(p.arms[arm]["divergence"] for arm in ARMS),
                   p.arms["adaptive"]["migrations"],
                   p.arms["distributed"]["migrations"]],
    verdicts=(
        Verdict("inert rebalancer == static sharding (bitwise)",
                bool, inert_matches_static, bad="WARNING: diverged"),
        Verdict("adaptive migrates at every cache count >= 2",
                lambda points: bool(_multi(points)), adaptive_migrates,
                bad="WARNING: no migrations"),
        Verdict("adaptive beats static at every cache count >= 2",
                lambda points: bool(_multi(points)),
                adaptive_beats_static),
    ),
)
