"""Multicast delivery experiment (E14): what replica fan-out should cost.

The paper's model charges every message one unit of bandwidth on every
link it crosses.  When a source is replicated across ``r`` cache nodes
the unicast transport therefore pays ``r`` cache-side units per logical
refresh -- the replicas are kept fresh by brute repetition.  A
multicast plane (:mod:`repro.network.delivery`) charges the shared
upstream send once and fans zero-size copies to the sibling replicas,
so one unit of bandwidth freshens all ``r`` copies.

E14 measures what that buys: five policies x {unicast, multicast} x
replication {1, 2, 4} on one seeded random-walk workload over a 4-cache
replicated layout, sized so the cache links stay saturated (an idle
network hides any delivery-plane difference).  Structural verdicts:

1. **r=1 tie**: with replication 1 there are no sibling legs, so the
   multicast column must reproduce unicast bit for bit for every policy
   (the plane-machinery-off pin).
2. **multicast dominates**: for each adaptive policy (cooperative,
   uniform, competitive) at replication 2 and 4, multicast reaches
   strictly lower weighted divergence without spending more cache-side
   bandwidth units -- i.e. strictly better divergence per unit.  The
   dominance form (both coordinates, not just the ratio) guards against
   the ratio trap where freeing bandwidth lowers the denominator faster
   than the divergence drops.
3. **controls are plane-invariant**: CGM polls point-to-point and the
   ideal curve is analytic; neither touches the fan-out path, so their
   columns must be bitwise identical across planes at every
   replication.

Divergence is measured across *all* replicas (a stale sibling counts),
so multicast's advantage is honest: it must actually deliver the copies
it did not pay for.
"""

from __future__ import annotations

from repro.experiments.harness import (
    COMMON,
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
    run_arm,
)
from repro.network.delivery import DELIVERY_MODES
from repro.network.topology import TopologyConfig

#: policies whose refresh path rides the delivery plane (verdict 2)
ADAPTIVE_POLICIES = ("cooperative", "uniform", "competitive")
#: policies that never touch the fan-out path (verdict 3)
CONTROL_POLICIES = ("cgm", "ideal")
REPLICATIONS = (1, 2, 4)


def _units_of(policy) -> float:
    """Cache-side bandwidth units actually consumed (Link.total_units):
    the denominator of divergence-per-unit -- a multicast sibling copy
    is one more message but zero more units."""
    topology = getattr(policy, "topology", None)
    if topology is None:
        return 0.0  # the analytic ideal curve builds no network
    return topology.cache_units_total()


def _multicast_cell(cell: Cell) -> dict:
    """Worker-side cell: one seeded workload through all five policies."""
    workload = cell_workload(cell)
    spec = cell_spec(cell, topology=TopologyConfig(
        kind="replicated", num_caches=cell["num_caches"],
        replication=cell["replication"], delivery=cell["delivery"]))
    arms = {}
    for name in POLICIES:
        policy, result = run_arm(cell, workload, name, spec)
        arms[name] = {"divergence": result.weighted_divergence,
                      "refreshes": result.refreshes,
                      "messages": result.messages_total,
                      "units": _units_of(policy)}
    return arms


# ----------------------------------------------------------------------
# Structural verdicts
# ----------------------------------------------------------------------
def per_unit(arm: dict) -> float:
    """Weighted divergence per cache-side bandwidth unit."""
    units = arm.get("units", 0.0)
    return arm["divergence"] / units if units > 0 else float("inf")


def _plane_pairs(points: list[Point]) -> list[tuple[Point, Point]]:
    """(unicast, multicast) points sharing a replication."""
    cells = by_cell(points, "delivery", "replication")
    return [(cells[("unicast", replication)], multi)
            for (delivery, replication), multi in cells.items()
            if delivery == "multicast"
            and ("unicast", replication) in cells]


def unicast_tie_at_r1(points: list[Point]) -> bool:
    """True when the replication-1 multicast cell reproduced unicast bit
    for bit for every policy (no sibling legs -> no plane effect)."""
    return any(uni.arms == multi.arms
               for uni, multi in _plane_pairs(points)
               if multi.axes["replication"] == 1)


def multicast_dominates(points: list[Point],
                        tolerance: float = 0.02) -> bool:
    """True when every adaptive policy at replication >= 2 reaches
    strictly lower divergence under multicast without spending more
    cache-side units (``tolerance`` is the allowed relative unit
    overshoot).  Both coordinates at once: a strictly better point on
    the divergence-vs-bandwidth plane, hence strictly better
    divergence per unit."""
    pairs = [(uni.arms[name], multi.arms[name])
             for uni, multi in _plane_pairs(points)
             if multi.axes["replication"] >= 2
             for name in ADAPTIVE_POLICIES]
    return bool(pairs) and all(
        multi["divergence"] < uni["divergence"]
        and multi["units"] <= uni["units"] * (1.0 + tolerance)
        for uni, multi in pairs)


def controls_invariant(points: list[Point]) -> bool:
    """True when CGM and ideal are bitwise identical across planes at
    every replication (they never ride the fan-out path)."""
    pairs = [(uni.arms[name], multi.arms[name])
             for uni, multi in _plane_pairs(points)
             for name in CONTROL_POLICIES]
    return bool(pairs) and all(
        multi[metric] == uni[metric]
        for uni, multi in pairs for metric in ("divergence", "refreshes"))


def _extras(points: list[Point]) -> list[str]:
    return [
        "  r={} {}: coop div/unit {:.4g}, uniform div/unit {:.4g}".format(
            p.axes["replication"], p.axes["delivery"],
            per_unit(p.arms["cooperative"]), per_unit(p.arms["uniform"]))
        for p in points if p.axes["replication"] >= 2]


def _both_planes(points: list[Point]) -> bool:
    return len(axis_values(points, "delivery")) == 2


MULTICAST = Experiment(
    name="multicast",
    title="E14 multicast delivery: five policies x delivery plane x "
          "replication (weighted divergence)",
    summary="E14 multicast-delivery matrix: five policies x {unicast, "
            "multicast} x replication on a replicated layout",
    # Replication is the outer loop; the table still leads with the
    # delivery plane.
    axes=(
        Axis("replication", "--replications", REPLICATIONS,
             "replication factors to sweep",
             bounds=lambda params: (1, params["num_caches"])),
        Axis("delivery", "--deliveries", DELIVERY_MODES,
             "delivery planes to run", choices=DELIVERY_MODES),
    ),
    params=(
        Param("num_caches", 4, "cache nodes in the replicated layout"),
        Param("sources", 16),
        Param("objects", 8, "objects per source"),
        Param("cache_bandwidth", 12.0,
              "aggregate cache-side msgs/s (keep the links saturated: an "
              "idle network hides the planes' cost difference)"),
        Param("source_bandwidth", 4.0, "per-source msgs/s"),
        *COMMON,
    ),
    cell=_multicast_cell,
    columns=("delivery", "repl", *POLICIES, "coop units"),
    row=lambda p: [p.axes["delivery"], p.axes["replication"],
                   *(p.arms[name]["divergence"] for name in POLICIES),
                   p.arms["cooperative"]["units"]],
    extras=_extras,
    verdicts=(
        Verdict("multicast == unicast at replication 1 (all policies, "
                "bitwise)",
                lambda points: (_both_planes(points) and 1 in axis_values(
                    points, "replication")),
                unicast_tie_at_r1, bad="WARNING: diverged"),
        Verdict("multicast strictly better divergence per unit at "
                "replication >= 2 (adaptive policies)",
                lambda points: (_both_planes(points) and bool(axis_values(
                    points, "replication") - {1})),
                multicast_dominates),
        Verdict("cgm/ideal invariant across delivery planes (bitwise)",
                _both_planes, controls_invariant,
                bad="WARNING: diverged"),
    ),
)
