"""Fault-injection experiment (E12): policies under message loss and crashes.

The paper's protocol is explicitly best-effort ("sources send refreshes
... with no delivery guarantee"), but its experiments run on a perfect
network.  With the deterministic fault layer (:mod:`repro.faults`) the
simulator can ask how the five policies degrade when the network itself
misbehaves: random message loss, a cache crash-restart that wipes
learned state, and a feedback blackout that severs the cache -> source
control channel.

The matrix is {none, lossy-1, lossy-10, crash-restart,
feedback-blackout} (see :func:`repro.faults.plan.fault_scenario`) x
{star, sharded-4} x all five policies on one seeded random-walk
workload.  Structural verdicts:

1. **empty plan == baseline**: scenario "none" run again with an
   explicit empty :class:`FaultPlan` must reproduce the fault-free run
   bit for bit for every policy (the machinery-off pin).
2. **loss is monotone**: per policy and topology, divergence is
   non-decreasing in the loss rate (none <= lossy-1 <= lossy-10).
3. **retries recover**: reliable delivery on the lossy cells wins back
   at least half of the loss-induced divergence gap for the cooperative
   policy.
4. **blackout is graceful**: cooperative with a feedback TTL holds its
   blackout divergence at or below static uniform allocation's -- the
   TTL decay drifts cut-off sources back toward the uniform split
   instead of letting their thresholds ratchet upward forever (which
   can leave plain cooperative *worse* than uniform).

``rate_cap`` bounds the per-object update rate (``U(0, rate_cap)``).
Loss hurts most -- and reliable delivery helps most -- when updates are
sparse: a dropped refresh of a rarely-updating object leaves the cached
copy stale until the *next* update re-arms the priority, which at rate
``r`` is ``1/r`` away; the retransmit timer fixes it within
``~retry_timeout``.  (At high update rates the best-effort protocol is
self-healing -- the next update re-sends within moments -- and
retransmits only displace better-prioritized refreshes.)
``retry_timeout`` must exceed the typical queueing delay of the
matrix's links, or retransmits of merely-queued refreshes feed a
congestion spiral; the default bandwidth leaves the links loaded but
uncongested, where a short timeout is safe and recovers fast.

The ideal policy never builds a topology (it is the analytic reference
curve), so faults cannot and should not perturb it; its column doubles
as a sanity pin that the fault layer touches only the network.
"""

from __future__ import annotations

from dataclasses import replace

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
    run_arm,
    timing,
)
from repro.experiments.netcond import LAYOUTS, TOPOLOGIES
from repro.faults.plan import FAULT_SCENARIOS, FaultPlan, fault_scenario
from repro.faults.retry import RetryPolicy

#: scenarios whose cells also run the cooperative + reliable-delivery arm
LOSSY_SCENARIOS = ("lossy-1", "lossy-10")


def _dropped_of(policy) -> int:
    topology = getattr(policy, "topology", None)
    if topology is None:
        return 0
    return topology.telemetry()["dropped"]


def _faults_cell(cell: Cell) -> dict:
    """Worker-side cell: one seeded workload through all five policies,
    plus the side arms (``+empty-plan``, ``+retry``, ``+ttl``) the
    scenario calls for."""
    workload = cell_workload(cell, rate_range=(0.0, cell["rate_cap"]))
    plan = fault_scenario(cell["scenario"], cell["warmup"],
                          cell["measure"], seed=cell["seed"])
    spec = cell_spec(cell, topology=LAYOUTS[cell["topology"]],
                     faults=None if plan.is_empty() else plan)

    def policy_arm(name, spec):
        policy, result = run_arm(cell, workload, name, spec)
        return {"divergence": result.weighted_divergence,
                "refreshes": result.refreshes,
                "dropped": _dropped_of(policy)}

    arms = {name: policy_arm(name, spec) for name in POLICIES}
    if cell["scenario"] == "none":
        # The machinery-off pin: an explicit empty plan must leave the
        # delivery paths instruction-identical to no plan at all.
        empty_spec = replace(spec, faults=FaultPlan())
        for name in POLICIES:
            arms[f"{name}+empty-plan"] = policy_arm(name, empty_spec)
    if cell["scenario"] in LOSSY_SCENARIOS:
        retry_spec = replace(spec, retry=RetryPolicy(
            timeout=cell["retry_timeout"], backoff=cell["retry_backoff"],
            max_attempts=cell["retry_attempts"]))
        policy, result = run_arm(cell, workload, "cooperative", retry_spec)
        telemetry = policy.topology.telemetry()
        arms["cooperative+retry"] = {
            "divergence": result.weighted_divergence,
            "retransmitted": telemetry["retransmitted"],
            "duplicates": telemetry["duplicate_suppressed"]}
    if cell["scenario"] in ("none", "feedback-blackout"):
        # The "none" cells pin that the TTL arm costs nothing while
        # feedback actually flows (on_feedback keeps pushing the decay
        # deadline out of reach).
        _, result = run_arm(cell, workload, "cooperative", spec,
                            feedback_ttl=cell["feedback_ttl"])
        arms["cooperative+ttl"] = {"divergence": result.weighted_divergence}
    return arms


# ----------------------------------------------------------------------
# Structural verdicts
# ----------------------------------------------------------------------
def _scenarios(points: list[Point]) -> set:
    return axis_values(points, "scenario")


def empty_plan_is_baseline(points: list[Point]) -> bool:
    """True when every "none" cell's explicit-empty-plan re-run matched
    the fault-free run bit for bit for every policy."""
    none = [p for p in points if p.axes["scenario"] == "none"]
    return bool(none) and all(
        p.arms.get(f"{name}+empty-plan") == p.arms.get(name)
        for p in none for name in POLICIES)


def loss_monotone(points: list[Point], tolerance: float = 0.02) -> bool:
    """True when divergence is non-decreasing in loss rate for every
    policy on every topology (none <= lossy-1 <= lossy-10).

    ``tolerance`` is the allowed relative dip: monotonicity is a
    statistical expectation, not a per-draw guarantee, and a low loss
    rate can shave a hair off a non-adaptive policy's divergence when
    the particular dropped refreshes happened to be near-stale anyway.
    """
    cells = by_cell(points, "scenario", "topology")
    checked = 0
    ladder = ("none", *LOSSY_SCENARIOS)
    for topology in axis_values(points, "topology"):
        rungs = [cells[(s, topology)] for s in ladder
                 if (s, topology) in cells]
        for lower, upper in zip(rungs, rungs[1:]):
            checked += 1
            for name in POLICIES:
                if name not in upper.arms:
                    continue
                floor = (lower.arms.get(name, {}).get("divergence", 0.0)
                         * (1.0 - tolerance))
                if upper.arms[name]["divergence"] < floor:
                    return False
    return checked > 0


def retry_recovers(points: list[Point]) -> bool:
    """True when reliable delivery wins back at least half of each lossy
    cell's loss-induced cooperative divergence gap (gap <= 0 passes:
    there was nothing to recover)."""
    cells = by_cell(points, "scenario", "topology")
    checked = 0
    for (scenario, topology), lossy in cells.items():
        if (scenario not in LOSSY_SCENARIOS
                or "cooperative+retry" not in lossy.arms
                or ("none", topology) not in cells):
            continue
        checked += 1
        coop = lossy.arms["cooperative"]["divergence"]
        gap = coop - cells[("none", topology)].arms["cooperative"][
            "divergence"]
        if gap > 0.0 and (lossy.arms["cooperative+retry"]["divergence"]
                          > coop - 0.5 * gap):
            return False
    return checked > 0


def blackout_graceful(points: list[Point],
                      tolerance: float = 0.02) -> bool:
    """True when cooperative-with-TTL holds its blackout divergence at
    or below static uniform allocation's on every topology.

    Without the TTL a blackout can leave cooperative *worse* than
    uniform: thresholds learned before the cut-off ratchet upward on
    stale silence and starve the cut-off sources forever.  The TTL
    decay drifts them back toward the uniform split, so the adaptive
    policy degrades no worse than the static one it would converge to.
    """
    blackout = [p for p in points
                if p.axes["scenario"] == "feedback-blackout"
                and "cooperative+ttl" in p.arms]
    return bool(blackout) and all(
        p.arms["cooperative+ttl"]["divergence"]
        <= p.arms["uniform"]["divergence"] * (1.0 + tolerance)
        for p in blackout)


def _extras(points: list[Point]) -> list[str]:
    lines = []
    for p in points:
        where = f"{p.axes['scenario']}/{p.axes['topology']}"
        retry = p.arms.get("cooperative+retry")
        if retry is not None:
            lines.append(
                f"  {where} + retry: divergence {retry['divergence']:.4g} "
                f"({retry['retransmitted']} retransmits, "
                f"{retry['duplicates']} duplicates suppressed)")
        ttl = p.arms.get("cooperative+ttl")
        if ttl is not None and p.axes["scenario"] != "none":
            lines.append(f"  {where} + feedback TTL: divergence "
                         f"{ttl['divergence']:.4g}")
    return lines


FAULTS = Experiment(
    name="faults",
    title="E12 fault injection: five policies under loss, crashes and "
          "feedback blackouts (weighted divergence)",
    summary="E12 fault-injection matrix: five policies under "
            "loss/crash/blackout plans, plus reliable-delivery and "
            "feedback-TTL arms",
    axes=(
        Axis("scenario", "--scenarios", FAULT_SCENARIOS,
             "fault scenarios to run", choices=FAULT_SCENARIOS),
        Axis("topology", "--topologies", TOPOLOGIES,
             "cache layouts to run", choices=TOPOLOGIES),
    ),
    params=(
        Param("sources", 16),
        Param("objects", 8, "objects per source"),
        Param("cache_bandwidth", 12.0, "aggregate cache-side msgs/s"),
        Param("source_bandwidth", 4.0, "per-source msgs/s"),
        Param("rate_cap", 0.1,
              "max per-object update rate (sparse updates are where loss "
              "hurts and retries help; see repro.experiments.faults)"),
        Param("retry_timeout", 3.0,
              "seconds before the first retransmit in the "
              "reliable-delivery arm"),
        Param("retry_backoff", 2.0,
              "multiplier on the timeout per further attempt"),
        Param("retry_attempts", 4,
              "total sends per refresh, the original included"),
        Param("feedback_ttl", 40.0,
              "source-side feedback staleness TTL in the "
              "graceful-degradation arm"),
        *timing(),
    ),
    cell=_faults_cell,
    columns=("scenario", "layout", *POLICIES, "dropped"),
    row=lambda p: [p.axes["scenario"], p.axes["topology"],
                   *(p.arms[name]["divergence"] for name in POLICIES),
                   max(p.arms[name]["dropped"] for name in POLICIES)],
    extras=_extras,
    verdicts=(
        Verdict("empty fault plan == fault-free baseline (all policies, "
                "bitwise)",
                lambda points: "none" in _scenarios(points),
                empty_plan_is_baseline, bad="WARNING: diverged"),
        Verdict("divergence monotone non-decreasing in loss rate",
                lambda points: len(_scenarios(points)
                                   & {"none", *LOSSY_SCENARIOS}) >= 2,
                loss_monotone),
        Verdict("retries recover >= half the loss-induced gap",
                lambda points: ("none" in _scenarios(points)
                                and bool(_scenarios(points)
                                         & set(LOSSY_SCENARIOS))),
                retry_recovers),
        Verdict("cooperative + TTL degrades no worse than uniform through "
                "the blackout",
                lambda points: "feedback-blackout" in _scenarios(points),
                blackout_graceful),
    ),
)
