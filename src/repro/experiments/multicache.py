"""Multi-cache scenario: adaptive cooperation vs. uniform allocation.

The paper's star is the ``num_caches = 1`` special case of a sharded edge:
N cache nodes, each with its own constrained link carrying a 1/N share of
the aggregate cache-side bandwidth, and each source reporting to one cache
(or fanning out to several replicas).  This experiment sweeps the number
of caches over a hot-shard workload (see
:mod:`repro.workloads.hotspot`) and compares, at each point:

* ``cooperative`` -- the Sec 5 threshold/feedback protocol, running one
  feedback controller per cache node;
* ``uniform`` -- a static uniform allocation that refreshes every object
  at the same rate regardless of load.

As caches are added, each cache's budget shrinks while the hot shard's
update load does not, so per-object divergence under the adaptive policy
should stay well below uniform allocation -- the cooperative protocol
concentrates each cache's budget on the objects that need it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.divergence import ValueDeviation
from repro.experiments.harness import make_policy
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.metrics.report import format_table
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.workloads.hotspot import hotspot_shards


@dataclass
class MultiCachePoint:
    """One (num_caches, policy pair) measurement."""

    num_caches: int
    kind: str  #: topology kind ("sharded" / "replicated"; star when n=1)
    cooperative_divergence: float
    uniform_divergence: float
    cooperative_refreshes: int
    uniform_refreshes: int
    cache_queue_peak: int  #: worst cooperative cache-link backlog

    @property
    def advantage(self) -> float:
        """Uniform divided by cooperative divergence (> 1: adaptive wins)."""
        if self.cooperative_divergence <= 0:
            return float("inf")
        return self.uniform_divergence / self.cooperative_divergence


@dataclass(frozen=True)
class MultiCacheCell:
    """One picklable cache-count cell of the multicache sweep."""

    num_caches: int
    kind: str
    replication: int
    num_sources: int
    objects_per_source: int
    cache_bandwidth: float
    source_bandwidth: float
    hot_fraction: float
    hot_boost: float
    warmup: float
    measure: float
    seed: int
    cache_rates: tuple[float, ...] | None
    delivery: str = "unicast"


def _run_multicache_cell(cell: MultiCacheCell) -> MultiCachePoint:
    """Worker-side cell: rebuild the seeded workload, run both policies.

    The hot-shard workload is regenerated from the sweep seed (memoized
    per process), so any process produces bit-identical points.
    """
    wspec = WorkloadSpec.make(
        hotspot_shards, cell.seed, num_sources=cell.num_sources,
        objects_per_source=cell.objects_per_source,
        horizon=cell.warmup + cell.measure,
        hot_fraction=cell.hot_fraction, hot_boost=cell.hot_boost)
    workload = build_workload(wspec)
    metric = ValueDeviation()
    num_caches = cell.num_caches
    if num_caches == 1:
        config = TopologyConfig(cache_rates=cell.cache_rates,
                                delivery=cell.delivery)
    else:
        config = TopologyConfig(kind=cell.kind, num_caches=num_caches,
                                replication=cell.replication,
                                cache_rates=cell.cache_rates,
                                delivery=cell.delivery)
    spec = RunSpec(warmup=cell.warmup, measure=cell.measure,
                   seed=cell.seed, topology=config)

    def profiles():
        return (ConstantBandwidth(cell.cache_bandwidth),
                [ConstantBandwidth(cell.source_bandwidth)
                 for _ in range(cell.num_sources)])

    cooperative, uniform = [
        run_policy(workload, metric,
                   make_policy(name, *profiles(), workload.num_objects),
                   spec)
        for name in ("cooperative", "uniform")]
    return MultiCachePoint(
        num_caches=num_caches,
        kind="star" if num_caches == 1 else cell.kind,
        cooperative_divergence=cooperative.weighted_divergence,
        uniform_divergence=uniform.weighted_divergence,
        cooperative_refreshes=cooperative.refreshes,
        uniform_refreshes=uniform.refreshes,
        cache_queue_peak=int(
            cooperative.extras.get("cache_queue_peak", 0)),
    )


def run_multicache(num_caches_list: tuple[int, ...] = (1, 2, 4, 8),
                   kind: str = "sharded",
                   replication: int = 2,
                   num_sources: int = 16,
                   objects_per_source: int = 8,
                   cache_bandwidth: float = 24.0,
                   source_bandwidth: float = 4.0,
                   hot_fraction: float = 0.25,
                   hot_boost: float = 8.0,
                   warmup: float = 100.0,
                   measure: float = 400.0,
                   seed: int = 0,
                   cache_rates: tuple[float, ...] | None = None,
                   delivery: str = "unicast",
                   workers: int = 1) -> list[MultiCachePoint]:
    """Sweep cache-node counts on one seeded hot-shard workload.

    The workload and the aggregate bandwidth are held fixed across the
    sweep, so the only thing that changes is how the cache side is
    partitioned -- exactly the topology axis the related cooperative-
    caching surveys identify as dominant.  ``cache_rates`` pins explicit
    heterogeneous per-cache link rates (msgs/s) instead of the even
    aggregate split; the sweep then runs the single ``len(cache_rates)``
    point, since the rates define the cache count.

    ``workers`` > 1 fans the cache-count cells over a process pool;
    every worker regenerates the same seeded workload, so the sweep is
    bit-for-bit identical to serial.
    """
    if cache_rates is not None:
        cache_rates = tuple(float(r) for r in cache_rates)
        num_caches_list = (len(cache_rates),)
    cells = [MultiCacheCell(
        num_caches=num_caches, kind=kind, replication=replication,
        num_sources=num_sources, objects_per_source=objects_per_source,
        cache_bandwidth=cache_bandwidth,
        source_bandwidth=source_bandwidth,
        hot_fraction=hot_fraction, hot_boost=hot_boost,
        warmup=warmup, measure=measure, seed=seed,
        cache_rates=cache_rates, delivery=delivery)
        for num_caches in num_caches_list]
    return ParallelRunner(workers).map(_run_multicache_cell, cells)


def render_multicache(points: list[MultiCachePoint], title: str) -> str:
    """The sweep as a table, one row per cache count."""
    rows = [
        [p.num_caches, p.kind, p.cooperative_divergence,
         p.uniform_divergence, p.advantage, p.cooperative_refreshes,
         p.uniform_refreshes, p.cache_queue_peak]
        for p in points
    ]
    return format_table(
        ["caches", "layout", "cooperative", "uniform", "advantage",
         "coop refreshes", "unif refreshes", "queue peak"],
        rows, title=title)
