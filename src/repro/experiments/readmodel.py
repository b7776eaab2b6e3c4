"""Replicated read model experiment: read policy x replication x bandwidth.

The paper's metric (and every experiment so far) time-averages the
divergence of the *logical* cache copy -- the freshest applied snapshot.
What a client experiences under replication is different: the replica that
answers its read may be behind the logical copy, and which replica answers
is a read-path policy decision.  This experiment runs the cooperative
policy on a replicated :class:`~repro.network.topology.MultiCacheTopology`
with a Poisson client read stream and measures, per read policy:

* **read-observed divergence** -- mean weighted ``|answered - true|`` over
  the reads actually served (the client's-eye metric);
* the paper's **copy divergence** for the same run (identical across read
  policies -- reads never perturb the simulation), as the baseline the
  read-observed number degrades from;
* the **per-replica divergence** mean (what the paper's metric would say
  if each replica were the cache), the large-read-rate limit of uniform
  any-replica reads.

Sweeping the quorum size k at fixed bandwidth shows the read-cost /
staleness trade-off: quorum(1) (= any-replica) is cheapest and stalest,
quorum(r) (= freshest-replica) dearest and freshest, and read-observed
divergence is monotone non-increasing in k -- each read's consulted
replica set is nested in k (one shared permutation stream; see
:mod:`repro.cache.readmodel`), so larger quorums answer from
equally-or-more-recent snapshots.

With one cache every policy degenerates to the star's ``CacheStore.read``;
the harness cross-checks that bit for bit on every single-cache run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.readmodel import ReadModel, parse_read_policy
from repro.core.divergence import DivergenceMetric, ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
)
from repro.experiments.runner import (
    RunSpec,
    build_result,
    check_conservation,
    make_context,
)
from repro.metrics.collector import ReadCollector, ReplicaDivergenceTracker
from repro.metrics.report import RunResult, format_table
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.base import SimulationContext, SyncPolicy
from repro.policies.cooperative import CooperativePolicy
from repro.sim.engine import gc_paused
from repro.sim.random import RngRegistry
from repro.workloads.read_process import ReadReplayer, ReadTrace
from repro.workloads.synthetic import Workload, uniform_random_walk


class ReadRun:
    """The read path of one simulation run, wired into a context.

    Construct after ``policy.attach(ctx)`` (the per-cache stores must
    exist) and before ``ctx.run``.  Reads are measurement-only: they never
    send messages or touch policy state, so attaching a read stream
    changes no simulated outcome -- the equivalence suite pins that.
    """

    def __init__(self, ctx: SimulationContext, policy: SyncPolicy,
                 read_trace: ReadTrace, read_policy: str = "any",
                 track_replicas: bool = False) -> None:
        stores = getattr(policy, "stores", None)
        topology = getattr(policy, "topology", None)
        if not stores or topology is None:
            raise ValueError(
                f"policy {policy.name!r} exposes no per-cache stores; "
                f"attach it first and use a store-backed policy")
        self.read_policy = read_policy
        self._kind, self._k = parse_read_policy(read_policy)
        self.model = ReadModel(stores, topology, ctx.workload.owner,
                               rng=ctx.rngs.stream("read-subsets"))
        self.collector = ReadCollector(ctx.workload.num_objects,
                                       ctx.workload.weights,
                                       num_replicas=topology.num_caches,
                                       warmup=ctx.warmup)
        self.tracker: ReplicaDivergenceTracker | None = None
        if track_replicas:
            self.tracker = ReplicaDivergenceTracker(
                stores, ctx.objects, self.model.replicas,
                warmup=ctx.warmup)
            ctx.add_update_hook(self.tracker.on_update)
            for cache in policy.caches:
                cache.add_refresh_hook(
                    self.tracker.refresh_hook(cache.cache_id))
        # Single cache: every policy must answer exactly what the star's
        # CacheStore.read returns.  Cross-check each read bit for bit.
        self._baseline_store = stores[0] if topology.num_caches == 1 \
            else None
        self.baseline_mismatches = 0
        self._objects = ctx.objects
        self._sim = ctx.sim
        self.replayer = ReadReplayer(ctx.sim, read_trace, self._on_read,
                                     on_read_batch=self._on_read_batch,
                                     mode=ctx.replay)

    def _on_read(self, now: float, index: int) -> None:
        if self._kind == "any":
            sample = self.model.any_replica(index)
        elif self._kind == "freshest":
            sample = self.model.freshest_replica(index)
        else:
            sample = self.model.quorum(index, self._k)
        divergence = abs(sample.value - self._objects[index].value)
        self.collector.record_read(index, now, divergence,
                                   sample.cache_id)
        if self._baseline_store is not None and \
                sample.value != float(self._baseline_store.values[index]):
            self.baseline_mismatches += 1

    def _on_read_batch(self, times: np.ndarray,
                       indices: np.ndarray) -> None:
        """Serve a run of consecutive reads between simulator wakeups.

        Answers come from :meth:`ReadModel.read_batch` (same values, same
        rng consumption as the per-read loop) and land in one
        :meth:`ReadCollector.record_many` call.  The true source values
        are gathered per read -- they change between batches -- but
        ``abs`` and the baseline cross-check vectorize.
        """
        values, cache_ids = self.model.read_batch(
            indices, policy=self.read_policy)
        objects = self._objects
        truth = np.array([objects[index].value
                          for index in indices.tolist()])
        divergences = np.abs(values - truth)
        self.collector.record_many(indices, times, divergences, cache_ids)
        if self._baseline_store is not None:
            baseline = self._baseline_store.values[indices]
            self.baseline_mismatches += int(
                np.count_nonzero(values != baseline))
        # Keep the clock where per-event replay would have left it (reads
        # never touch simulator state, so only the final position matters).
        self._sim.advance_clock(float(times[-1]))

    @property
    def matches_direct(self) -> bool | None:
        """True when every single-cache read equalled ``CacheStore.read``
        exactly (None on multi-cache runs, where there is no baseline)."""
        if self._baseline_store is None:
            return None
        return self.baseline_mismatches == 0

    def finalize(self, end: float) -> None:
        if self.tracker is not None:
            self.tracker.finalize(end)


def run_policy_with_reads(workload: Workload, metric: DivergenceMetric,
                          policy: SyncPolicy, spec: RunSpec,
                          read_trace: ReadTrace,
                          read_policy: str = "any",
                          track_replicas: bool = False
                          ) -> tuple[RunResult, ReadRun]:
    """:func:`~repro.experiments.runner.run_policy` plus a client read
    stream; returns the result (read columns populated) and the read run.
    """
    with gc_paused():
        ctx = make_context(workload, metric, spec)
        policy.attach(ctx)
        read_run = ReadRun(ctx, policy, read_trace,
                           read_policy=read_policy,
                           track_replicas=track_replicas)
        ctx.run(spec.end_time, resample_interval=spec.resample_interval)
        read_run.finalize(spec.end_time)
        check_conservation(policy, ctx)
    reads = read_run.collector
    extras = dict(policy.extras())
    extras["replica_reads"] = reads.replica_reads.tolist()
    extras["stale_read_fraction"] = reads.stale_read_fraction()
    if read_run.matches_direct is not None:
        extras["matches_direct_store_read"] = read_run.matches_direct
    if read_run.tracker is not None:
        extras["replica_divergence"] = \
            read_run.tracker.per_replica_average().tolist()
    result = build_result(
        workload, metric, policy, ctx, extras=extras,
        reads=reads.reads,
        read_divergence=reads.mean_read_divergence(),
        read_divergence_unweighted=reads.mean_unweighted_read_divergence(),
    )
    return result, read_run


@dataclass
class ReadModelPoint:
    """One (bandwidth, replication, read policy) measurement."""

    cache_bandwidth: float
    num_caches: int
    replication: int
    read_policy: str
    quorum_size: int  #: replicas consulted per read (r for freshest)
    read_divergence: float  #: mean weighted |answered - true| per read
    read_divergence_unweighted: float
    stale_read_fraction: float
    copy_divergence: float  #: the paper's metric for the same run
    replica_divergence: float  #: mean per-replica time-averaged divergence
    reads: int
    refreshes: int
    matches_direct: bool | None  #: single-cache CacheStore.read cross-check


def read_policies_for(replication: int) -> list[str]:
    """The read-policy sweep at one replication factor.

    ``any`` is quorum-1 and ``freshest`` consults all ``r`` replicas, so
    the list walks the whole quorum axis plus the deterministic endpoint.
    """
    return (["any"]
            + [f"quorum-{k}" for k in range(2, replication + 1)]
            + ["freshest"])


def _quorum_size(policy: str, replication: int) -> int:
    kind, k = parse_read_policy(policy)
    if kind == "any":
        return 1
    if kind == "freshest":
        return replication
    return k


@dataclass(frozen=True)
class ReadModelCell:
    """One picklable (bandwidth, replication, read policy) E10 cell."""

    cache_bandwidth: float
    num_caches: int
    replication: int  #: already clamped to num_caches
    read_policy: str
    read_rate: float
    num_sources: int
    objects_per_source: int
    source_bandwidth: float
    warmup: float
    measure: float
    seed: int
    replay: str
    delivery: str = "unicast"


#: Per-process memo of the last read trace (keyed by workload spec +
#: read rate), mirroring the single-build workload memo: every E10 cell
#: of one sweep shares the same seeded streams.
_read_trace_cache: dict = {}


def _readmodel_streams(cell: ReadModelCell):
    """Rebuild (memoized) the sweep's shared workload and read trace."""
    wspec = WorkloadSpec.make(
        uniform_random_walk, cell.seed, num_sources=cell.num_sources,
        objects_per_source=cell.objects_per_source,
        horizon=cell.warmup + cell.measure)
    workload = build_workload(wspec)
    key = (wspec, cell.read_rate)
    read_trace = _read_trace_cache.get(key)
    if read_trace is None:
        read_trace = workload.read_stream(
            RngRegistry(cell.seed).stream("read-workload"),
            read_rate=cell.read_rate)
        _read_trace_cache.clear()
        _read_trace_cache[key] = read_trace
    return workload, read_trace


def _run_readmodel_cell(cell: ReadModelCell) -> ReadModelPoint:
    """Worker-side E10 cell; bit-identical in any process (seeded
    workload/read streams are regenerated, never pickled)."""
    workload, read_trace = _readmodel_streams(cell)
    r = cell.replication
    if cell.num_caches == 1:
        config = TopologyConfig(delivery=cell.delivery)
    else:
        config = TopologyConfig(kind="replicated",
                                num_caches=cell.num_caches,
                                replication=r,
                                delivery=cell.delivery)
    spec = RunSpec(warmup=cell.warmup, measure=cell.measure,
                   seed=cell.seed, topology=config, replay=cell.replay)
    policy = CooperativePolicy(
        ConstantBandwidth(cell.cache_bandwidth),
        [ConstantBandwidth(cell.source_bandwidth)
         for _ in range(cell.num_sources)],
        priority_fn=AreaPriority())
    result, read_run = run_policy_with_reads(
        workload, ValueDeviation(), policy, spec, read_trace,
        read_policy=cell.read_policy, track_replicas=True)
    tracker = read_run.tracker
    stale = read_run.collector.stale_read_fraction()
    return ReadModelPoint(
        cache_bandwidth=cell.cache_bandwidth,
        num_caches=cell.num_caches,
        replication=r,
        read_policy=cell.read_policy,
        quorum_size=_quorum_size(cell.read_policy, r),
        read_divergence=result.read_divergence,
        read_divergence_unweighted=result.read_divergence_unweighted,
        stale_read_fraction=stale,
        copy_divergence=result.weighted_divergence,
        replica_divergence=tracker.mean_over_replicas(),
        reads=result.reads,
        refreshes=result.refreshes,
        matches_direct=read_run.matches_direct,
    )


def run_readmodel(num_caches: int = 3,
                  replications: tuple[int, ...] = (1, 2, 3),
                  cache_bandwidths: tuple[float, ...] = (18.0,),
                  read_rate: float = 0.5,
                  num_sources: int = 12,
                  objects_per_source: int = 4,
                  source_bandwidth: float = 3.0,
                  warmup: float = 100.0,
                  measure: float = 400.0,
                  seed: int = 0,
                  replay: str = "batched",
                  delivery: str = "unicast",
                  workers: int = 1) -> list[ReadModelPoint]:
    """Sweep read policy x replication x aggregate cache bandwidth.

    One seeded workload and one seeded read stream are shared by every
    point; within a (bandwidth, replication) cell the simulation is
    identical across read policies (reads are measurement-only), so the
    read-divergence column isolates the read policy's effect exactly.
    Replication factors above ``num_caches`` are clamped (a copy per cache
    is all a layout can hold); ``num_caches = 1`` degenerates every policy
    to the star's ``CacheStore.read``, which the harness cross-checks bit
    for bit (the ``direct`` column).

    ``workers`` > 1 fans the cells over a process pool; every worker
    regenerates the same seeded streams, so the sweep is bit-for-bit
    identical to serial, in the same cell order.
    """
    cells: list[ReadModelCell] = []
    for bandwidth in cache_bandwidths:
        seen: set[int] = set()
        for replication in replications:
            r = min(replication, num_caches)
            if r in seen:  # clamping can collapse sweep entries
                continue
            seen.add(r)
            for read_policy in read_policies_for(r):
                cells.append(ReadModelCell(
                    cache_bandwidth=bandwidth,
                    num_caches=num_caches,
                    replication=r,
                    read_policy=read_policy,
                    read_rate=read_rate,
                    num_sources=num_sources,
                    objects_per_source=objects_per_source,
                    source_bandwidth=source_bandwidth,
                    warmup=warmup,
                    measure=measure,
                    seed=seed,
                    replay=replay,
                    delivery=delivery))
    return ParallelRunner(workers).map(_run_readmodel_cell, cells)


def quorum_monotone(points: list[ReadModelPoint]) -> bool:
    """True when read divergence is non-increasing in quorum size within
    every (bandwidth, replication) cell (``freshest`` = quorum-r)."""
    cells: dict[tuple[float, int], list[ReadModelPoint]] = {}
    for p in points:
        cells.setdefault(
            (p.cache_bandwidth, p.replication), []).append(p)
    for cell in cells.values():
        cell.sort(key=lambda p: p.quorum_size)
        for a, b in zip(cell, cell[1:]):
            if b.read_divergence > a.read_divergence:
                return False
    return True


def freshest_equals_full_quorum(points: list[ReadModelPoint]) -> bool:
    """True when quorum-r and freshest agree exactly in every cell."""
    cells: dict[tuple[float, int], dict[str, ReadModelPoint]] = {}
    for p in points:
        cells.setdefault((p.cache_bandwidth, p.replication),
                         {})[p.read_policy] = p
    for (_, replication), by_policy in cells.items():
        full = by_policy.get(f"quorum-{replication}")
        freshest = by_policy.get("freshest")
        if full is None or freshest is None:
            continue
        if (full.read_divergence != freshest.read_divergence
                or full.reads != freshest.reads):
            return False
    return True


def render_readmodel(points: list[ReadModelPoint], title: str) -> str:
    """The sweep as a table plus the three structural verdicts."""
    rows = []
    for p in points:
        direct = "-" if p.matches_direct is None else \
            ("yes" if p.matches_direct else "NO")
        rows.append([p.cache_bandwidth, p.num_caches, p.replication,
                     p.read_policy, p.quorum_size, p.read_divergence,
                     f"{100 * p.stale_read_fraction:.1f}%",
                     p.copy_divergence, p.replica_divergence,
                     p.reads, p.refreshes, direct])
    table = format_table(
        ["bandwidth", "caches", "repl", "read policy", "k",
         "read div", "stale reads", "copy div", "replica div",
         "reads", "refreshes", "direct"],
        rows, title=title)
    verdicts = [
        "quorum-k read divergence monotone non-increasing in k: "
        + ("yes" if quorum_monotone(points) else "NO"),
        "quorum-r matches freshest-replica exactly: "
        + ("yes" if freshest_equals_full_quorum(points) else "NO"),
    ]
    single = [p for p in points if p.matches_direct is not None]
    if single:
        ok = all(p.matches_direct for p in single)
        verdicts.append(
            "single-cache reads match star CacheStore.read bit-for-bit: "
            + ("yes" if ok else "NO"))
    return table + "\n" + "\n".join(verdicts)
