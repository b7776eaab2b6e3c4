"""The benchmark's three workloads, built from a seed.

Each workload is a recipe: its inputs (update trace, optional client read
trace and the per-source bandwidth profiles) come from the seed the
benchmark is given; the simulator only ever sees the generated inputs.
Why each one exists is written next to it and in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec
from repro.experiments.scale import sparse_workload
from repro.network.bandwidth import ConstantBandwidth, make_bandwidth
from repro.network.topology import TopologyConfig
from repro.policies.base import SyncPolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.sim.random import RngRegistry
from repro.workloads.read_process import ReadTrace
from repro.workloads.synthetic import Workload, uniform_random_walk


@dataclass
class Inputs:
    """Everything one workload run is fed, generated from the seed.

    The policies are part of the inputs: they carry the per-source
    bandwidth profiles, and each run needs unattached ones.
    """

    workload: Workload
    reads: ReadTrace | None
    #: one policy per policy run of the workload, in run order
    policies: list[SyncPolicy]


@dataclass(frozen=True)
class BenchWorkload:
    """A named workload: input generator plus the run specification."""

    name: str
    why: str
    generate: Callable[[int], Inputs]
    spec: Callable[[int], RunSpec]
    #: client read policy when the workload carries a read trace
    read_policy: str | None = None


# ----------------------------------------------------------------------
# sparse-backlog: the E9 m = 1e5 point exactly as committed
# ----------------------------------------------------------------------
SPARSE_SOURCES = 100_000


def _sparse_generate(seed: int) -> Inputs:
    workload = sparse_workload(SPARSE_SOURCES, 600.0,
                               np.random.default_rng(seed))
    policy = CooperativePolicy(
        ConstantBandwidth(8.0),
        [ConstantBandwidth(1.0) for _ in range(SPARSE_SOURCES)],
        priority_fn=AreaPriority(), scheduling="event")
    return Inputs(workload, None, [policy])


def _sparse_spec(seed: int) -> RunSpec:
    return RunSpec(warmup=100.0, measure=500.0, seed=seed,
                   replay="batched")


# ----------------------------------------------------------------------
# fig4-constrained: one Figure-4 cell, cooperative then ideal
# ----------------------------------------------------------------------
FIG4_SOURCES, FIG4_OBJECTS = 20, 25


def _fig4_source_profiles() -> list:
    return [make_bandwidth(10.0, 0.25, phase=float(j))
            for j in range(FIG4_SOURCES)]


def _fig4_policies() -> list[SyncPolicy]:
    return [
        CooperativePolicy(cache_bandwidth=make_bandwidth(50.0, 0.25),
                          source_bandwidths=_fig4_source_profiles(),
                          priority_fn=AreaPriority()),
        IdealCooperativePolicy(make_bandwidth(50.0, 0.25), AreaPriority(),
                               source_bandwidths=_fig4_source_profiles()),
    ]


def _fig4_generate(seed: int) -> Inputs:
    workload = uniform_random_walk(
        FIG4_SOURCES, FIG4_OBJECTS, 700.0, np.random.default_rng(seed),
        fluctuating_weights=True)
    return Inputs(workload, None, _fig4_policies())


def _fig4_spec(seed: int) -> RunSpec:
    return RunSpec(warmup=100.0, measure=600.0, seed=seed,
                   resample_interval=10.0)


# ----------------------------------------------------------------------
# replicated-reads: 4 caches, r = 3, multicast, quorum-2 client reads
# ----------------------------------------------------------------------
READS_SOURCES, READS_OBJECTS = 100, 5
READ_RATE = 0.1


def _reads_generate(seed: int) -> Inputs:
    workload = uniform_random_walk(READS_SOURCES, READS_OBJECTS, 700.0,
                                   np.random.default_rng(seed))
    reads = workload.read_stream(
        RngRegistry(seed).stream("read-workload"), read_rate=READ_RATE)
    policy = CooperativePolicy(
        ConstantBandwidth(30.0),
        [ConstantBandwidth(3.0) for _ in range(READS_SOURCES)],
        priority_fn=AreaPriority())
    return Inputs(workload, reads, [policy])


def _reads_spec(seed: int) -> RunSpec:
    return RunSpec(warmup=100.0, measure=600.0, seed=seed,
                   topology=TopologyConfig(kind="replicated", num_caches=4,
                                           replication=3,
                                           delivery="multicast"))


WORKLOADS: dict[str, BenchWorkload] = {
    w.name: w for w in (
        BenchWorkload(
            name="sparse-backlog",
            why=("E9 at 1e5 sources: per-source object graphs dominate "
                 "set-up and teardown, and the cache-link queue is "
                 "backlogged"),
            generate=_sparse_generate, spec=_sparse_spec),
        BenchWorkload(
            name="fig4-constrained",
            why=("one Figure-4 cell in the designed regime: replay and "
                 "the ideal oracle dominate, feedback is active and the "
                 "queue drains"),
            generate=_fig4_generate, spec=_fig4_spec),
        BenchWorkload(
            name="replicated-reads",
            why=("4 caches, replication 3, multicast, quorum-2 reads: "
                 "the only workload with fan-out, per-cache stores and a "
                 "read path"),
            generate=_reads_generate, spec=_reads_spec,
            read_policy="quorum-2"),
    )
}
