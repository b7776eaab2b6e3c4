"""Run one policy over one workload and collect a :class:`RunResult`.

This is the single entry point every experiment and example uses; it
guarantees that all policies are measured identically (same warm-up, same
measurement window, same collector).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.divergence import DivergenceMetric
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.metrics.report import RunResult
from repro.network.topology import TopologyConfig
from repro.policies.base import SimulationContext, SyncPolicy
from repro.sim.engine import gc_paused
from repro.workloads.synthetic import Workload
from repro.workloads.trace import check_replay_mode


@dataclass
class RunSpec:
    """Timing and topology parameters shared by all policies in a comparison."""

    warmup: float  #: divergence before this time is discarded
    measure: float  #: length of the measured window
    dt: float = 1.0  #: tick length (the paper's unit is 1 second)
    seed: int = 0  #: seed for any policy-internal randomness
    resample_interval: float | None = None  #: collector re-break period
    topology: TopologyConfig | None = None  #: cache layout (None = star)
    replay: str = "batched"  #: trace/read replay mode ("batched"/"event")
    faults: FaultPlan | None = None  #: deterministic fault plan (None = off)
    retry: RetryPolicy | None = None  #: reliable delivery (None = best-effort)

    @property
    def end_time(self) -> float:
        return self.warmup + self.measure

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.measure <= 0:
            raise ValueError(f"measure must be > 0, got {self.measure}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        check_replay_mode(self.replay)


def make_context(workload: Workload, metric: DivergenceMetric,
                 spec: RunSpec) -> SimulationContext:
    """The simulation context one spec'd run uses (shared by every
    harness, so read-model runs cannot drift from plain ones)."""
    return SimulationContext(workload, metric, warmup=spec.warmup,
                             dt=spec.dt, seed=spec.seed,
                             topology=spec.topology, replay=spec.replay,
                             faults=spec.faults, retry=spec.retry)


def build_result(workload: Workload, metric: DivergenceMetric,
                 policy: SyncPolicy, ctx: SimulationContext,
                 extras: dict | None = None, **extra_fields) -> RunResult:
    """Assemble the standard :class:`RunResult` from a finished run.

    ``extras`` overrides ``policy.extras()`` (harnesses that merge their
    own diagnostics in); ``extra_fields`` forwards additional RunResult
    columns (e.g. the read-model harness's read statistics).
    """
    collector = ctx.collector
    return RunResult(
        policy=policy.name,
        metric=metric.name,
        num_sources=workload.num_sources,
        num_objects=workload.num_objects,
        duration=collector.duration,
        weighted_divergence=collector.mean_weighted_average(),
        unweighted_divergence=collector.mean_unweighted_average(),
        refreshes=policy.refreshes(),
        feedback_messages=policy.feedback_messages(),
        poll_messages=policy.poll_messages(),
        messages_total=policy.messages_total(),
        extras=policy.extras() if extras is None else extras,
        **extra_fields,
    )


def check_conservation(policy: SyncPolicy, ctx: SimulationContext) -> None:
    """Run the policy's message-conservation guard unless the context
    armed fault machinery (a fault plan or reliable delivery), whose
    drops and retransmits the guard does not model."""
    if ctx.faults is None and ctx.retry is None:
        policy.check_conservation()


def run_policy(workload: Workload, metric: DivergenceMetric,
               policy: SyncPolicy, spec: RunSpec) -> RunResult:
    """Replay ``workload`` through ``policy`` and measure divergence.

    Runs with the cyclic garbage collector paused: one run allocates a
    large, mostly-acyclic object graph (per-source nodes, events,
    messages) and generational re-scans of it dominate wall clock at
    m ~ 10^5 without changing any result.
    """
    with gc_paused():
        ctx = make_context(workload, metric, spec)
        policy.attach(ctx)
        ctx.run(spec.end_time, resample_interval=spec.resample_interval)
        check_conservation(policy, ctx)
        return build_result(workload, metric, policy, ctx)
