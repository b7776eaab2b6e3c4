"""Phase-split runs of one workload, their output checks and metrics.

One *rep* runs a whole workload the way ``run_policy`` does, but calls
the layers' public entry points one by one so each phase is timed on its
own: input generation -> ``make_context`` -> ``policy.attach`` ->
``sim.run_until`` -> ``collector.finalize`` -> ``build_result``, then the
run's object graph is dropped and collected.  A traced rep does the same
with spans installed on the layers' classes (see :mod:`perfbench.tracing`).

Every rep is checked: each cache link conserves legs, its result is
bit-identical to ``run_policy`` on the same inputs, and a traced rep's
simulated outputs are bit-identical to an untraced rep's.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from perfbench.tracing import Patch, Tracer, installed
from perfbench.workloads import BenchWorkload
from repro.cache.cache import CacheNode
from repro.cache.readmodel import ReadModel
from repro.core.divergence import ValueDeviation
from repro.experiments.readmodel import ReadRun, run_policy_with_reads
from repro.experiments.runner import build_result, make_context, run_policy
from repro.metrics.collector import DivergenceCollector, ReadCollector
from repro.metrics.report import RunResult
from repro.network.messages import MESSAGE_SIZE, RefreshMessage
from repro.network.topology import Topology
from repro.policies.base import SimulationContext
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.sim.engine import Simulator, gc_paused
from repro.source.source import SourceNode


@dataclass(frozen=True)
class Regime:
    """Upstream leg counters of one run, read off its cache links.

    A *leg* is one copy of a refresh on one cache link: a replicated
    source's send is one leg per replica.  Downstream feedback shares the
    links' counters and is subtracted out.
    """

    legs_accepted: int
    legs_delivered: int
    legs_queued: int
    queue_peak: int
    units: float  #: credit the delivered legs spent
    source_sends: int
    refreshes_applied: int
    stale_discards: int
    feedback_sent: int
    threshold_mean: float

    @property
    def undelivered_frac(self) -> float:
        """Legs accepted but not delivered by the end of the run."""
        return (self.legs_accepted - self.legs_delivered) / \
            self.legs_accepted if self.legs_accepted else 0.0


def link_regime(policy) -> Regime | None:
    """The run's leg counters; ``None`` for policies without links."""
    topology = getattr(policy, "topology", None)
    if topology is None:
        return None
    links = topology.cache_links
    downstream = policy.feedback_messages()
    thresholds = [source.threshold.value for source in policy.sources]
    return Regime(
        legs_accepted=sum(link.total_sent for link in links) - downstream,
        legs_delivered=(sum(link.total_delivered for link in links)
                        - downstream),
        legs_queued=sum(link.queued for link in links),
        queue_peak=topology.cache_queued_peak(),
        units=(sum(link.total_units for link in links)
               - downstream * MESSAGE_SIZE),
        source_sends=sum(source.refreshes_sent for source in policy.sources),
        refreshes_applied=sum(cache.refreshes_applied
                              for cache in policy.caches),
        stale_discards=sum(cache.stale_discards for cache in policy.caches),
        feedback_sent=downstream,
        threshold_mean=sum(thresholds) / len(thresholds),
    )


def conservation_failures(policy, regime: Regime | None) -> list[str]:
    """Leg conservation per cache link and across the fan-out."""
    if regime is None:
        return []
    topology = policy.topology
    failures = [
        f"cache link {k}: sent {link.total_sent} != delivered "
        f"{link.total_delivered} + queued {link.queued}"
        for k, link in enumerate(topology.cache_links)
        if link.total_sent != link.total_delivered + link.queued]
    fanned = sum(source.refreshes_sent
                 * len(topology.caches_of(source.source_id))
                 for source in policy.sources)
    if regime.legs_accepted != fanned:
        failures.append(f"legs accepted {regime.legs_accepted} != source "
                        f"sends times replicas {fanned}")
    handled = regime.refreshes_applied + regime.stale_discards
    if regime.legs_delivered != handled:
        failures.append(f"legs delivered {regime.legs_delivered} != "
                        f"applied + stale discards {handled}")
    return failures


def fingerprint(result: RunResult) -> str:
    """Exact text of a result: ``repr`` round-trips every float."""
    return repr(asdict(result))


@dataclass
class Outcome:
    """What one policy run produced, reduced to plain data."""

    result: RunResult
    regime: Regime | None
    failures: list[str]

    @property
    def legs(self) -> int:
        return self.regime.legs_accepted if self.regime else 0


def observe(policy, result: RunResult) -> Outcome:
    regime = link_regime(policy)
    return Outcome(result, regime, conservation_failures(policy, regime))


@dataclass
class Rep:
    """One phase-split run of a whole workload."""

    setup_s: float
    run_s: float
    free_s: float
    outcomes: list[Outcome]
    updates: int
    reads: int
    num_sources: int
    tracer: Tracer | None = None
    probe: "Probe | None" = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.free_s


class Probe:
    """Counters the traced rep gathers where the spans are."""

    def __init__(self, warmup: float) -> None:
        self.warmup = warmup
        #: delivery time minus sent time of each refresh leg delivered
        #: at or after the warm-up
        self.ages: list[float] = []

    def on_delivery(self, _, cache, message) -> None:
        if isinstance(message, RefreshMessage):
            now = cache.clock()
            if now >= self.warmup:
                self.ages.append(now - message.sent_at)


def layer_patches(probe: Probe) -> list[Patch]:
    """The layer boundaries a traced rep times."""
    return [
        Patch(SimulationContext, "apply_update", "context.replay"),
        Patch(SimulationContext, "apply_update_batch",
              "context.replay_batch"),
        Patch(SimulationContext, "build_topology", "topology.build"),
        Patch(CooperativePolicy, "attach", "cooperative.attach"),
        Patch(CooperativePolicy, "_on_update", "cooperative.dispatch"),
        Patch(CooperativePolicy, "_sources_tick", "cooperative.dispatch"),
        Patch(CooperativePolicy, "_caches_tick", "cooperative.dispatch"),
        Patch(IdealCooperativePolicy, "attach", "ideal.attach"),
        Patch(IdealCooperativePolicy, "_on_update", "ideal.run"),
        Patch(IdealCooperativePolicy, "_on_tick", "ideal.run"),
        Patch(SourceNode, "on_update", "source.on_update"),
        Patch(SourceNode, "on_wake", "source.on_wake"),
        Patch(SourceNode, "on_message", "source.on_feedback"),
        Patch(Topology, "send_upstream", "topology.send_upstream"),
        Patch(Topology, "on_network_tick", "topology.network_tick"),
        Patch(CacheNode, "on_message", "cache.on_message",
              observe=probe.on_delivery),
        Patch(CacheNode, "on_tick", "cache.on_tick"),
        Patch(ReadRun, "_on_read_batch", "readrun.serve"),
        Patch(ReadModel, "read_batch", "readmodel.read_batch"),
        Patch(ReadCollector, "record_many", "collector.read_record"),
        Patch(DivergenceCollector, "record", "collector.record"),
        Patch(DivergenceCollector, "record_many", "collector.record"),
        Patch(DivergenceCollector, "record_at", "collector.record"),
        Patch(DivergenceCollector, "resample", "collector.resample"),
        Patch(DivergenceCollector, "finalize", "collector.finalize"),
        Patch(Simulator, "run_until", "sim.run_until"),
    ]


def _result_with_reads(workload, metric, policy, ctx, read_run) -> RunResult:
    """``build_result`` exactly as ``run_policy_with_reads`` calls it."""
    reads = read_run.collector
    extras = dict(policy.extras())
    extras["replica_reads"] = reads.replica_reads.tolist()
    extras["stale_read_fraction"] = reads.stale_read_fraction()
    if read_run.matches_direct is not None:
        extras["matches_direct_store_read"] = read_run.matches_direct
    return build_result(
        workload, metric, policy, ctx, extras=extras, reads=reads.reads,
        read_divergence=reads.mean_read_divergence(),
        read_divergence_unweighted=reads.mean_unweighted_read_divergence())


def reference_run(bench: BenchWorkload, seed: int) -> list[Outcome]:
    """The workload through the program's own one-call entry points."""
    inputs = bench.generate(seed)
    spec = bench.spec(seed)
    outcomes = []
    while inputs.policies:
        policy = inputs.policies.pop(0)
        if inputs.reads is None:
            result = run_policy(inputs.workload, ValueDeviation(), policy,
                                spec)
        else:
            result = run_policy_with_reads(
                inputs.workload, ValueDeviation(), policy, spec,
                inputs.reads, read_policy=bench.read_policy)[0]
        outcomes.append(observe(policy, result))
        del policy
        gc.collect()
    return outcomes


def phase_split_run(bench: BenchWorkload, seed: int,
                    traced: bool = False) -> Rep:
    """One timed rep; with ``traced`` the layer spans are installed."""
    spec = bench.spec(seed)
    tracer = Tracer() if traced else None
    probe = Probe(spec.warmup) if traced else None
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(installed(tracer, layer_patches(probe)))
            root = tracer.begin()
        rep = _run_phases(bench, seed, spec, tracer)
        if traced:
            tracer.end("tracing.root", root)
    rep.tracer, rep.probe = tracer, probe
    return rep


def _set_up(bench: BenchWorkload, inputs, policy, spec, span):
    """Everything of one policy run before the simulated clock starts."""
    with span("context.build"):
        ctx = make_context(inputs.workload, ValueDeviation(), spec)
    policy.attach(ctx)
    read_run = None
    if inputs.reads is not None:
        read_run = ReadRun(ctx, policy, inputs.reads,
                           read_policy=bench.read_policy)
    return ctx, read_run


def setup_sample(bench: BenchWorkload, seed: int) -> float:
    """The set-up time of one more rep, stopped before the clock starts."""
    clock = time.perf_counter
    spec = bench.spec(seed)
    start = clock()
    inputs = bench.generate(seed)
    setup = clock() - start
    while inputs.policies:
        policy = inputs.policies.pop(0)
        with gc_paused():
            start = clock()
            ctx, read_run = _set_up(bench, inputs, policy, spec,
                                    _no_span)
            setup += clock() - start
        del policy, ctx, read_run
        gc.collect()
    return setup


def _no_span(name: str):
    return contextlib.nullcontext()


def _run_phases(bench: BenchWorkload, seed: int, spec,
                tracer: Tracer | None) -> Rep:
    clock = time.perf_counter
    span = tracer.span if tracer is not None else _no_span
    start = clock()
    with span("workloads.gen"):
        inputs = bench.generate(seed)
    setup = clock() - start
    run = free = 0.0
    outcomes = []
    counts = dict(updates=len(inputs.workload.trace),
                  reads=len(inputs.reads) if inputs.reads is not None else 0,
                  num_sources=inputs.workload.num_sources)
    while inputs.policies:
        policy = inputs.policies.pop(0)
        with gc_paused():
            t0 = clock()
            ctx, read_run = _set_up(bench, inputs, policy, spec, span)
            t1 = clock()
            if spec.resample_interval is not None:
                ctx.collector.schedule_resample(ctx.sim,
                                                spec.resample_interval)
            ctx.sim.run_until(spec.end_time)
            ctx.collector.finalize(spec.end_time)
            with span("runner.build_result"):
                if read_run is None:
                    result = build_result(inputs.workload, ctx.metric,
                                          policy, ctx)
                else:
                    read_run.finalize(spec.end_time)
                    result = _result_with_reads(inputs.workload, ctx.metric,
                                                policy, ctx, read_run)
            t2 = clock()
            outcomes.append(observe(policy, result))
            if tracer is not None:
                gc_span = tracer.begin()
            t3 = clock()
        # The gc pause ends here, as it does when run_policy returns.
        del policy, ctx, read_run
        gc.collect()
        t4 = clock()
        if tracer is not None:
            tracer.end("sim.gc_exit", gc_span)
        setup += t1 - t0
        run += t2 - t1
        free += t4 - t3
    return Rep(setup_s=setup, run_s=run, free_s=free, outcomes=outcomes,
               **counts)


def rep_failures(rep: Rep, reference: list[Outcome],
                 untraced: Rep | None = None) -> list[str]:
    """Every output check of one rep (empty when all hold)."""
    failures = []
    for k, outcome in enumerate(rep.outcomes):
        failures += outcome.failures
        if fingerprint(outcome.result) != fingerprint(reference[k].result):
            failures.append(f"policy run {k}: result differs from "
                            f"run_policy on the same inputs")
        if untraced is not None and (
                fingerprint(outcome.result)
                != fingerprint(untraced.outcomes[k].result)
                or outcome.regime != untraced.outcomes[k].regime):
            failures.append(f"policy run {k}: traced outputs differ from "
                            f"the untraced run")
    return failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def simulated_outcomes(rep: Rep) -> dict[str, tuple[float, str]]:
    """Deterministic outcomes of the workload (identical in every rep)."""
    first = rep.outcomes[0]
    regime = first.regime
    ratio = 0.0
    if len(rep.outcomes) > 1 and rep.outcomes[1].result.weighted_divergence:
        ratio = (first.result.weighted_divergence
                 / rep.outcomes[1].result.weighted_divergence)
    return {
        "divergence": (first.result.weighted_divergence, "value"),
        "divergence_ratio": (ratio, "1"),
        "read_divergence": (first.result.read_divergence, "value"),
        "undelivered_frac": (regime.undelivered_frac, "1"),
    }


def layer_metrics(rep: Rep, overhead_ratio: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced rep."""
    tracer, probe = rep.tracer, rep.probe
    own, calls, incl = tracer.self_time, tracer.calls, tracer.inclusive
    regime = rep.outcomes[0].regime
    batches = calls["context.replay_batch"]
    sends = calls["topology.send_upstream"]
    ages = np.asarray(probe.ages) if probe.ages else np.zeros(1)
    attach_runs = max(1, calls["cooperative.attach"])
    metrics = {
        "workloads.gen_s": (own["workloads.gen"], "s"),
        "workloads.updates": (rep.updates, "count"),
        "workloads.reads": (rep.reads, "count"),
        "context.build_s": (own["context.build"], "s"),
        "cooperative.attach_s": (own["cooperative.attach"], "s"),
        "cooperative.attach_us_per_source": (
            incl["cooperative.attach"] / attach_runs / rep.num_sources
            * 1e6, "us"),
        "cooperative.dispatch_s": (own["cooperative.dispatch"], "s"),
        "topology.build_s": (own["topology.build"], "s"),
        "sim.gc_exit_s": (own["sim.gc_exit"], "s"),
        "context.replay_self_s": (
            own["context.replay"] + own["context.replay_batch"], "s"),
        "context.batches": (batches, "count"),
        "context.updates_per_batch": (
            rep.updates * len(rep.outcomes) / batches if batches else 0.0,
            "1"),
        "source.on_update_s": (own["source.on_update"], "s"),
        "source.on_wake_s": (own["source.on_wake"], "s"),
        "source.on_feedback_s": (own["source.on_feedback"], "s"),
        "source.wakes": (calls["source.on_wake"], "count"),
        "source.refreshes_sent": (regime.source_sends, "count"),
        "source.threshold_mean": (regime.threshold_mean, "priority"),
        "topology.send_upstream_s": (own["topology.send_upstream"], "s"),
        "topology.send_upstream_calls": (sends, "count"),
        "topology.send_accept_ratio": (
            # A source's refresh is the only upstream sender here.
            regime.source_sends / sends if sends else 0.0, "1"),
        "topology.network_tick_s": (own["topology.network_tick"], "s"),
        "topology.network_ticks": (calls["topology.network_tick"], "count"),
        "link.queue_peak": (regime.queue_peak, "count"),
        "link.queue_end": (regime.legs_queued, "count"),
        "link.legs_accepted": (regime.legs_accepted, "count"),
        "link.legs_delivered": (regime.legs_delivered, "count"),
        "delivery.legs_per_send": (
            regime.legs_accepted / regime.source_sends, "1"),
        "delivery.units_per_leg": (
            regime.units / regime.legs_delivered, "1"),
        "cache.on_message_s": (own["cache.on_message"], "s"),
        "cache.refreshes_applied": (regime.refreshes_applied, "count"),
        "cache.stale_discards": (regime.stale_discards, "count"),
        "cache.apply_ratio": (
            regime.refreshes_applied / regime.legs_delivered, "1"),
        "cache.on_tick_s": (own["cache.on_tick"], "s"),
        "cache.feedback_sent": (regime.feedback_sent, "count"),
        "readrun.serve_s": (own["readrun.serve"], "s"),
        "readmodel.read_batch_s": (own["readmodel.read_batch"], "s"),
        "readmodel.reads": (rep.outcomes[0].result.reads, "count"),
        "collector.read_record_s": (own["collector.read_record"], "s"),
        "ideal.attach_s": (own["ideal.attach"], "s"),
        "ideal.run_s": (own["ideal.run"], "s"),
        "collector.record_s": (own["collector.record"], "s"),
        "collector.resample_s": (own["collector.resample"], "s"),
        "collector.finalize_s": (own["collector.finalize"], "s"),
        "sim.run_until_s": (incl["sim.run_until"], "s"),
        "sim.self_s": (own["sim.run_until"], "s"),
        "runner.build_result_s": (own["runner.build_result"], "s"),
        "tracing.wall_s": (incl["tracing.root"], "s"),
        "tracing.unattributed_s": (own["tracing.root"], "s"),
        "tracing.overhead_ratio": (overhead_ratio, "1"),
        "refresh_age_p50_s": (float(np.percentile(ages, 50)), "sim_s"),
        "refresh_age_p99_s": (float(np.percentile(ages, 99)), "sim_s"),
    }
    for name, (value, unit) in simulated_outcomes(rep).items():
        if name != "divergence":
            metrics[name] = (value, unit)
    return metrics


#: Per-layer metrics in seconds that are not span self times.
NOT_SELF_TIMES = ("run_s", "wall_s", "sim.run_until_s", "tracing.wall_s")


def attributed_s(metrics: dict[str, tuple[float, str]]) -> float:
    """The layer self times plus the unattributed remainder; equals
    ``tracing.wall_s`` when every span has its metric."""
    return sum(value for name, (value, unit) in metrics.items()
               if unit == "s" and name not in NOT_SELF_TIMES)


def median_metrics(samples: list[dict[str, tuple[float, str]]]
                   ) -> dict[str, tuple[float, str]]:
    """Per-name median over reps; counts repeat exactly and stay as is."""
    medians = {}
    for name, (first, unit) in samples[0].items():
        values = [sample[name][0] for sample in samples]
        medians[name] = (first if values.count(first) == len(values)
                         else statistics.median(values), unit)
    return medians


#: Set-up samples a session aims for (set-up-only reps fill the gap).
SETUP_SAMPLES = 7


@dataclass
class Session:
    """All reps one benchmark invocation made, and their check results."""

    reference: list[Outcome]
    reps: list[Rep] = field(default_factory=list)
    traced: list[Rep] = field(default_factory=list)
    #: set-up times of every rep and of the set-up-only reps
    setup_samples: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: legs of runs that failed a check
    failed_legs: int = 0

    @property
    def attempted(self) -> int:
        return sum(outcome.legs for rep in self.reps + self.traced
                   for outcome in rep.outcomes) + \
            sum(outcome.legs for outcome in self.reference)

    def check(self, rep: Rep, untraced: Rep | None = None) -> None:
        failures = rep_failures(rep, self.reference, untraced)
        if failures:
            self.failures += failures
            self.failed_legs += sum(o.legs for o in rep.outcomes)


def run_session(bench: BenchWorkload, seed: int, seconds: float,
                trace: bool) -> Session:
    """The reference run, then timed reps for ``seconds``.

    Untraced reps repeat until ``seconds`` have passed; with ``trace``
    they alternate with traced reps, at least one of each.  Set-up-only
    reps then add set-up samples, up to :data:`SETUP_SAMPLES` or an
    eighth of ``seconds``.
    """
    start = time.perf_counter()
    session = Session(reference=reference_run(bench, seed))
    for outcome in session.reference:
        if outcome.failures:
            session.failures += outcome.failures
            session.failed_legs += outcome.legs
    while not session.reps or time.perf_counter() - start < seconds:
        rep = phase_split_run(bench, seed)
        session.check(rep)
        session.reps.append(rep)
        session.setup_samples.append(rep.setup_s)
        if trace:
            traced = phase_split_run(bench, seed, traced=True)
            session.check(traced, untraced=rep)
            session.traced.append(traced)
    extra_start = time.perf_counter()
    while len(session.setup_samples) < SETUP_SAMPLES \
            and time.perf_counter() - extra_start < seconds / 8:
        session.setup_samples.append(setup_sample(bench, seed))
    return session
