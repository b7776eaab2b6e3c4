"""Cross-module integration tests: determinism, conservation, recovery."""

import numpy as np
import pytest

from repro.core.divergence import Staleness, ValueDeviation
from repro.core.priority import AreaPriority, PoissonStalenessPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth, TraceBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.base import SimulationContext
from repro.policies.cache_driven import CGMPollingPolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.workloads.synthetic import uniform_random_walk


def workload(seed=0, m=4, n=10, horizon=400.0, **kwargs):
    return uniform_random_walk(num_sources=m, objects_per_source=n,
                               horizon=horizon,
                               rng=np.random.default_rng(seed), **kwargs)


SPEC = RunSpec(warmup=100.0, measure=300.0)


class TestDeterminism:
    def test_cooperative_run_is_reproducible(self):
        results = [
            run_policy(workload(seed=1), Staleness(),
                       CooperativePolicy(
                           ConstantBandwidth(15.0),
                           [ConstantBandwidth(8.0)] * 4,
                           PoissonStalenessPriority()), SPEC)
            for _ in range(2)
        ]
        assert results[0].unweighted_divergence \
            == results[1].unweighted_divergence
        assert results[0].refreshes == results[1].refreshes
        assert results[0].feedback_messages == results[1].feedback_messages

    def test_cgm_run_is_reproducible(self):
        results = [
            run_policy(workload(seed=2), Staleness(),
                       CGMPollingPolicy(ConstantBandwidth(20.0), "cgm2"),
                       SPEC)
            for _ in range(2)
        ]
        assert results[0].unweighted_divergence \
            == results[1].unweighted_divergence
        assert results[0].poll_messages == results[1].poll_messages

    def test_different_seeds_differ(self):
        a = run_policy(workload(seed=3), Staleness(),
                       IdealCooperativePolicy(ConstantBandwidth(10.0),
                                              PoissonStalenessPriority()),
                       SPEC)
        b = run_policy(workload(seed=4), Staleness(),
                       IdealCooperativePolicy(ConstantBandwidth(10.0),
                                              PoissonStalenessPriority()),
                       SPEC)
        assert a.unweighted_divergence != b.unweighted_divergence


class TestConservation:
    def test_no_message_lost_in_cooperative_run(self):
        policy = CooperativePolicy(ConstantBandwidth(8.0),
                                   [ConstantBandwidth(20.0)] * 4,
                                   PoissonStalenessPriority())
        run_policy(workload(seed=5, rate_range=(0.5, 1.0)), Staleness(),
                   policy, SPEC)
        link = policy.topology.cache_link
        assert link.total_sent == link.total_delivered + link.queued
        # Sent refreshes either arrived or are still queued.
        sent = sum(s.refreshes_sent for s in policy.sources)
        assert policy.cache.refreshes_applied + link.queued >= sent \
            - policy.feedback.feedback_sent

    def test_refreshes_sent_match_applied_plus_in_flight(self):
        policy = CooperativePolicy(ConstantBandwidth(10.0),
                                   [ConstantBandwidth(5.0)] * 4,
                                   PoissonStalenessPriority())
        run_policy(workload(seed=6), Staleness(), policy, SPEC)
        sent = sum(s.refreshes_sent for s in policy.sources)
        in_flight = policy.topology.cache_link.queued
        assert sent == policy.cache.refreshes_applied + in_flight

    @pytest.mark.parametrize("topology", [
        None,
        TopologyConfig(kind="sharded", num_caches=2),
        TopologyConfig(kind="replicated", num_caches=4, replication=3),
        TopologyConfig(kind="replicated", num_caches=4, replication=3,
                       delivery="multicast"),
    ], ids=["star", "sharded-2", "replicated-3-unicast",
            "replicated-3-multicast"])
    def test_every_refresh_leg_is_accounted_for(self, topology):
        """Per cache link, sent = delivered + queued; every leg a source
        sent (one per cache of the source) is applied, still queued, or
        discarded as stale behind a fresher replica."""
        policy = CooperativePolicy(ConstantBandwidth(8.0),
                                   [ConstantBandwidth(20.0)] * 4,
                                   PoissonStalenessPriority())
        result = run_policy(
            workload(seed=5, rate_range=(0.5, 1.0)), Staleness(), policy,
            RunSpec(warmup=100.0, measure=300.0, topology=topology))
        links = policy.topology.cache_links
        for link in links:
            assert link.total_sent == link.total_delivered + link.queued
        in_flight = result.extras["refreshes_in_flight"]
        assert in_flight >= 0
        assert in_flight == (sum(link.queued for link in links)
                             + sum(c.stale_discards for c in policy.caches))

    def test_divergence_always_nonnegative(self):
        ctx = SimulationContext(workload(seed=7), ValueDeviation(),
                                warmup=50.0)
        policy = CooperativePolicy(ConstantBandwidth(10.0),
                                   [ConstantBandwidth(5.0)] * 4,
                                   AreaPriority())
        policy.attach(ctx)
        violations = []
        ctx.add_update_hook(
            lambda obj, now: violations.append(obj.index)
            if obj.truth.divergence < 0 or obj.belief.divergence < 0
            else None)
        ctx.run(300.0)
        assert violations == []


class TestOutageRecovery:
    def test_protocol_survives_total_outage(self):
        """Failure injection: the cache link dies for 60 s mid-run.  The
        gamma back-off must keep the queue bounded and the system must
        return to low divergence after the outage."""
        horizon = 600.0
        w = workload(seed=8, horizon=horizon, rate_range=(0.1, 0.5))
        profile = TraceBandwidth(times=[0.0, 200.0, 260.0],
                                 rates=[25.0, 0.0, 25.0])
        ctx = SimulationContext(w, Staleness(), warmup=50.0)
        policy = CooperativePolicy(profile,
                                   [ConstantBandwidth(10.0)] * 4,
                                   PoissonStalenessPriority())
        policy.attach(ctx)
        # Sample system state at three checkpoints.
        ctx.run(199.0)
        before = float(np.mean([o.truth.divergence for o in ctx.objects]))
        ctx.run(259.0)
        during = float(np.mean([o.truth.divergence for o in ctx.objects]))
        ctx.run(horizon)
        after = float(np.mean([o.truth.divergence for o in ctx.objects]))
        assert during > before  # outage hurts
        assert after < during  # ...and the system recovers
        assert policy.topology.cache_link.queued < 200

    def test_thresholds_rise_during_outage_and_recover(self):
        w = workload(seed=9, horizon=500.0)
        profile = TraceBandwidth(times=[0.0, 150.0, 200.0],
                                 rates=[20.0, 0.0, 20.0])
        ctx = SimulationContext(w, Staleness(), warmup=0.0)
        policy = CooperativePolicy(profile,
                                   [ConstantBandwidth(10.0)] * 4,
                                   PoissonStalenessPriority())
        policy.attach(ctx)
        ctx.run(150.0)
        normal = np.mean([s.threshold.value for s in policy.sources])
        ctx.run(200.0)
        starved = np.mean([s.threshold.value for s in policy.sources])
        ctx.run(500.0)
        recovered = np.mean([s.threshold.value for s in policy.sources])
        assert starved > normal  # gamma back-off raised thresholds
        assert recovered < starved  # feedback brought them back down


class TestCollectorAgainstOracle:
    def test_event_driven_collector_matches_dense_sampling(self):
        """Run a full cooperative simulation twice: once measured by the
        event-driven collector, once by brute-force dense sampling of the
        objects' truth divergence."""
        w = workload(seed=10, m=2, n=5, horizon=200.0)
        ctx = SimulationContext(w, Staleness(), warmup=50.0)
        policy = CooperativePolicy(ConstantBandwidth(3.0),
                                   [ConstantBandwidth(2.0)] * 2,
                                   PoissonStalenessPriority())
        policy.attach(ctx)
        samples = []

        def sample(now):
            if now > 50.0:
                samples.append(
                    sum(o.truth.divergence for o in ctx.objects))

        from repro.sim.events import Phase
        ctx.sim.every(0.25, sample, phase=Phase.METRICS)
        ctx.run(200.0)
        dense = np.mean(samples) / w.num_objects
        collected = ctx.collector.mean_unweighted_average()
        assert collected == pytest.approx(dense, rel=0.05)


class TestMixedPolicies:
    def test_sampling_monitor_with_batching(self):
        """Feature interaction: sampling monitors + batched sends."""
        policy = CooperativePolicy(
            ConstantBandwidth(10.0), [ConstantBandwidth(5.0)] * 4,
            AreaPriority(), monitor="sampling", sampling_interval=4.0,
            batch_size=3, batch_timeout=4.0)
        result = run_policy(workload(seed=11), ValueDeviation(), policy,
                            SPEC)
        assert result.refreshes > 0
        assert result.unweighted_divergence < 10.0

    def test_fluctuating_everything(self):
        """Sine bandwidth + sine weights + reprioritization together."""
        from repro.network.bandwidth import SineBandwidth
        w = workload(seed=12, fluctuating_weights=True)
        policy = CooperativePolicy(
            SineBandwidth(15.0, 0.25),
            [SineBandwidth(8.0, 0.25, phase=float(j)) for j in range(4)],
            AreaPriority(), reprioritize_interval=10.0)
        result = run_policy(w, ValueDeviation(), policy,
                            RunSpec(warmup=100.0, measure=300.0,
                                    resample_interval=5.0))
        assert result.refreshes > 0
        assert np.isfinite(result.weighted_divergence)
