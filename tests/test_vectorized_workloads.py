"""Tests for the batched workload pipeline.

Three layers of guarantees:

* **unit**: the batched samplers produce object-major, per-object-sorted
  event streams with the right marginal distributions, and the segmented
  random-walk cumsum is a genuine +-step walk per object;
* **snapshot**: seed-pinned regressions of the samplers, so their rng
  consumption order cannot drift silently;
* **outcome pins**: exact fig4 / fig5 / multicache numbers, so no change
  to the simulator can move a seeded experiment result unnoticed.
"""

import numpy as np
import pytest

from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.multicache import run_multicache
from repro.workloads.random_walk import random_walk_values_batch
from repro.workloads.synthetic import skewed_validation, uniform_random_walk
from repro.workloads.hotspot import hotspot_shards
from repro.workloads.update_process import (
    bernoulli_tick_times_batch,
    poisson_times_batch,
)


class TestPoissonBatch:
    def test_object_major_and_sorted_within_object(self):
        rng = np.random.default_rng(0)
        rates = np.array([0.5, 2.0, 0.0, 1.0])
        times, owners = poisson_times_batch(rates, 50.0, rng)
        assert (np.diff(owners) >= 0).all()
        for i in range(len(rates)):
            own = times[owners == i]
            assert (np.diff(own) >= 0).all()
            assert ((own >= 0.0) & (own < 50.0)).all()
        assert (owners != 2).all()  # rate-0 object never fires

    def test_counts_match_poisson_moments(self):
        """Mean and variance of per-object counts ~ lambda * horizon."""
        rng = np.random.default_rng(1)
        rate, horizon, m = 0.4, 25.0, 4000
        _, owners = poisson_times_batch(np.full(m, rate), horizon, rng)
        counts = np.bincount(owners, minlength=m)
        expected = rate * horizon  # Poisson: mean == variance
        assert counts.mean() == pytest.approx(expected, rel=0.05)
        assert counts.var() == pytest.approx(expected, rel=0.1)

    def test_empty_inputs(self):
        rng = np.random.default_rng(0)
        times, owners = poisson_times_batch(np.empty(0), 10.0, rng)
        assert len(times) == 0 and len(owners) == 0
        times, owners = poisson_times_batch(np.ones(3), 0.0, rng)
        assert len(times) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_times_batch(np.array([-0.1]), 10.0,
                                np.random.default_rng(0))


class TestBernoulliBatch:
    def test_ticks_and_certain_updates(self):
        rng = np.random.default_rng(0)
        probs = np.array([1.0, 0.0, 0.5])
        times, owners = bernoulli_tick_times_batch(probs, 10.0, rng)
        certain = times[owners == 0]
        assert np.array_equal(certain, np.arange(1.0, 11.0))
        assert (owners != 1).all()

    def test_counts_match_binomial_moments(self):
        rng = np.random.default_rng(2)
        prob, ticks, m = 0.3, 40, 3000
        _, owners = bernoulli_tick_times_batch(np.full(m, prob),
                                               float(ticks), rng)
        counts = np.bincount(owners, minlength=m)
        assert counts.mean() == pytest.approx(ticks * prob, rel=0.05)
        assert counts.var() == pytest.approx(ticks * prob * (1 - prob),
                                             rel=0.1)

    def test_chunking_preserves_owner_order(self):
        """Tiny chunks must still yield one contiguous object-major
        stream with correct owner offsets."""
        rng = np.random.default_rng(3)
        probs = np.full(10, 0.8)
        times, owners = bernoulli_tick_times_batch(
            probs, 5.0, rng, max_draws_per_chunk=7)
        assert (np.diff(owners) >= 0).all()
        assert set(np.unique(owners)) <= set(range(10))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_tick_times_batch(np.array([1.5]), 10.0,
                                       np.random.default_rng(0))


class TestRandomWalkBatch:
    def test_each_segment_is_a_walk_from_its_initial(self):
        rng = np.random.default_rng(4)
        counts = np.array([3, 0, 5, 1])
        initials = np.array([0.0, 2.0, -1.0, 10.0])
        values = random_walk_values_batch(counts, rng, initials, step=1.0)
        assert len(values) == counts.sum()
        offset = 0
        for count, initial in zip(counts, initials):
            segment = values[offset:offset + count]
            steps = np.diff(np.concatenate(([initial], segment)))
            assert set(np.abs(steps)) <= {1.0}
            offset += count

    def test_matches_per_object_walk_given_same_steps(self):
        """The segmented cumsum is algebraically the per-object walk."""
        rng = np.random.default_rng(5)
        counts = np.array([4, 2])
        batch = random_walk_values_batch(counts, rng,
                                         np.zeros(2), step=1.0)
        rng = np.random.default_rng(5)
        flat_steps = rng.choice((-1.0, 1.0), size=6)
        expected = np.concatenate([np.cumsum(flat_steps[:4]),
                                   np.cumsum(flat_steps[4:])])
        assert np.array_equal(batch, expected)

    def test_empty(self):
        out = random_walk_values_batch(np.zeros(3, dtype=int),
                                       np.random.default_rng(0),
                                       np.zeros(3))
        assert len(out) == 0


class TestVectorizedSnapshots:
    """Seed-pinned regressions: the vectorized rng consumption order."""

    def test_uniform_poisson_snapshot(self):
        rng = np.random.default_rng(42)
        trace = uniform_random_walk(3, 2, 30.0, rng).trace
        assert len(trace) == 103
        np.testing.assert_allclose(
            trace.times[:4],
            [0.22086809, 0.68136219, 0.92453504, 1.31411297], atol=1e-8)
        assert trace.object_indices[:8].tolist() == [1, 3, 2, 0, 2, 3, 3, 5]
        assert trace.values[:8].tolist() == [-1., 1., -1., 1., -2., 2.,
                                             1., -1.]
        assert float(trace.values.sum()) == -117.0
        assert float(trace.times.sum()) == pytest.approx(
            1507.028092812025, abs=1e-6)

    def test_uniform_bernoulli_snapshot(self):
        rng = np.random.default_rng(7)
        trace = uniform_random_walk(2, 3, 20.0, rng,
                                    arrivals="bernoulli").trace
        assert len(trace) == 80
        assert trace.object_indices[:6].tolist() == [0, 1, 2, 5, 2, 3]
        assert trace.values[:6].tolist() == [-1., -1., 1., 1., 2., 1.]
        assert float(trace.values.sum()) == -60.0
        assert float(trace.times.sum()) == 863.0

    def test_trace_invariants(self):
        """Vectorized traces obey every UpdateTrace invariant: sorted
        times, object-index tie-break, per-object +-1 walk values."""
        rng = np.random.default_rng(11)
        workload = uniform_random_walk(4, 3, 60.0, rng)
        trace = workload.trace
        assert (np.diff(trace.times) >= 0).all()
        same_time = np.diff(trace.times) == 0
        assert (np.diff(trace.object_indices)[same_time] > 0).all()
        for i in range(workload.num_objects):
            values = trace.values[trace.object_indices == i]
            steps = np.diff(np.concatenate(([0.0], values)))
            assert set(np.abs(steps)) <= {1.0}

    def test_skewed_and_hotspot_builders(self):
        skewed = skewed_validation(50.0, np.random.default_rng(8))
        assert len(skewed.trace) > 0
        # Fast half updates every second: ~50 updates per fast object.
        counts = skewed.trace.updates_per_object()
        assert counts.max() == 50
        hot = hotspot_shards(8, 2, 50.0, np.random.default_rng(8))
        assert len(hot.trace) > 0
        assert hot.num_objects == 16

    def test_owner_array_matches_source_of(self):
        rng = np.random.default_rng(0)
        workload = uniform_random_walk(3, 4, 10.0, rng)
        assert workload.owner.tolist() == [0, 0, 0, 0, 1, 1, 1, 1,
                                           2, 2, 2, 2]
        assert all(workload.source_of(i) == i // 4 for i in range(12))


class TestOutcomePins:
    """Seeded experiment outcomes, pinned exactly.

    The fig5 constants were captured before the batched samplers and the
    batched message fast path landed (fig5's buoy trace is generated by
    its own epoch-vectorized code).  The fig4 and multicache constants
    were captured on the batched samplers, just before the per-object
    sampling path was deleted; together they lock every simulated
    outcome of the three experiments against drift.
    """

    FIG4_PINS = [
        ("deviation", 0.0, 0.5147302464542121, 1.0355687286585165),
        ("lag", 0.0, 0.7836545675879729, 2.203696188157975),
        ("deviation", 0.25, 0.7510256547599358, 1.3325658245288594),
        ("lag", 0.25, 1.2880814123637274, 4.1624851233644184),
    ]

    FIG5_PINS = [
        (0.46512457251244144, 1.7599901298427578),
        (0.08765861788514694, 0.10727435854561122),
    ]

    MULTICACHE_PINS = [
        (0.5761087442800995, 0.7334185839760353, 2292, 2400),
        (0.6695494300542557, 0.7334185839760353, 2293, 2400),
    ]

    def test_fig4_pinned(self):
        config = Fig4Config(sources=(3,), objects_per_source=(4,),
                            source_bandwidths=(1.0,),
                            cache_bandwidths=(2.0,),
                            change_rates=(0.0, 0.25),
                            metrics=("deviation", "lag"),
                            warmup=20.0, measure=80.0, seed=0)
        points = run_fig4(config)
        got = [(p.metric, p.change_rate, p.ideal_divergence,
                p.actual_divergence) for p in points]
        assert got == self.FIG4_PINS

    def test_fig5_pinned(self):
        points = run_fig5(bandwidths=(2.0, 10.0), days=0.5,
                          warmup_days=0.1, seed=0)
        got = [(p.ideal_divergence, p.actual_divergence) for p in points]
        assert got == self.FIG5_PINS

    def test_multicache_pinned(self):
        points = run_multicache(num_caches_list=(1, 2), num_sources=8,
                                objects_per_source=4,
                                cache_bandwidth=12.0,
                                source_bandwidth=2.0,
                                warmup=50.0, measure=150.0, seed=0)
        got = [(p.cooperative_divergence, p.uniform_divergence,
                p.cooperative_refreshes, p.uniform_refreshes)
               for p in points]
        assert got == self.MULTICACHE_PINS
