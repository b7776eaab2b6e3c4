"""Tests for update-arrival processes.

Each case draws a single object's stream from the batched samplers, so
the per-process properties (range, rate, gap law, tick spacing) are
checked on exactly the code every workload builder runs.
"""

import numpy as np
import pytest

from repro.workloads.update_process import (
    bernoulli_tick_times_batch,
    poisson_times_batch,
)


def one_poisson_stream(rate, horizon, rng):
    """One object's Poisson event times."""
    times, owners = poisson_times_batch(np.array([rate]), horizon, rng)
    assert (owners == 0).all()
    return times


def one_tick_stream(prob, horizon, rng, dt=1.0):
    """One object's Bernoulli-per-tick event times."""
    times, owners = bernoulli_tick_times_batch(np.array([prob]), horizon,
                                               rng, dt=dt)
    assert (owners == 0).all()
    return times


class TestPoissonTimes:
    def test_empty_for_zero_rate(self):
        rng = np.random.default_rng(0)
        assert len(one_poisson_stream(0.0, 100.0, rng)) == 0

    def test_empty_for_zero_horizon(self):
        rng = np.random.default_rng(0)
        assert len(one_poisson_stream(1.0, 0.0, rng)) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            one_poisson_stream(-1.0, 10.0, np.random.default_rng(0))

    def test_times_sorted_and_in_range(self):
        rng = np.random.default_rng(1)
        times = one_poisson_stream(0.5, 1000.0, rng)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0.0 and times.max() < 1000.0

    def test_count_matches_rate(self):
        rng = np.random.default_rng(2)
        times = one_poisson_stream(0.5, 20_000.0, rng)
        assert len(times) == pytest.approx(10_000, rel=0.05)

    def test_interarrivals_exponential(self):
        """Mean and CV of interarrival gaps must match Exp(lambda)."""
        rng = np.random.default_rng(3)
        rate = 2.0
        gaps = np.diff(one_poisson_stream(rate, 50_000.0, rng))
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.05)


class TestBernoulliTickTimes:
    def test_prob_one_updates_every_tick(self):
        rng = np.random.default_rng(0)
        times = one_tick_stream(1.0, 10.0, rng)
        np.testing.assert_allclose(times, np.arange(1.0, 11.0))

    def test_prob_zero_never_updates(self):
        rng = np.random.default_rng(0)
        assert len(one_tick_stream(0.0, 100.0, rng)) == 0

    def test_times_are_tick_aligned(self):
        rng = np.random.default_rng(1)
        times = one_tick_stream(0.5, 100.0, rng)
        np.testing.assert_allclose(times, np.round(times))

    def test_frequency_matches_probability(self):
        rng = np.random.default_rng(2)
        times = one_tick_stream(0.3, 50_000.0, rng)
        assert len(times) == pytest.approx(15_000, rel=0.05)

    def test_invalid_probability_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            one_tick_stream(1.5, 10.0, rng)

    def test_custom_dt(self):
        rng = np.random.default_rng(0)
        times = one_tick_stream(1.0, 10.0, rng, dt=2.5)
        np.testing.assert_allclose(times, [2.5, 5.0, 7.5, 10.0])
