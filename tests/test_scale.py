"""Tests for the E9 scale experiment (shape-preserving tiny sizes)."""

import numpy as np

from repro.experiments.scale import (
    check_equivalence,
    render_scale,
    run_scale,
    sparse_workload,
    speedups,
)


class TestSparseWorkload:
    def test_one_object_per_source_at_fixed_rate(self):
        rng = np.random.default_rng(0)
        workload = sparse_workload(25, 100.0, rng, update_rate=0.01)
        assert workload.num_sources == 25
        assert workload.objects_per_source == 1
        assert np.allclose(workload.rates, 0.01)

    def test_sparse_means_few_updates(self):
        rng = np.random.default_rng(0)
        workload = sparse_workload(50, 200.0, rng, update_rate=0.002)
        # Expected updates: 50 sources * 0.002/s * 200 s = 20 << ticks * m.
        assert len(workload.trace) < 60


class TestRunScale:
    def test_tick_and_event_points_agree(self):
        points = run_scale(sources=(20,), warmup=10.0, measure=60.0)
        assert {p.scheduling for p in points} == {"tick", "event"}
        assert check_equivalence(points)
        assert all(p.wall_seconds > 0 for p in points)

    def test_tick_baseline_skipped_above_cap(self):
        points = run_scale(sources=(30,), warmup=10.0, measure=40.0,
                           max_tick_sources=10)
        assert [p.scheduling for p in points] == ["event"]

    def test_speedups_pairs_by_source_count(self):
        points = run_scale(sources=(15,), warmup=10.0, measure=40.0)
        ratio = speedups(points)
        assert set(ratio) == {15}
        assert ratio[15] > 0

    def test_render_mentions_equivalence(self):
        points = run_scale(sources=(15,), warmup=10.0, measure=40.0)
        text = render_scale(points, "tiny sweep")
        assert "tiny sweep" in text
        assert "bit-for-bit" in text
        # The default m = 15 run drains its queue: no regime warning.
        (point,) = run_scale(sources=(15,), max_tick_sources=0)
        assert (point.refreshes_sent, point.refreshes) == (22, 22)
        assert "E9 regime" not in render_scale([point], "drained")
        # A starved cache link leaves nearly every refresh queued.
        (point,) = run_scale(sources=(2000,), cache_bandwidth=0.5,
                             update_rate=0.01, max_tick_sources=0)
        text = render_scale([point], "backlogged")
        assert ("WARNING: E9 regime: 11514 of 11814 refreshes (97.5%) "
                "sent but never applied") in text
        assert "bit-for-bit" in text


class TestCheckEquivalence:
    def test_detects_divergence(self):
        points = run_scale(sources=(15,), warmup=10.0, measure=40.0)
        points[0].refreshes += 1
        assert not check_equivalence(points)


class TestGenerators:
    def test_points_carry_generation_metadata(self):
        points = run_scale(sources=(15,), warmup=10.0, measure=40.0)
        assert all(p.gen_seconds >= 0 for p in points)
