"""Tests for the E11 network-condition experiment."""

import pytest

from repro.experiments.harness import POLICIES, Point, render, run
from repro.experiments.netcond import (
    NETCOND,
    graceful_degradation,
    outage_degrades,
    run_netcond_scale,
    steady_matches_constant,
)

SMALL = dict(sources=6, objects=3, warmup=30.0, measure=90.0)


@pytest.fixture(scope="module")
def small_matrix():
    return run(NETCOND, scenarios=("steady", "outage"),
               topologies=("star",), **SMALL)


class TestRunNetCond:
    def test_matrix_shape(self, small_matrix):
        assert len(small_matrix) == 2
        cells = {(p.axes["scenario"], p.axes["topology"])
                 for p in small_matrix}
        assert cells == {("steady", "star"), ("outage", "star")}
        for point in small_matrix:
            assert set(POLICIES) <= set(point.arms)
            assert all(point.arms[name]["divergence"] >= 0.0
                       for name in POLICIES)

    def test_steady_cell_carries_constant_control(self, small_matrix):
        by_scenario = {p.axes["scenario"]: p for p in small_matrix}
        assert "cooperative+constant" in by_scenario["steady"].arms
        assert "cooperative+constant" not in by_scenario["outage"].arms

    def test_steady_trace_is_bitwise_control(self, small_matrix):
        assert steady_matches_constant(small_matrix)

    def test_outage_degrades(self, small_matrix):
        assert outage_degrades(small_matrix)

    def test_workers_bit_identical(self):
        serial = run(NETCOND, scenarios=("steady",),
                     topologies=("star", "sharded-4"), workers=1, **SMALL)
        parallel = run(NETCOND, scenarios=("steady",),
                       topologies=("star", "sharded-4"), workers=2,
                       **SMALL)
        assert serial == parallel

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="invalid topology 'ring'"):
            run(NETCOND, topologies=("ring",), **SMALL)

    def test_render(self, small_matrix):
        text = render(NETCOND, small_matrix, title="E11 test")
        assert "E11 test" in text
        assert "steady" in text and "outage" in text
        for name in POLICIES:
            assert name in text
        assert "outage degrades every policy" in text


class TestVerdictHelpers:
    @staticmethod
    def point(scenario, topology="star", coop=1.0, unif=1.0,
              control=None):
        arms = {"cooperative": {"divergence": coop, "refreshes": 10},
                "uniform": {"divergence": unif, "refreshes": 10}}
        if control is not None:
            arms["cooperative+constant"] = {"divergence": control}
        return Point(axes={"scenario": scenario, "topology": topology},
                     arms=arms)

    def test_steady_matches_requires_exact_control(self):
        good = [self.point("steady", coop=0.5, control=0.5)]
        bad = [self.point("steady", coop=0.5, control=0.5 + 1e-12)]
        assert steady_matches_constant(good)
        assert not steady_matches_constant(bad)
        assert not steady_matches_constant([])

    def test_outage_degrades_needs_a_pair(self):
        steady = self.point("steady", coop=0.4, unif=0.5)
        worse = self.point("outage", coop=0.8, unif=1.0)
        better = self.point("outage", coop=0.2, unif=1.0)
        assert outage_degrades([steady, worse])
        assert not outage_degrades([steady, better])
        assert not outage_degrades([steady])  # no outage cell measured

    def test_graceful_degradation_compares_ratios(self):
        steady = self.point("steady", coop=0.4, unif=0.4)
        graceful = self.point("outage", coop=0.6, unif=0.8)
        harsh = self.point("outage", coop=0.9, unif=0.8)
        assert graceful_degradation([steady, graceful])
        assert not graceful_degradation([steady, harsh])
        assert not graceful_degradation([steady])


class TestRunNetCondScale:
    def test_small_scale_pair(self):
        points = run_netcond_scale(num_sources=64, warmup=20.0,
                                   measure=60.0, num_breakpoints=16)
        assert [p.bandwidth for p in points] == ["steady", "diurnal-16"]
        for point in points:
            assert point.scheduling == "event"
            assert point.num_sources == 64
            assert point.wall_seconds > 0.0
        # Both arms replay the identical workload.
        assert points[0].gen_seconds == points[1].gen_seconds
