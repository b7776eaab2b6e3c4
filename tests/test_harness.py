"""The shared experiment harness: declarations, validation, verdicts."""

from dataclasses import replace

import pytest

from repro.experiments.faults import FAULTS
from repro.experiments.harness import (
    NOT_APPLICABLE,
    POLICIES,
    Point,
    Verdict,
    make_policy,
    run,
)
from repro.experiments.multicast import MULTICAST
from repro.experiments.netcond import NETCOND
from repro.experiments.rebalance import REBALANCE
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cooperative import CooperativePolicy


def _no_cell(cell):
    raise AssertionError("a cell ran before its axes were validated")


class TestAxisValidation:
    @pytest.mark.parametrize("experiment,kwargs,message", [
        (NETCOND, {"scenarios": ("steady", "foggy")},
         "netcond: invalid scenario 'foggy'; expected one of steady, "
         "diurnal, bursty, outage"),
        (NETCOND, {"topologies": ("ring",)},
         "netcond: invalid topology 'ring'; expected one of star, "
         "sharded-4"),
        (FAULTS, {"scenarios": ("packet-gnomes",)},
         "faults: invalid scenario 'packet-gnomes'; expected one of "
         "none, lossy-1, lossy-10, crash-restart, feedback-blackout"),
        (REBALANCE, {"num_caches": (1, 0)},
         "rebalance: invalid num_caches 0; expected an integer >= 1"),
        (MULTICAST, {"deliveries": ("broadcast",)},
         "multicast: invalid delivery 'broadcast'; expected one of "
         "unicast, multicast"),
        (MULTICAST, {"replications": (2,), "num_caches": 1},
         "multicast: invalid replication 2; expected an integer in "
         "[1, 1]"),
    ], ids=["netcond-scenario", "netcond-topology", "faults-scenario",
            "rebalance-caches", "multicast-delivery",
            "multicast-replication"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejected_before_any_cell(self, experiment, kwargs, message,
                                      workers):
        guarded = replace(experiment, cell=_no_cell)
        with pytest.raises(ValueError) as excinfo:
            run(guarded, workers=workers, **kwargs)
        assert str(excinfo.value) == message

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="num_sources"):
            run(NETCOND, num_sources=4)


class TestVerdict:
    def test_judge(self):
        points = [Point(axes={"x": 1})]
        always = Verdict("v", lambda p: True, lambda p: True)
        assert always.judge(points) == "yes"
        failing = Verdict("v", lambda p: True, lambda p: False,
                          bad="WARNING: diverged")
        assert failing.judge(points) == "WARNING: diverged"
        absent = Verdict("v", lambda p: False, lambda p: False)
        assert absent.judge(points) == NOT_APPLICABLE


class TestPolicyRegistry:
    @pytest.mark.parametrize("name", POLICIES)
    def test_builds_every_policy(self, name):
        policy = make_policy(name, ConstantBandwidth(4.0),
                             [ConstantBandwidth(1.0)] * 2, 4)
        assert policy is not None

    def test_cooperative_options_pass_through(self):
        policy = make_policy("cooperative", ConstantBandwidth(4.0),
                             [ConstantBandwidth(1.0)] * 2, 4,
                             feedback_ttl=40.0)
        assert isinstance(policy, CooperativePolicy)

    def test_options_rejected_for_other_policies(self):
        with pytest.raises(TypeError, match="uniform"):
            make_policy("uniform", ConstantBandwidth(4.0),
                        [ConstantBandwidth(1.0)] * 2, 4,
                        feedback_ttl=40.0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle", ConstantBandwidth(4.0), [], 0)
