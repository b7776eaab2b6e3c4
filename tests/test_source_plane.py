"""Pins and view semantics of the columnar source plane.

The outcome pins below were captured before the per-source protocol
state moved into :class:`~repro.source.plane.SourcePlane` columns, from
the object-per-source implementation.  Each records, exactly: the
weighted divergence, refreshes applied, feedback messages, the
``mean_threshold`` / ``refreshes_sent`` / ``refreshes_in_flight``
extras, and the ``repr`` of every source's final threshold -- so any
change to the order of the threshold arithmetic, the heap tie-breaks,
the monitor's sampling schedule or the send path shows up as a diff.

Regenerate (only when a change is *meant* to move results) with
``PYTHONPATH=src python tests/test_source_plane.py``.
"""

from __future__ import annotations

import textwrap

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority, SimpleDivergencePriority
from repro.core.threshold import ThresholdController
from repro.core.tracking import PriorityTracker
from repro.core.weights import StaticWeights
from repro.experiments.runner import RunSpec, run_policy
from repro.faults.plan import FaultPlan, LossRule
from repro.faults.retry import RetryPolicy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import FeedbackMessage
from repro.network.topology import StarTopology, TopologyConfig
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.source.monitor import TriggerMonitor
from repro.source.plane import SourcePlane
from repro.source.source import SourceNode
from repro.workloads.synthetic import uniform_random_walk

SOURCES, PER_SOURCE, WARMUP, MEASURE = 12, 3, 40.0, 110.0


def _workload(fluctuating: bool = False):
    return uniform_random_walk(
        num_sources=SOURCES, objects_per_source=PER_SOURCE,
        horizon=WARMUP + MEASURE, rng=np.random.default_rng(7),
        rate_range=(0.0, 1.0), fluctuating_weights=fluctuating)


def _policy(workload, cls=CooperativePolicy, cache=6.0, source=1.5,
            **kwargs):
    return cls(ConstantBandwidth(cache),
               [ConstantBandwidth(source)
                for _ in range(workload.num_sources)],
               priority_fn=AreaPriority(), **kwargs)


def _competitive(workload, **kwargs):
    rng = np.random.default_rng(3)
    weights = StaticWeights(rng.uniform(0.5, 2.0, workload.num_objects))
    return _policy(workload, cls=CompetitivePolicy, source_weights=weights,
                   psi=0.3, option="contribution", **kwargs)


SHARDED = TopologyConfig(kind="sharded", num_caches=2)
REPLICATED = TopologyConfig(kind="replicated", num_caches=3, replication=3,
                            delivery="multicast")
LOSSY = FaultPlan(loss=(LossRule(0.0, WARMUP + MEASURE, 0.01),), seed=5)

#: name -> (policy kwargs, spec kwargs, fluctuating weights, competitive)
CONFIGS = {
    "trigger-event": ({}, {}, False, False),
    "trigger-tick": ({"scheduling": "tick"}, {}, False, False),
    "sampling-event": ({"monitor": "sampling", "sampling_interval": 4.0},
                       {}, False, False),
    "sampling-tick": ({"monitor": "sampling", "sampling_interval": 4.0,
                       "scheduling": "tick"}, {}, False, False),
    "predictive-sampling": ({"monitor": "sampling", "sampling_interval": 6.0,
                             "predictive_sampling": True}, {}, False, False),
    "batch-3": ({"batch_size": 3, "batch_timeout": 4.0}, {}, False, False),
    "batch-3-tick": ({"batch_size": 3, "batch_timeout": 4.0,
                      "scheduling": "tick"}, {}, False, False),
    "feedback-ttl-20": ({"feedback_ttl": 20.0}, {}, False, False),
    "reprioritize": ({"reprioritize_interval": 5.0}, {}, True, False),
    "competitive": ({}, {}, False, True),
    "competitive-tick": ({"scheduling": "tick"}, {}, False, True),
    "sharded-2": ({}, {"topology": SHARDED}, False, False),
    "replicated-3-multicast": ({}, {"topology": REPLICATED}, False, False),
    "replicated-3-multicast-tick": ({"scheduling": "tick"},
                                    {"topology": REPLICATED}, False, False),
    "loss-1pct-retry": ({}, {"faults": LOSSY, "retry": RetryPolicy()},
                        False, False),
    "loss-1pct-retry-ttl-sharded": (
        {"feedback_ttl": 20.0},
        {"faults": LOSSY, "retry": RetryPolicy(), "topology": SHARDED},
        False, False),
}


def outcome(name: str) -> tuple:
    policy_kwargs, spec_kwargs, fluctuating, competitive = CONFIGS[name]
    workload = _workload(fluctuating)
    build = _competitive if competitive else _policy
    policy = build(workload, **policy_kwargs)
    result = run_policy(workload, ValueDeviation(), policy,
                        RunSpec(warmup=WARMUP, measure=MEASURE, seed=0,
                                **spec_kwargs))
    extras = result.extras
    return (result.weighted_divergence, result.refreshes,
            result.feedback_messages, extras["mean_threshold"],
            extras["refreshes_sent"], extras["refreshes_in_flight"],
            repr([source.threshold.value for source in policy.sources]))


PINS = {
    'batch-3': (
        0.46299633622923975, 1262, 160, 4.567522910889806e-12, 496, -766,
        [3.952100135390624e-12, 3.946928658052333e-12,
        3.078427335672218e-12, 3.965856317520059e-12,
        5.615192695081824e-12, 2.04840021458548e-12,
        1.452820732920493e-11, 3.0400265480561493e-12,
        3.876886192853364e-12, 3.6168624138544834e-12,
        3.3935928402973906e-12, 3.747794250108821e-12]),
    'batch-3-tick': (
        0.46299633622923975, 1262, 160, 4.567522910889806e-12, 496, -766,
        [3.952100135390624e-12, 3.946928658052333e-12,
        3.078427335672218e-12, 3.965856317520059e-12,
        5.615192695081824e-12, 2.04840021458548e-12,
        1.452820732920493e-11, 3.0400265480561493e-12,
        3.876886192853364e-12, 3.6168624138544834e-12,
        3.3935928402973906e-12, 3.747794250108821e-12]),
    'competitive': (
        1.5080307914278388, 872, 28, 5.443507745713064, 877, 5,
        [7.454527346797891, 4.301862333569872, 2.045426064783579,
        2.574850648324821, 8.087690454842141, 11.637891634749627,
        8.830400812995496, 1.4678850834422448, 4.708156339001073,
        8.364510564815241, 3.785218427067606, 2.0636732381671727]),
    'competitive-tick': (
        1.5080307914278388, 872, 28, 5.443507745713064, 877, 5,
        [7.454527346797891, 4.301862333569872, 2.045426064783579,
        2.574850648324821, 8.087690454842141, 11.637891634749627,
        8.830400812995496, 1.4678850834422448, 4.708156339001073,
        8.364510564815241, 3.785218427067606, 2.0636732381671727]),
    'feedback-ttl-20': (
        3.1931581200724066, 896, 4, 0.31658786936570676, 1809, 913,
        [0.8053837546325142, 0.07433369754939949, 0.07433369754939952,
        0.026053507516959434, 0.1617717835776211, 1.4485534752074314,
        0.41959434391138356, 0.009270906881783105, 0.016423977066398563,
        0.7433369754939957, 0.003574335935197534, 0.016423977066398563]),
    'loss-1pct-retry': (
        3.1966279530965434, 379, 18, 16.610089715852386, 379, 0,
        [6.329476608389981, 12.7493005898726, 12.516861974613665,
        16.628557125457846, 19.523498119898306, 19.787686109979745,
        3.9477781849680804, 33.4319942086578, 11.766663064188155,
        12.733478342970686, 32.00923835718071, 17.896543904051022]),
    'loss-1pct-retry-ttl-sharded': (
        3.940205715802981, 465, 5, 0.001449096871337931, 1222, 757,
        [0.000633215414369448, 0.00020176194526733962,
        0.001138893581803502, 0.001138893581803502, 0.0012527829399838523,
        0.006965369558063937, 0.001121779732695754, 7.778796406007113e-06,
        0.00043909277783870347, 0.003249396304725031,
        0.00020484002145854796, 0.0010353578016395473]),
    'predictive-sampling': (
        0.8397435584488117, 586, 164, 3.2769133647908706e-12, 586, 0,
        [4.903707252978519e-12, 1.5841278999434412e-12,
        4.10290546116303e-12, 2.147173801698648e-12,
        3.036252591026828e-12, 3.2810132802680393e-12,
        3.0741715886138396e-12, 3.740434344477366e-12,
        6.358420452587577e-12, 2.356614405311498e-12,
        2.3984278240993747e-12, 2.3397114753222874e-12]),
    'replicated-3-multicast': (
        0.6930128619494842, 2170, 36, 3.8527604712321555, 875, 455,
        [1.3652502077808686, 2.5751992486179973, 11.01864816951088,
        2.110081226007341, 7.521645975892542, 1.2878111267845753,
        8.195649135793259, 2.7158180799209433, 0.8330003816182823,
        3.899842554424518, 3.6256607565528, 1.0845187918818613]),
    'replicated-3-multicast-tick': (
        0.6930128619494842, 2170, 36, 3.8527604712321555, 875, 455,
        [1.3652502077808686, 2.5751992486179973, 11.01864816951088,
        2.110081226007341, 7.521645975892542, 1.2878111267845753,
        8.195649135793259, 2.7158180799209433, 0.8330003816182823,
        3.899842554424518, 3.6256607565528, 1.0845187918818613]),
    'reprioritize': (
        0.7606177180514773, 868, 32, 3.9143820382367926, 871, 3,
        [8.908296641728983, 1.355220887130653, 3.460956143814283,
        2.5622722258905437, 2.5304255700463094, 8.866198904566899,
        4.5193117592825445, 2.317097014600369, 2.326170643267875,
        2.8861321566979057, 3.512140704979541, 3.728361806835608]),
    'sampling-event': (
        0.7686566847880925, 794, 106, 1.257936589563661e-06, 802, 8,
        [1.2259692280439224e-06, 8.68721652479388e-07,
        1.0671895716335981e-06, 2.6584442956334795e-06,
        1.1562685194500653e-06, 8.556676046607831e-07,
        7.897469567994436e-07, 8.017953205361366e-07,
        2.5163771862927234e-06, 2.253240236044029e-06,
        4.114477778925099e-07, 4.903707252978517e-07]),
    'sampling-tick': (
        0.7686566847880925, 794, 106, 1.257936589563661e-06, 802, 8,
        [1.2259692280439224e-06, 8.68721652479388e-07,
        1.0671895716335981e-06, 2.6584442956334795e-06,
        1.1562685194500653e-06, 8.556676046607831e-07,
        7.897469567994436e-07, 8.017953205361366e-07,
        2.5163771862927234e-06, 2.253240236044029e-06,
        4.114477778925099e-07, 4.903707252978517e-07]),
    'sharded-2': (
        0.8929648686964884, 867, 33, 5.822848709881523, 870, 3,
        [3.5411074325815894, 3.427590199910555, 3.1491169998177937,
        9.43140363923868, 18.180318436539153, 6.501278103935913,
        1.808059088901104, 1.2650500276812549, 5.276591785677681,
        5.476737460187686, 3.240585298107458, 8.576346045999415]),
    'trigger-event': (
        0.7359420469529167, 865, 35, 2.9658715958355657, 869, 4,
        [4.374073959276857, 3.427590199910555, 2.831384259604172,
        0.8508547875842312, 1.1206010188553, 1.8064965833783573,
        3.626856069174597, 3.046262904455364, 4.4695471466753744,
        2.016319514020834, 3.2532828833596072, 4.767189823731536]),
    'trigger-tick': (
        0.7359420469529167, 865, 35, 2.9658715958355657, 869, 4,
        [4.374073959276857, 3.427590199910555, 2.831384259604172,
        0.8508547875842312, 1.1206010188553, 1.8064965833783573,
        3.626856069174597, 3.046262904455364, 4.4695471466753744,
        2.016319514020834, 3.2532828833596072, 4.767189823731536]),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outcome_pinned(name):
    *scalars, thresholds = PINS[name]
    assert outcome(name) == (*scalars, repr(thresholds))


# ----------------------------------------------------------------------
# Row views read and write their own row only
# ----------------------------------------------------------------------
ROWS, PER = 3, 2


def _plane():
    topology = StarTopology(ConstantBandwidth(100.0),
                            [ConstantBandwidth(10.0)] * ROWS)
    objects = [DataObject(index=i, source_id=i // PER, rate=0.5)
               for i in range(ROWS * PER)]
    plane = SourcePlane(ROWS, topology, PriorityTracker(ROWS), objects, PER)
    plane.monitor = TriggerMonitor(plane.tracker, SimpleDivergencePriority(),
                                   StaticWeights.uniform(ROWS * PER))
    topology.on_network_tick(1.0)
    return plane, objects, [SourceNode.view(plane, j) for j in range(ROWS)]


class TestRowViews:
    def test_update_and_send_touch_one_row(self):
        plane, objects, sources = _plane()
        objects[3].apply_update(1.0, 5.0, ValueDeviation())
        assert sources[1].on_update(objects[3], 1.0) is False
        assert plane.refreshes_sent == [0, 1, 0]
        assert plane.refreshes == [0, 1, 0]
        assert plane.value == [1.0, 1.1, 1.0]
        assert [s.threshold.value for s in sources] == plane.value
        assert list(sources[1].objects) == objects[2:4]

    def test_heaps_are_per_row(self):
        plane, objects, sources = _plane()
        plane.value[:] = [1e9] * ROWS  # hold every refresh back
        for i in (0, 5, 4):
            objects[i].apply_update(1.0, float(i + 1), ValueDeviation())
            sources[i // PER].on_update(objects[i], 1.0)
        assert plane.tracker.peek(0) == (0, 1.0)
        assert plane.tracker.peek(1) is None
        assert plane.tracker.peek(2) == (5, 6.0)
        assert plane.refreshes_sent == [0, 0, 0]

    def test_feedback_touches_one_row(self):
        plane, _, sources = _plane()
        message = FeedbackMessage(source_id=2, cache_id=0)
        sources[2].on_message(message, 2.0)
        assert plane.feedback_received == [0, 0, 1]
        assert plane.feedbacks == [0, 0, 1]
        assert plane.value == [1.0, 1.0, 0.1]
        assert plane.last_feedback == [0.0, 0.0, 2.0]
        assert sources[2].feedback_by_cache == {0: 1}
        assert sources[0].feedback_by_cache == {}

    def test_threshold_view_writes_its_row(self):
        plane, _, sources = _plane()
        view = ThresholdController.view(plane, 0)
        view.value = 7.0
        view.on_refresh(1.0)
        assert plane.value == [7.0 * 1.1, 1.0, 1.0]
        assert plane.refreshes == [1, 0, 0]
        assert sources[0].threshold.value == view.value

    def test_standalone_controller_is_a_one_row_plane(self):
        controller = ThresholdController(initial=4.0, omega=2.0)
        controller.on_feedback(3.0)
        assert controller.plane.value == [2.0]
        assert controller.plane.last_feedback == [3.0]
        assert controller.feedbacks == 1

    def test_standalone_source_shares_its_controller_columns(self):
        topology = StarTopology(ConstantBandwidth(100.0),
                                [ConstantBandwidth(10.0)])
        objects = [DataObject(index=0, source_id=0)]
        controller = ThresholdController(initial=3.0)
        source = SourceNode(
            0, objects,
            TriggerMonitor(PriorityTracker(), SimpleDivergencePriority(),
                           StaticWeights.uniform(1)),
            controller, topology)
        controller.value = 9.0
        assert source.threshold.value == 9.0
        source.threshold.value = 2.0
        assert controller.value == 2.0

    def test_standalone_source_must_own_its_controller_row(self):
        topology = StarTopology(ConstantBandwidth(100.0),
                                [ConstantBandwidth(10.0)] * 2)
        with pytest.raises(ValueError, match="row 0"):
            SourceNode(1, [DataObject(index=0, source_id=1)],
                       TriggerMonitor(PriorityTracker(),
                                      SimpleDivergencePriority(),
                                      StaticWeights.uniform(1)),
                       ThresholdController(), topology)


# ----------------------------------------------------------------------
# Bad options fail in the constructor, before any topology is built
# ----------------------------------------------------------------------
@pytest.mark.parametrize("option, value, message", [
    ("batch_size", 0, "batch_size must be >= 1"),
    ("batch_size", -3, "batch_size must be >= 1"),
    ("batch_timeout", -1.0, "batch_timeout must be > 0"),
    ("monitor", "bogus", "unknown monitor kind"),
    ("sampling_interval", -1.0, "sampling interval must be > 0"),
    ("alpha", 0.5, "alpha must be >= 1"),
    ("omega", 1.0, "omega must be > 1"),
    ("initial_threshold", 0.0, "initial threshold must be > 0"),
    ("feedback_period", 0.0, "feedback period must be > 0"),
    ("feedback_ttl", -5.0, "feedback TTL must be > 0"),
])
def test_bad_option_rejected(option, value, message):
    with pytest.raises(ValueError, match=message):
        CooperativePolicy(ConstantBandwidth(1.0), [ConstantBandwidth(1.0)],
                          priority_fn=AreaPriority(), **{option: value})


# ----------------------------------------------------------------------
# The conservation guard run_policy applies to every fault-free run
# ----------------------------------------------------------------------
def _finished_run():
    workload = _workload()
    policy = _policy(workload)
    run_policy(workload, ValueDeviation(), policy,
               RunSpec(warmup=WARMUP, measure=MEASURE))
    return policy


class TestConservationGuard:
    def test_clean_run_passes(self):
        _finished_run().check_conservation()

    def test_lost_message_names_the_link(self):
        policy = _finished_run()
        policy.topology.cache_links[0].total_delivered -= 1
        with pytest.raises(RuntimeError, match="cache link 0"):
            policy.check_conservation()

    def test_unaccounted_send_detected(self):
        policy = _finished_run()
        policy.plane.refreshes_sent[3] += 1
        with pytest.raises(RuntimeError, match="sends times replicas"):
            policy.check_conservation()

    def test_source_link_counter_names_the_source(self):
        policy = _finished_run()
        policy.topology.source_links.sends[3] += 1
        with pytest.raises(RuntimeError, match="source 3: its source link"):
            policy.check_conservation()


def _format_pin(name: str) -> str:  # pragma: no cover - regeneration
    *scalars, thresholds = outcome(name)
    lines = textwrap.wrap(thresholds, 66, break_long_words=False)
    return (f"    {name!r}: (\n        "
            + ", ".join(repr(v) for v in scalars) + ",\n"
            + "\n".join(" " * 8 + line for line in lines) + "),")


if __name__ == "__main__":  # pragma: no cover - pin regeneration
    print("PINS = {")
    for config in sorted(CONFIGS):
        print(_format_pin(config))
    print("}")
