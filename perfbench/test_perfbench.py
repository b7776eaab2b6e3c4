"""Tests of the benchmark's own code, on shrunken workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, run, workloads
from perfbench.measure import (
    Probe,
    Session,
    layer_patches,
    phase_split_run,
    rep_failures,
    run_session,
)
from perfbench.tracing import Patch, Tracer, installed
from perfbench.workloads import BenchWorkload, Inputs
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import uniform_random_walk

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def small(monkeypatch):
    """The three workloads with their sizes cut down, structure kept."""
    monkeypatch.setattr(workloads, "SPARSE_SOURCES", 300)
    monkeypatch.setattr(workloads, "FIG4_SOURCES", 2)
    monkeypatch.setattr(workloads, "FIG4_OBJECTS", 3)
    monkeypatch.setattr(workloads, "READS_SOURCES", 6)
    monkeypatch.setattr(workloads, "READS_OBJECTS", 2)
    return workloads.WORKLOADS


def backlogged_replicated() -> BenchWorkload:
    """Replication 2 over 4 caches with a cache side too thin to keep up."""
    def generate(seed: int) -> Inputs:
        workload = uniform_random_walk(8, 2, 120.0,
                                       np.random.default_rng(seed))
        policy = CooperativePolicy(
            ConstantBandwidth(2.0), [ConstantBandwidth(1.0)] * 8,
            priority_fn=AreaPriority())
        return Inputs(workload, None, [policy])

    def spec(seed: int) -> RunSpec:
        return RunSpec(warmup=20.0, measure=100.0, seed=seed,
                       topology=TopologyConfig(kind="replicated",
                                               num_caches=4, replication=2))
    return BenchWorkload(name="backlogged-replicated", why="test",
                         generate=generate, spec=spec)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):             # 0 .. 10
        with tracer.span("a"):            # 1 .. 4
            with tracer.span("b"):        # 2 .. 3.5
                pass
        with tracer.span("a"):            # 5 .. 9
            pass
    assert tracer.calls == {"root": 1, "a": 2, "b": 1}
    assert tracer.inclusive == {"root": 10.0, "a": 7.0, "b": 1.5}
    assert tracer.self_time == {"root": 3.0, "a": 5.5, "b": 1.5}
    assert sum(tracer.self_time.values()) == tracer.inclusive["root"]


def test_wrapped_method_is_a_child_span_and_observed():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    seen = []
    double = tracer.wrap("double", lambda x: 2 * x,
                         observe=lambda result, x: seen.append((x, result)))
    with tracer.span("root"):
        assert double(21) == 42
    assert seen == [(21, 42)]
    assert tracer.self_time == {"root": 2.0, "double": 2.0}


def test_span_closes_when_the_body_raises():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise KeyError("x")
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer._children == []


# ----------------------------------------------------------------------
# Class-level installation
# ----------------------------------------------------------------------
def _class_dicts():
    classes = {patch.cls for patch in layer_patches(Probe(0.0))}
    return {cls: dict(cls.__dict__) for cls in classes}


def test_traced_run_restores_class_attributes(small):
    before = _class_dicts()
    rep = phase_split_run(small["replicated-reads"], 0, traced=True)
    assert rep.tracer.calls["cache.on_message"] > 0
    after = _class_dicts()
    for cls, attrs in before.items():
        assert after[cls].keys() == attrs.keys(), cls
        for name, value in attrs.items():
            assert after[cls][name] is value, (cls, name)


def test_inherited_attribute_is_removed_again():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(RuntimeError):
        with installed(Tracer(), [Patch(Child, "f", "child.f")]):
            assert "f" in Child.__dict__
            assert Child().f() == 1
            raise RuntimeError
    assert "f" not in Child.__dict__


# ----------------------------------------------------------------------
# Metric names and coverage
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    for workload in BENCHMARK["workloads"]:
        assert NAME.match(workload["name"]), workload
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(
        workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted(small, name):
    session = run_session(small[name], seed=0, seconds=0.0, trace=True)
    assert session.failures == []
    e2e = run.end_to_end(session)
    layers = run.per_layer(session)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in e2e.items()} == expected
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in layers.items()} == expected
    for value, unit in e2e.values():
        assert value > 0 or unit == "value"  # shrunk runs may not diverge
    assert measure.attributed_s(layers) == pytest.approx(
        layers["tracing.wall_s"][0], rel=1e-9)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_undelivered_frac_comes_from_link_counters():
    session = run_session(backlogged_replicated(), seed=3, seconds=0.0,
                          trace=False)
    assert session.failures == []
    regime = session.reps[0].outcomes[0].regime
    assert regime.legs_queued > 0
    assert 0.0 <= regime.undelivered_frac <= 1.0
    assert regime.undelivered_frac == \
        regime.legs_queued / regime.legs_accepted


def test_checks_flag_a_result_that_differs(small):
    bench = small["fig4-constrained"]
    session = run_session(bench, seed=1, seconds=0.0, trace=False)
    rep = session.reps[0]
    assert rep_failures(rep, session.reference) == []
    other = measure.reference_run(bench, seed=2)
    assert len(rep_failures(rep, other)) == 2  # both policy runs differ
    broken = Session(reference=other)
    broken.check(rep)
    assert broken.failed_legs == rep.outcomes[0].legs > 0


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fig4-constrained"]) != 0
    assert capsys.readouterr().out == ""
