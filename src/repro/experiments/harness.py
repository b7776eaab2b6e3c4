"""One declarative harness for the policy-comparison experiments (E11-E14).

The paper's evaluation is one idea repeated: run a set of policies over
a grid of conditions and compare divergence.  An :class:`Experiment`
declares that idea once per study:

* **axes** -- the grid, in nesting order (the last axis varies fastest),
  each with the values it may take;
* **params** -- the scalar knobs shared by every cell, with defaults and
  help text (the CLI subcommand is generated from axes + params);
* a module-level **cell function** mapping one picklable :class:`Cell`
  to its arms, ``{arm: {metric: number}}``;
* a **row** function and column headers for the table, optional
  **extras** lines, and named :class:`Verdict`\\ s -- explicit structural
  invariants, each knowing which cells it needs.

:func:`run` validates every axis value before any cell runs, builds the
cells in axis order and maps them through
:class:`~repro.experiments.parallel.ParallelRunner` (bit-identical at
any worker count); :func:`render` prints the table, the extras and one
line per verdict.  A verdict whose cells are absent from a partial
matrix reads ``n/a``; one whose cells are present but whose check finds
nothing to compare is *not* a pass.

:func:`make_policy` is the one policy registry the experiments share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.core.weights import StaticWeights
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.metrics.report import format_table
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cache_driven import CGMPollingPolicy
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.workloads.synthetic import Workload, uniform_random_walk

POLICIES = ("cooperative", "uniform", "competitive", "cgm", "ideal")

#: verdict text when a partial matrix lacks the cells a verdict needs
NOT_APPLICABLE = "n/a (cells not in this matrix)"


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------
def make_policy(name: str, cache_bw, source_bws, num_objects: int,
                **cooperative_kwargs):
    """The five compared policies on the given link profiles.

    ``cooperative_kwargs`` (``rebalance=``, ``feedback_ttl=``, ...) pass
    through to :class:`CooperativePolicy`; the other policies take none.
    """
    if name == "cooperative":
        return CooperativePolicy(cache_bw, source_bws,
                                 priority_fn=AreaPriority(),
                                 **cooperative_kwargs)
    if cooperative_kwargs:
        raise TypeError(f"policy {name!r} takes no options, got "
                        f"{sorted(cooperative_kwargs)}")
    if name == "uniform":
        return UniformAllocationPolicy(cache_bw, source_bws)
    if name == "competitive":
        return CompetitivePolicy(
            cache_bw, source_bws, priority_fn=AreaPriority(),
            source_weights=StaticWeights.uniform(num_objects), psi=0.25)
    if name == "cgm":
        return CGMPollingPolicy(cache_bw, variant="cgm2")
    if name == "ideal":
        return IdealCooperativePolicy(cache_bw, AreaPriority(),
                                      source_bandwidths=source_bws)
    raise ValueError(f"unknown policy {name!r}")


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Param:
    """One scalar knob; ``name`` is also the CLI dest (``--name``)."""

    name: str
    default: Any
    help: str | None = None
    choices: tuple | None = None
    nargs: int | str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def type(self) -> type | None:
        sample = self.default[0] if self.nargs else self.default
        return None if isinstance(sample, str) else type(sample)


@dataclass(frozen=True)
class Axis:
    """One grid dimension.  String axes are closed (``choices``); integer
    axes are open ranges whose ``bounds(params)`` give ``(lo, hi)``
    (``hi`` None = unbounded)."""

    name: str  #: the key in Cell.axes / Point.axes
    flag: str  #: CLI flag; its dest is the run() keyword
    values: tuple  #: default values, in order
    help: str
    choices: tuple | None = None
    bounds: Callable[[dict], tuple[int, int | None]] | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def rule(self, params: dict) -> tuple[Callable[[Any], bool], str]:
        """The admission test for a value, and its description."""
        if self.choices is not None:
            return ((lambda v: v in self.choices),
                    "one of " + ", ".join(map(str, self.choices)))
        lo, hi = self.bounds(params)
        if hi is None:
            return (lambda v: v >= lo), f"an integer >= {lo}"
        return (lambda v: lo <= v <= hi), f"an integer in [{lo}, {hi}]"


@dataclass(frozen=True)
class Cell:
    """One picklable grid cell: its axis values plus every parameter."""

    axes: dict[str, Any]
    params: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.axes[key] if key in self.axes else self.params[key]


@dataclass
class Point:
    """One measured cell: axis values plus ``{arm: {metric: number}}``."""

    axes: dict[str, Any]
    arms: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """A named structural invariant over a matrix of points.

    ``applies`` says whether the cells the check needs are in the
    matrix; ``holds`` is the check itself (and must treat "nothing to
    compare" as a failure, not a pass).
    """

    label: str
    applies: Callable[[list[Point]], bool]
    holds: Callable[[list[Point]], bool]
    bad: str = "WARNING: violated"

    def judge(self, points: list[Point]) -> str:
        if not self.applies(points):
            return NOT_APPLICABLE
        return "yes" if self.holds(points) else self.bad


@dataclass(frozen=True)
class Experiment:
    """A policy-comparison matrix, declared once (see module docs)."""

    name: str  #: the CLI subcommand
    title: str  #: table title
    summary: str  #: CLI help line
    axes: tuple[Axis, ...]
    params: tuple[Param, ...]
    cell: Callable[[Cell], dict[str, dict[str, float]]]  #: module level
    columns: tuple[str, ...]
    row: Callable[[Point], list]
    verdicts: tuple[Verdict, ...]
    extras: Callable[[list[Point]], list[str]] | None = None


def timing(warmup: float = 100.0,
           measure: float = 400.0) -> tuple[Param, ...]:
    """The warm-up/measure/seed knobs every simulation command shares."""
    return (
        Param("warmup", warmup,
              "warm-up seconds discarded from measurement"),
        Param("measure", measure, "measured window length in seconds"),
        Param("seed", 0, "workload random seed"),
    )


#: the trailing knobs of every E11-E14 declaration
COMMON = (
    Param("generator", "vectorized", "workload sampling implementation",
          choices=("vectorized", "legacy")),
    *timing(),
)


# ----------------------------------------------------------------------
# Running and rendering
# ----------------------------------------------------------------------
def run(experiment: Experiment, workers: int = 1,
        **params: Any) -> list[Point]:
    """Run the matrix; keywords are axis dests and parameter names.

    Every axis value is checked before any cell runs; cells are built in
    axis order (last axis fastest) and results come back in that order.
    """
    known = {a.dest for a in experiment.axes} | {
        p.name for p in experiment.params}
    unknown = sorted(set(params) - known)
    if unknown:
        raise TypeError(f"{experiment.name}: unknown parameters {unknown}")
    values = {a.name: tuple(params.pop(a.dest, a.values))
              for a in experiment.axes}
    scalars = {p.name: p.default for p in experiment.params} | params
    for axis in experiment.axes:
        admits, rule = axis.rule(scalars)
        for value in values[axis.name]:
            if not admits(value):
                raise ValueError(f"{experiment.name}: invalid {axis.name} "
                                 f"{value!r}; expected {rule}")
    cells = [Cell(axes=dict(zip(values, combo)), params=scalars)
             for combo in itertools.product(*values.values())]
    arms = ParallelRunner(workers).map(experiment.cell, cells)
    return [Point(axes=dict(c.axes), arms=a) for c, a in zip(cells, arms)]


def render(experiment: Experiment, points: list[Point],
           title: str) -> str:
    """The table, the extra lines, then one line per verdict."""
    table = format_table(experiment.columns,
                         [experiment.row(p) for p in points], title=title)
    extras = experiment.extras(points) if experiment.extras else []
    verdicts = [f"{v.label}: {v.judge(points)}"
                for v in experiment.verdicts]
    return "\n".join([table, *extras, *verdicts])


# ----------------------------------------------------------------------
# Helpers for cell functions and verdicts
# ----------------------------------------------------------------------
def by_cell(points: Sequence[Point], *axes: str) -> dict[tuple, Point]:
    """Points keyed by their values on ``axes``, in that order."""
    return {tuple(p.axes[a] for a in axes): p for p in points}


def axis_values(points: Sequence[Point], axis: str) -> set:
    return {p.axes[axis] for p in points}


def cell_workload(cell: Cell, builder=uniform_random_walk,
                  **kwargs: Any) -> Workload:
    """The cell's seeded workload (memoized per process)."""
    return build_workload(WorkloadSpec.make(
        builder, cell["seed"], num_sources=cell["sources"],
        objects_per_source=cell["objects"],
        horizon=cell["warmup"] + cell["measure"],
        generator=cell["generator"], **kwargs))


def cell_spec(cell: Cell, topology=None, **kwargs: Any) -> RunSpec:
    return RunSpec(warmup=cell["warmup"], measure=cell["measure"],
                   seed=cell["seed"], topology=topology, **kwargs)


def run_arm(cell: Cell, workload: Workload, name: str, spec: RunSpec,
            shape: Callable | None = None, **cooperative_kwargs: Any):
    """One policy on fresh link profiles; returns ``(policy, result)``.

    Links consume their profiles, so every run builds its own.
    ``shape(rate, k)`` builds link ``k``'s profile (0 = the cache link,
    ``1 + j`` = source ``j``); the default is constant bandwidth.
    """
    if shape is None:
        def shape(rate, k):
            return ConstantBandwidth(rate)
    cache_bw = shape(cell["cache_bandwidth"], 0)
    source_bws = [shape(cell["source_bandwidth"], 1 + j)
                  for j in range(cell["sources"])]
    policy = make_policy(name, cache_bw, source_bws, workload.num_objects,
                         **cooperative_kwargs)
    return policy, run_policy(workload, ValueDeviation(), policy, spec)
