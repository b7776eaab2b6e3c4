"""Process-parallel sweep fan-out.

Experiment grids (fig4 cells, E9 scale points, E10 read sweeps,
multicache comparisons) are embarrassingly parallel: every cell is a
pure function of its parameters and a seed.  :class:`ParallelRunner`
maps a module-level cell function over picklable payloads on a
``ProcessPoolExecutor`` and returns results in payload order, so a
parallel sweep is *bit-for-bit identical* to the serial loop -- only
wall clock changes.  Workloads are never pickled (a m = 10^6 trace is
~100 MB of arrays); instead each payload carries a :class:`WorkloadSpec`
and the worker regenerates the trace from the seed, memoizing the most
recent build per process.

A single simulation always runs in one process: the paper's protocol is
a star of one cache and m sources, whose interleaved schedule does not
factor into independent pieces.

Everything a worker touches must be importable by reference: cell
functions live at module level, payloads are frozen dataclasses of
scalars and small numpy-free values.
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.workloads.synthetic import Workload


def default_workers() -> int:
    """Worker count matched to the machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Workload descriptors: regenerate in the worker, never pickle the trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe for a seeded workload.

    ``builder`` is a ``"module:callable"`` reference resolved in the
    worker; the callable receives a fresh ``np.random.default_rng(seed)``
    plus ``kwargs`` and must return a :class:`Workload`.  Two equal specs
    build bit-identical workloads in any process, which is what makes
    parallel sweeps reproducible: the ~1M-event trace arrays are
    regenerated (fast, vectorized) instead of serialized.
    """

    builder: str
    seed: int
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, builder: Callable[..., Workload], seed: int,
             **kwargs: Any) -> "WorkloadSpec":
        return cls(builder=f"{builder.__module__}:{builder.__qualname__}",
                   seed=int(seed),
                   kwargs=tuple(sorted(kwargs.items())))

    def build(self) -> Workload:
        module_name, _, func_name = self.builder.partition(":")
        fn = getattr(importlib.import_module(module_name), func_name)
        rng = np.random.default_rng(self.seed)
        return fn(rng=rng, **dict(self.kwargs))


#: Per-process memo of the most recently built workload.  Consecutive
#: cells in a sweep usually share one workload (several policies/replicas
#: per configuration); keeping exactly one bounds worker memory while
#: still collapsing the common repeat.
_workload_cache: dict[WorkloadSpec, Workload] = {}


def build_workload(spec: WorkloadSpec) -> Workload:
    """Build (or reuse) the workload for ``spec`` in this process."""
    workload = _workload_cache.get(spec)
    if workload is None:
        workload = spec.build()
        _workload_cache.clear()
        _workload_cache[spec] = workload
    return workload


def rng_probe(seed: int) -> tuple[int, list[float]]:
    """Worker-side probe for the seed-handoff tests.

    Returns the worker pid and the first draws of a freshly seeded
    generator: equal seeds must yield equal draws in *any* process
    (workers hand seeds around, never generator state).
    """
    rng = np.random.default_rng(seed)
    return os.getpid(), rng.random(4).tolist()


# ----------------------------------------------------------------------
# Order-preserving process-pool map
# ----------------------------------------------------------------------
class ParallelRunner:
    """Order-preserving map of a cell function over payloads.

    ``workers <= 1`` (the default everywhere) degenerates to a plain
    in-process loop -- the exact pre-existing serial path.  With more
    workers, cells run in a ``ProcessPoolExecutor`` and results come back
    in payload order, so callers merge deterministically regardless of
    completion order.  ``fn`` must be picklable by reference (module
    level) and payloads must be picklable values.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list:
        payloads = list(payloads)
        if self.workers <= 1 or len(payloads) <= 1:
            return [fn(payload) for payload in payloads]
        workers = min(self.workers, len(payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
