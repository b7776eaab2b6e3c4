"""Tests for the process-parallel sweep fan-out.

The property pinned here: a sweep fanned over worker processes is
bit-for-bit identical to the serial loop (fig4 grid, E9 scale sweep,
E10 read sweep, multicache sweep), because every cell regenerates its
workload from a seed instead of receiving pickled state.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.multicache import run_multicache
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
    default_workers,
    rng_probe,
)
from repro.experiments.readmodel import run_readmodel
from repro.experiments.scale import run_scale
from repro.workloads.synthetic import uniform_random_walk


class TestParallelRunner:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)

    def test_serial_path_preserves_order(self):
        assert ParallelRunner(1).map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_pool_preserves_payload_order(self):
        # rng_probe is module-level (picklable); results must come back
        # in payload order regardless of completion order.
        seeds = [7, 3, 11, 5]
        results = ParallelRunner(2).map(rng_probe, seeds)
        serial = [rng_probe(s) for s in seeds]
        assert [draws for _, draws in results] == \
               [draws for _, draws in serial]

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestSeedHandoff:
    def test_workers_receive_seeds_not_generator_state(self):
        # Equal seeds yield equal draws in any process: the pool hands
        # around integers, never shared rng state.  If workers shared a
        # generator, the two probes of seed 13 would disagree.
        results = ParallelRunner(4).map(rng_probe, [13, 13, 29, 13])
        draws = [d for _, d in results]
        assert draws[0] == draws[1] == draws[3]
        assert draws[2] != draws[0]
        assert draws[0] == rng_probe(13)[1]


class TestWorkloadSpec:
    def test_build_is_bit_deterministic(self):
        spec = WorkloadSpec.make(uniform_random_walk, 5, num_sources=4,
                                 objects_per_source=3, horizon=50.0)
        a, b = spec.build(), spec.build()
        assert np.array_equal(a.trace.times, b.trace.times)
        assert np.array_equal(a.trace.values, b.trace.values)
        assert np.array_equal(a.trace.initial_values,
                              b.trace.initial_values)

    def test_memo_returns_same_object_for_equal_specs(self):
        spec = WorkloadSpec.make(uniform_random_walk, 6, num_sources=4,
                                 objects_per_source=2, horizon=50.0)
        assert build_workload(spec) is build_workload(
            WorkloadSpec.make(uniform_random_walk, 6, num_sources=4,
                              objects_per_source=2, horizon=50.0))


class TestSweepDeterminism:
    def test_fig4_parallel_matches_serial(self):
        config = Fig4Config(sources=(1, 4), objects_per_source=(2,),
                            cache_bandwidths=(10.0,),
                            change_rates=(0.0, 0.25),
                            metrics=("deviation",),
                            warmup=20.0, measure=80.0)
        assert run_fig4(config, workers=4) == run_fig4(config)

    def test_readmodel_parallel_matches_serial(self):
        kwargs = dict(num_caches=2, replications=(1, 2),
                      num_sources=6, objects_per_source=2,
                      warmup=50.0, measure=100.0)
        assert run_readmodel(workers=4, **kwargs) == run_readmodel(**kwargs)

    def test_multicache_parallel_matches_serial(self):
        kwargs = dict(num_caches_list=(1, 2), num_sources=8,
                      objects_per_source=4, warmup=50.0, measure=100.0)
        assert (run_multicache(workers=2, **kwargs)
                == run_multicache(**kwargs))

    def test_scale_parallel_matches_serial(self):
        kwargs = dict(sources=(50, 100), warmup=50.0, measure=150.0,
                      replays=("batched", "event"))
        parallel = run_scale(workers=4, **kwargs)
        serial = run_scale(**kwargs)
        strip = lambda p: dataclasses.replace(p, wall_seconds=0.0,
                                              gen_seconds=0.0)
        assert [strip(p) for p in parallel] == [strip(p) for p in serial]
