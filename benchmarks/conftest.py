"""Shared benchmark plumbing.

Every benchmark reproduces one evaluation artifact of the paper (see
DESIGN.md Sec 3).  Experiment bodies are long-running simulations, so each
is executed exactly once via ``benchmark.pedantic(rounds=1)``; the metric
of interest is the experiment's *output* (printed, and archived in
EXPERIMENTS.md), the wall-clock time is incidental.

Scaled-down grids: the paper's largest configurations (m = 1000 sources,
n = 100 objects each, 5000 s measurements) are CPU-days in pure Python.
Benches run shape-preserving reductions; the experiment runners accept the
full paper parameters for anyone with more patience.
"""

from __future__ import annotations

import json

#: Untracked perf-trajectory file: the m = 10^5 scale bench starts it, the
#: other perf benches each merge one named section into it, and CI archives
#: and compares it (the committed ``BENCH_scale.json`` is a deliberate copy).
BENCH_FILE = "BENCH_scale.current.json"


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def write_bench_payload(payload: dict) -> None:
    """Overwrite :data:`BENCH_FILE` with ``payload``."""
    with open(BENCH_FILE, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def write_bench_section(name: str, data: dict) -> None:
    """Store ``data`` as section ``name`` of :data:`BENCH_FILE`, keeping
    every other section (a missing file starts a fresh payload)."""
    try:
        with open(BENCH_FILE) as f:
            payload = json.load(f)
    except FileNotFoundError:
        payload = {"experiment": "E9-extreme"}
    payload[name] = data
    write_bench_payload(payload)
