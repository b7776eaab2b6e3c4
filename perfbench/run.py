"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4-constrained --seed 0 \\
        --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones from untraced runs;
with ``--trace 1`` they are the per-layer ones from traced runs, after
the untraced run and wall times.  The lines before it list every metric
with its unit, the machine and regime facts, and any output check that
failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def phase_times(session) -> dict[str, tuple[float, str]]:
    """Medians of the untraced reps' host times, per phase."""
    reps = session.reps
    return {
        "setup_s": (statistics.median(session.setup_samples), "s"),
        "run_s": (statistics.median(r.run_s for r in reps), "s"),
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
    }


def end_to_end(session) -> dict[str, tuple[float, str]]:
    """The gated metrics: set-up time, memory and the simulated outcome."""
    from perfbench.measure import simulated_outcomes
    return {
        "setup_s": phase_times(session)["setup_s"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "divergence": simulated_outcomes(session.reps[0])["divergence"],
    }


def per_layer(session) -> dict[str, tuple[float, str]]:
    """The traced reps' layer metrics, after the untraced run and wall
    times (which carry no bound: see README.md)."""
    from perfbench.measure import layer_metrics, median_metrics
    times = phase_times(session)
    overhead = (statistics.median(r.wall_s for r in session.traced)
                / times["wall_s"][0])
    return {"run_s": times["run_s"], "wall_s": times["wall_s"],
            **median_metrics([layer_metrics(rep, overhead)
                              for rep in session.traced])}


def facts(session, args) -> dict:
    import numpy
    regime = session.reps[0].outcomes[0].regime
    return {
        "workload": args.workload, "seed": args.seed, "workers": 1,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "reps": len(session.reps),
        "traced_reps": len(session.traced),
        "legs_sent": regime.legs_accepted,
        "legs_delivered": regime.legs_delivered,
        "legs_queued": regime.legs_queued,
        "queue_peak": regime.queue_peak,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import run_session
    from perfbench.workloads import WORKLOADS
    bench = WORKLOADS.get(args.workload)
    if bench is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    session = run_session(bench, args.seed, args.seconds, bool(args.trace))
    e2e = end_to_end(session)
    layers = per_layer(session) if args.trace else {}
    print(f"# {bench.name}: {bench.why}")
    print("# facts " + json.dumps(facts(session, args)))
    for name, (value, unit) in {**phase_times(session), **e2e,
                                **layers}.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    if layers:
        from perfbench.measure import attributed_s
        print(f"# self times + unattributed = {attributed_s(layers):.6f} s; "
              f"traced wall = {layers['tracing.wall_s'][0]:.6f} s")
    for failure in session.failures:
        print(f"# CHECK FAILED: {failure}")
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed_legs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
