"""Command-line interface for running the paper's experiments.

Usage (installed package)::

    python -m repro e1                    # Sec 4.3 uniform validation
    python -m repro e2                    # Sec 4.3 skewed validation
    python -m repro e3 --alphas 1.1 1.2   # Sec 6.1 parameter study
    python -m repro fig4 --measure 600
    python -m repro fig5 --fluctuating
    python -m repro fig6 --sources 10 --fractions 0.1 0.5 0.9
    python -m repro multicache --num-caches 1 2 4 --topology sharded
    python -m repro netcond --scenarios steady outage
    python -m repro faults --scenarios lossy-10 crash-restart
    python -m repro rebalance --num-caches 1 2 4
    python -m repro multicast --replications 1 2 4
    python -m repro readmodel --replication 3 --read-rate 0.5
    python -m repro quickstart            # the README comparison
    python -m repro profile scale --sources 100000   # cProfile any command

Every subcommand prints the same rows/series the corresponding figure in
the paper plots; ``--output FILE`` additionally archives the text.

``profile`` wraps any other subcommand in cProfile and appends a top-N
cumulative-time report -- the measurement loop behind every hot-path
optimization in this repo (see DESIGN.md Sec 8 for how to read it).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Sequence

from repro.experiments.faults import FAULTS
from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.harness import Experiment, Param, render, run, timing
from repro.experiments.multicache import render_multicache, run_multicache
from repro.experiments.multicast import MULTICAST
from repro.experiments.netcond import NETCOND
from repro.experiments.params import best_cell, run_parameter_grid
from repro.experiments.rebalance import REBALANCE
from repro.experiments.readmodel import render_readmodel, run_readmodel
from repro.experiments.scale import render_scale, run_scale
from repro.experiments.tables import (
    render_fig4,
    render_fig5,
    render_fig6,
    render_parameter_grid,
    render_validation,
)
from repro.experiments.validation import (
    run_skewed_validation,
    run_uniform_validation,
)
from repro.network.delivery import DELIVERY_MODES


def _add_param(parser: argparse.ArgumentParser, param: Param) -> None:
    default = list(param.default) if param.nargs else param.default
    parser.add_argument(param.flag, type=param.type, nargs=param.nargs,
                        choices=param.choices and list(param.choices),
                        default=default, help=param.help)


def _add_timing(parser: argparse.ArgumentParser, warmup: float,
                measure: float) -> None:
    for param in timing(warmup, measure):
        _add_param(parser, param)


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep (1 = the "
                             "serial in-process path; results are "
                             "bit-identical at any worker count)")


def _cmd_e1(args: argparse.Namespace) -> str:
    rows = run_uniform_validation(num_objects=args.objects, seed=args.seed,
                                  warmup=args.warmup, measure=args.measure)
    return render_validation(
        rows, "E1 (Sec 4.3, uniform): paper claims < 10% difference")


def _cmd_e2(args: argparse.Namespace) -> str:
    rows = run_skewed_validation(seed=args.seed, warmup=args.warmup,
                                 measure=args.measure)
    return render_validation(
        rows, "E2 (Sec 4.3, skewed): paper claims +64%/+74%/+84%")


def _cmd_e3(args: argparse.Namespace) -> str:
    cells = run_parameter_grid(alphas=tuple(args.alphas),
                               omegas=tuple(args.omegas),
                               num_sources=args.sources,
                               objects_per_source=args.objects,
                               warmup=args.warmup, measure=args.measure,
                               seed=args.seed)
    best = best_cell(cells)
    return (render_parameter_grid(cells)
            + f"\nbest setting: alpha={best.alpha}, omega={best.omega} "
              f"(paper: alpha=1.1, omega=10)")


def _cmd_fig4(args: argparse.Namespace) -> str:
    config = Fig4Config(sources=tuple(args.sources),
                        objects_per_source=tuple(args.objects),
                        cache_bandwidths=tuple(args.cache_bandwidths),
                        warmup=args.warmup, measure=args.measure,
                        seed=args.seed)
    return render_fig4(run_fig4(config, workers=args.workers))


def _cmd_fig5(args: argparse.Namespace) -> str:
    points = run_fig5(bandwidths=tuple(args.bandwidths),
                      fluctuating=args.fluctuating, days=args.days,
                      warmup_days=args.warmup_days, seed=args.seed,
                      trace_csv=args.trace_csv)
    label = "fluctuating" if args.fluctuating else "fixed"
    return render_fig5(points, f"Figure 5 ({label} bandwidth, msgs/min)")


def _cmd_fig6(args: argparse.Namespace) -> str:
    points = run_fig6(num_sources=args.sources,
                      objects_per_source=args.objects,
                      fractions=tuple(args.fractions), seed=args.seed,
                      warmup=args.warmup, measure=args.measure)
    return render_fig6(points, f"Figure 6, m = {args.sources} sources")


def _parse_rates(text: str) -> tuple[float, ...]:
    """Parse a comma-separated rate list (``"8,4,2"``)."""
    try:
        rates = tuple(float(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from exc
    if not rates:
        raise argparse.ArgumentTypeError("expected at least one rate")
    return rates


def _cmd_multicache(args: argparse.Namespace) -> str:
    points = run_multicache(num_caches_list=tuple(args.num_caches),
                            kind=args.topology,
                            replication=args.replication,
                            num_sources=args.sources,
                            objects_per_source=args.objects,
                            cache_bandwidth=args.cache_bandwidth,
                            source_bandwidth=args.source_bandwidth,
                            hot_fraction=args.hot_fraction,
                            hot_boost=args.hot_boost,
                            warmup=args.warmup, measure=args.measure,
                            seed=args.seed,
                            cache_rates=args.cache_rates,
                            delivery=args.delivery,
                            workers=args.workers)
    label = (f"heterogeneous cache rates {args.cache_rates}"
             if args.cache_rates else args.topology)
    return render_multicache(
        points, f"Multi-cache sweep ({label}): cooperative vs "
                "uniform allocation, hot-shard workload")


def _cmd_experiment(experiment: Experiment,
                    args: argparse.Namespace) -> str:
    kwargs = {axis.dest: tuple(getattr(args, axis.dest))
              for axis in experiment.axes}
    kwargs.update((param.name, getattr(args, param.name))
                  for param in experiment.params)
    points = run(experiment, workers=args.workers, **kwargs)
    return render(experiment, points, experiment.title)


def _add_experiment(sub, experiment: Experiment) -> None:
    """The subcommand generated from an experiment declaration."""
    p = sub.add_parser(experiment.name, help=experiment.summary)
    for axis in experiment.axes:
        p.add_argument(axis.flag, type=None if axis.choices else int,
                       choices=axis.choices and list(axis.choices),
                       nargs="+", default=list(axis.values),
                       help=axis.help)
    for param in experiment.params:
        _add_param(p, param)
    _add_workers(p)
    p.set_defaults(fn=functools.partial(_cmd_experiment, experiment))


def _cmd_readmodel(args: argparse.Namespace) -> str:
    points = run_readmodel(num_caches=args.num_caches,
                           replications=tuple(args.replication),
                           cache_bandwidths=tuple(args.cache_bandwidths),
                           read_rate=args.read_rate,
                           num_sources=args.sources,
                           objects_per_source=args.objects,
                           source_bandwidth=args.source_bandwidth,
                           warmup=args.warmup, measure=args.measure,
                           seed=args.seed, replay=args.replay,
                           delivery=args.delivery, workers=args.workers)
    return render_readmodel(
        points, f"Replicated read model ({args.num_caches} caches): "
                "read-observed divergence by read policy")


def _cmd_scale(args: argparse.Namespace) -> str:
    points = run_scale(sources=tuple(args.sources),
                       update_rate=args.update_rate,
                       cache_bandwidth=args.cache_bandwidth,
                       source_bandwidth=args.source_bandwidth,
                       warmup=args.warmup, measure=args.measure,
                       seed=args.seed,
                       max_tick_sources=args.max_tick_sources,
                       replays=(("event", "batched")
                                if args.replay == "both"
                                else (args.replay,)),
                       workers=args.workers,
                       shard_caches=args.shard_caches)
    return render_scale(
        points, "E9 scale sweep: event-driven wakeups vs per-tick scans "
                f"(sparse updates, lambda = {args.update_rate}/s)")


def _cmd_profile(args: argparse.Namespace) -> str:
    """cProfile another subcommand and append the hot-spot report."""
    import cProfile
    import io
    import pstats

    if not args.target:
        raise SystemExit("profile: expected a subcommand to profile, "
                         "e.g. `repro profile scale --sources 10000`")
    if args.target[0] == "profile":
        raise SystemExit("profile: cannot profile itself")
    inner = build_parser().parse_args(args.target)
    inner_fn: Callable[[argparse.Namespace], str] = inner.fn
    profiler = cProfile.Profile()
    profiler.enable()
    text = inner_fn(inner)
    profiler.disable()
    report = io.StringIO()
    stats = pstats.Stats(profiler, stream=report)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return (f"{text}\n\n--- cProfile: {' '.join(args.target)} "
            f"(top {args.top} by {args.sort}) ---\n"
            f"{report.getvalue().rstrip()}")


def _cmd_quickstart(args: argparse.Namespace) -> str:
    import io
    from contextlib import redirect_stdout

    sys.path.insert(0, "examples")
    buffer = io.StringIO()
    try:
        import quickstart  # noqa: F401  (examples/quickstart.py)
        with redirect_stdout(buffer):
            quickstart.main()
    except ImportError:
        return ("examples/quickstart.py not found; run from the "
                "repository root")
    finally:
        sys.path.pop(0)
    return buffer.getvalue().rstrip()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from Olston & Widom, "
                    "'Best-Effort Cache Synchronization with Source "
                    "Cooperation' (SIGMOD 2002)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the result text to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e1", help="Sec 4.3 uniform validation")
    p.add_argument("--objects", type=int, default=100)
    _add_timing(p, warmup=100.0, measure=1000.0)
    p.set_defaults(fn=_cmd_e1)

    p = sub.add_parser("e2", help="Sec 4.3 skewed validation")
    _add_timing(p, warmup=100.0, measure=1000.0)
    p.set_defaults(fn=_cmd_e2)

    p = sub.add_parser("e3", help="Sec 6.1 threshold parameter study")
    p.add_argument("--alphas", type=float, nargs="+",
                   default=[1.05, 1.1, 1.2, 1.5, 2.0])
    p.add_argument("--omegas", type=float, nargs="+",
                   default=[2.0, 5.0, 10.0, 20.0, 100.0])
    p.add_argument("--sources", type=int, default=10)
    p.add_argument("--objects", type=int, default=10)
    _add_timing(p, warmup=100.0, measure=400.0)
    p.set_defaults(fn=_cmd_e3)

    p = sub.add_parser("fig4", help="Figure 4 sweep")
    p.add_argument("--sources", type=int, nargs="+", default=[1, 10, 50])
    p.add_argument("--objects", type=int, nargs="+", default=[1, 10])
    p.add_argument("--cache-bandwidths", type=float, nargs="+",
                   default=[10.0, 40.0, 100.0])
    _add_timing(p, warmup=250.0, measure=600.0)
    _add_workers(p)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("fig5", help="Figure 5 buoy experiment")
    p.add_argument("--bandwidths", type=float, nargs="+",
                   default=[1, 2, 5, 10, 20, 40, 80])
    p.add_argument("--fluctuating", action="store_true",
                   help="fluctuate the link with the paper's mB = 0.25")
    p.add_argument("--days", type=float, default=7.0)
    p.add_argument("--warmup-days", type=float, default=1.0)
    p.add_argument("--trace-csv", type=str, default=None,
                   help="real buoy trace in time,object,value CSV form")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fig5)

    p = sub.add_parser("fig6", help="Figure 6 CGM comparison")
    p.add_argument("--sources", type=int, default=10)
    p.add_argument("--objects", type=int, default=10)
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.1, 0.3, 0.5, 0.7, 0.9])
    _add_timing(p, warmup=100.0, measure=500.0)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser("multicache",
                       help="multi-cache topology sweep (cooperative vs "
                            "uniform allocation)")
    p.add_argument("--num-caches", type=int, nargs="+", default=[1, 2, 4],
                   help="cache-node counts to sweep")
    p.add_argument("--topology", choices=["sharded", "replicated"],
                   default="sharded",
                   help="multi-cache layout (1 cache is always the star)")
    p.add_argument("--replication", type=int, default=2,
                   help="caches per source in the replicated layout")
    p.add_argument("--sources", type=int, default=16)
    p.add_argument("--objects", type=int, default=8,
                   help="objects per source")
    p.add_argument("--cache-bandwidth", type=float, default=24.0,
                   help="aggregate cache-side msgs/s, split across caches")
    p.add_argument("--source-bandwidth", type=float, default=4.0)
    p.add_argument("--hot-fraction", type=float, default=0.25,
                   help="fraction of sources in the hot shard")
    p.add_argument("--hot-boost", type=float, default=8.0,
                   help="update-rate multiplier for hot sources")
    p.add_argument("--cache-rates", type=_parse_rates, default=None,
                   metavar="R1,R2,...",
                   help="heterogeneous per-cache link rates in msgs/s "
                        "(e.g. 8,4,2); implies a single sweep point with "
                        "that many caches and overrides --cache-bandwidth")
    p.add_argument("--delivery", choices=list(DELIVERY_MODES),
                   default="unicast",
                   help="fan-out plane for replicated sources (multicast "
                        "charges cache-side bandwidth once per logical "
                        "refresh)")
    _add_timing(p, warmup=100.0, measure=400.0)
    _add_workers(p)
    p.set_defaults(fn=_cmd_multicache)

    for experiment in (NETCOND, FAULTS, MULTICAST, REBALANCE):
        _add_experiment(sub, experiment)

    p = sub.add_parser("readmodel",
                       help="replicated read model: quorum/any-replica "
                            "reads and read-observed divergence")
    p.add_argument("--num-caches", type=int, default=3,
                   help="cache nodes in the replicated layout "
                        "(1 degenerates to the star)")
    p.add_argument("--replication", type=int, nargs="+", default=[1, 2, 3],
                   help="replication factors to sweep (clamped to "
                        "--num-caches)")
    p.add_argument("--cache-bandwidths", type=float, nargs="+",
                   default=[18.0],
                   help="aggregate cache-side msgs/s values to sweep, "
                        "each split across the cache links")
    p.add_argument("--read-rate", type=float, default=0.5,
                   help="client reads/second per object (Poisson)")
    p.add_argument("--sources", type=int, default=12)
    p.add_argument("--objects", type=int, default=4,
                   help="objects per source")
    p.add_argument("--source-bandwidth", type=float, default=3.0)
    p.add_argument("--replay", choices=["batched", "event"],
                   default="batched",
                   help="trace/read replay mode (batched = apply all "
                        "events between simulator wakeups in one call)")
    p.add_argument("--delivery", choices=list(DELIVERY_MODES),
                   default="unicast",
                   help="fan-out plane for the replicated refreshes")
    _add_timing(p, warmup=100.0, measure=400.0)
    _add_workers(p)
    p.set_defaults(fn=_cmd_readmodel)

    p = sub.add_parser("scale",
                       help="E9 scale sweep: event-driven wakeups vs "
                            "per-tick scans on sparse workloads")
    p.add_argument("--sources", type=int, nargs="+",
                   default=[100, 1000, 10000],
                   help="source counts to sweep (one object per source)")
    p.add_argument("--update-rate", type=float, default=0.002,
                   help="per-object Poisson update rate (<< 1/dt)")
    p.add_argument("--cache-bandwidth", type=float, default=8.0)
    p.add_argument("--source-bandwidth", type=float, default=1.0)
    p.add_argument("--max-tick-sources", type=int, default=2000,
                   help="skip the tick-scan baseline above this m "
                        "(it is O(ticks x m); the result is pinned "
                        "identical anyway)")
    p.add_argument("--replay", choices=["batched", "event", "both"],
                   default="batched",
                   help="trace replay mode; 'both' times the per-event "
                        "loop against the batched fast path")
    p.add_argument("--shard-caches", type=int, default=None,
                   help="run each point as a sharded multi-cache "
                        "topology with this many caches, advancing the "
                        "shards in parallel worker processes (tier 2); "
                        "without it --workers parallelizes across sweep "
                        "cells (tier 1)")
    _add_timing(p, warmup=100.0, measure=500.0)
    _add_workers(p)
    p.set_defaults(fn=_cmd_scale)

    p = sub.add_parser("profile",
                       help="run another subcommand under cProfile and "
                            "print the top-N hot spots")
    p.add_argument("--top", type=int, default=25,
                   help="number of rows in the profile report")
    p.add_argument("--sort", choices=["cumulative", "tottime"],
                   default="cumulative",
                   help="profile report sort order")
    p.add_argument("target", nargs=argparse.REMAINDER,
                   help="subcommand (plus its arguments) to profile")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("quickstart", help="the README comparison")
    p.set_defaults(fn=_cmd_quickstart)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fn: Callable[[argparse.Namespace], str] = args.fn
    text = fn(args)
    print(text)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
