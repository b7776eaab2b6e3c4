"""Fail when a fresh BENCH_scale.json regressed against a baseline.

The perf-regression CI job re-runs the E9 m = 10^5 bench on the base
commit and on the candidate, on the same runner, then invokes this
script to compare the two payloads; the *committed* BENCH_scale.json
snapshot is only the fallback baseline, used when no base revision
is resolvable or its bench fails.  A point regresses when its end-to-end cost
(``gen_seconds + wall_seconds``) exceeds the baseline's by more than
``--tolerance`` (default 20%).  Points are matched on
``(num_sources, scheduling, replay, workers, topology, bandwidth)``,
where a missing ``workers`` reads as 1 and a missing ``topology`` as
``"star"`` (today's points carry neither: every E9 point is a serial
star run), so snapshots written before those fields were dropped still
match.  A point measured at a different worker count, cache layout, or
link-profile kind (steady vs a breakpoint trace) is a *different*
point, never compared against a serial/star/steady baseline; points
present on only one side are reported but never fail the check, so
adding or retiring bench points does not break the gate.  The m = 10^6
serial-star point (the payload's ``million`` section) and the E11
trace-driven points (the ``netcond`` section) join the comparison
alongside the top-level points.

Usage::

    python benchmarks/check_scale_regression.py \
        --baseline BENCH_scale.baseline.json --current BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import sys


def point_key(point: dict) -> tuple:
    return (point.get("num_sources"), point.get("scheduling"),
            point.get("replay", "event"), point.get("workers", 1),
            point.get("topology", "star"),
            point.get("bandwidth", "steady"))


def all_points(payload: dict) -> list[dict]:
    """Top-level points plus the ``million`` and ``netcond`` sections',
    when present."""
    return (list(payload.get("points", []))
            + list(payload.get("million", {}).get("points", []))
            + list(payload.get("netcond", {}).get("points", [])))


def point_total(point: dict) -> float:
    return float(point.get("gen_seconds", 0.0)) \
        + float(point["wall_seconds"])


def compare(baseline: dict, current: dict,
            tolerance: float) -> list[str]:
    """Human-readable comparison lines; lines starting with FAIL are
    regressions."""
    base_points = {point_key(p): p for p in all_points(baseline)}
    cur_points = {point_key(p): p for p in all_points(current)}
    lines: list[str] = []
    for key, cur in sorted(cur_points.items(), key=repr):
        base = base_points.get(key)
        if base is None:
            lines.append(f"NEW  {key}: {point_total(cur):.3f}s "
                         f"(no baseline point)")
            continue
        base_total = point_total(base)
        cur_total = point_total(cur)
        limit = base_total * (1.0 + tolerance)
        verdict = "FAIL" if cur_total > limit else "ok  "
        lines.append(
            f"{verdict} {key}: {cur_total:.3f}s vs baseline "
            f"{base_total:.3f}s (limit {limit:.3f}s)")
    for key in sorted(set(base_points) - set(cur_points), key=repr):
        lines.append(f"GONE {key}: baseline point not re-measured")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_scale.json snapshot")
    parser.add_argument("--current", required=True,
                        help="freshly measured BENCH_scale.json")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional slowdown (0.2 = 20%%)")
    args = parser.parse_args(argv)
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)
    lines = compare(baseline, current, args.tolerance)
    print("\n".join(lines))
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        print(f"\n{len(failed)} point(s) regressed by more than "
              f"{args.tolerance:.0%} wall clock")
        return 1
    print("\nno wall-clock regression beyond "
          f"{args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
