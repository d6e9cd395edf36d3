#!/usr/bin/env python3
"""Compare two baseline files made by ``baseline.py``.

    python3 benchmarks/e2e/compare.py old.json new.json [--wall-clock-only]

One row per workload x end-to-end metric: base median, new median, the
ratio and the bound.  Every metric is lower-is-better.  The bound is the
one in ``BENCHMARK.json``, except that a sim metric is held to 1 % when
both files ran the same seed: the manifest's bounds cover runs on
different seeds, and at one seed a sim metric repeats exactly.  A row
reads

- ``unresolved`` when either side's own spread (the distance between
  its quartiles over its median) exceeds the bound: the runs cannot
  tell a regression of that size from noise;
- ``REGRESSION`` when the new median is worse than the base by more
  than the bound;
- ``SIM-CHANGED`` when ``--wall-clock-only`` was declared and a sim
  metric, or the served digest, is not identical on both sides;
- ``ok`` otherwise.

Exit status is 1 on any ``REGRESSION`` or ``SIM-CHANGED`` row, or when a
workload fails more operations than it did at the base.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as metric_tables  # noqa: E402


def load_bounds() -> dict:
    """Bounds from the repository's BENCHMARK.json."""
    manifest = HERE.parents[1] / "BENCHMARK.json"
    rows = json.loads(manifest.read_text())["end_to_end"]
    return {row["name"]: row["bound"] for row in rows}


def spread(stat: dict) -> float:
    return (stat["q3"] - stat["q1"]) / stat["median"] if stat["median"] else 0.0


def compare(old: dict, new: dict, wall_clock_only: bool) -> int:
    bounds = load_bounds()
    kinds = {name: kind for name, _, kind, _ in metric_tables.END_TO_END}
    if old["seed"] == new["seed"]:
        for metric, kind in kinds.items():
            if kind == "sim":
                bounds[metric] = metric_tables.SIM_SAME_SEED_BOUND
    status = 0
    print(f"{'workload':18s} {'metric':30s} {'base':>14s} {'new':>14s} "
          f"{'ratio':>8s} {'bound':>6s}  verdict")
    for workload, base in old["workloads"].items():
        fresh = new["workloads"].get(workload)
        if fresh is None:
            print(f"{workload:18s} missing from the new file")
            status = 1
            continue
        for metric, bound in bounds.items():
            a = base["end_to_end"][metric]
            b = fresh["end_to_end"][metric]
            ratio = b["median"] / a["median"] if a["median"] else float("inf")
            if (
                wall_clock_only
                and kinds[metric] == "sim"
                and sorted(a["values"]) != sorted(b["values"])
            ):
                verdict = "SIM-CHANGED"
                status = 1
            elif max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            elif ratio > 1.0 + bound:
                verdict = "REGRESSION"
                status = 1
            else:
                verdict = "ok"
            print(f"{workload:18s} {metric:30s} {a['median']:14.4f} "
                  f"{b['median']:14.4f} {ratio:8.3f} {bound:6.2f}  {verdict}")
        if wall_clock_only and base["served_digest"] != fresh["served_digest"]:
            print(f"{workload:18s} served_digest differs: SIM-CHANGED")
            status = 1
        if fresh["failed"] > base["failed"]:
            print(f"{workload:18s} failed operations {base['failed']} -> "
                  f"{fresh['failed']} of {fresh['attempted']}: REGRESSION")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument(
        "--wall-clock-only", action="store_true",
        help="the change claims to move host time only: sim metrics and"
        " the served digest must be identical",
    )
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text())
    new = json.loads(args.new.read_text())
    return compare(old, new, args.wall_clock_only)


if __name__ == "__main__":
    sys.exit(main())
