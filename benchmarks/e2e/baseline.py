#!/usr/bin/env python3
"""Measure a baseline: several untraced runs and one traced run per
workload, folded into one file ``compare.py`` can read.

    python3 benchmarks/e2e/baseline.py OUT.json [--runs 3] [--seed 14]

Every run is a process of its own (``run.py --workload W``).  Each
end-to-end metric keeps its values, median and quartiles; the traced run
contributes the per-layer ledger and a trace summary, written next to
``OUT.json`` as ``trace-summary-<workload>.json``: the ten layers with
the most self time, what tracing cost, and how much of the cycle the
layers under the root span account for.  Exit status is 1 when a
workload's attributed time is not within 15 % of its untraced
``cycle_wall_ms_mean``.

The committed baseline is ``benchmarks/e2e/out/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: the ledger must account for the untraced cycle to within this share
COVERAGE_TOLERANCE = 0.15


def run(name: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--trace", str(trace),
    ]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    stem = f"{name}.traced" if trace else name
    return json.loads((OUT / f"{stem}.json").read_text())


def fold(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "values": values,
    }


def trace_summary(name: str, plain_cycle_ms: float, traced: dict) -> dict:
    """The ten heaviest layers, what tracing cost, and the coverage.

    ``attributed_share`` is measured inside the traced run: the self
    time of every layer under the root span over the traced cycle.  The
    traced cycle over the untraced one is the tracing overhead; their
    product is the attributed time as a share of the untraced
    ``cycle_wall_ms_mean``, which is what must come within 15 % of 1.
    Both cycle times are at reference speed; the layer rows are clock
    time.
    """
    layer = traced["per_layer"]
    traced_cycle_ms = traced["end_to_end"]["cycle_wall_ms_mean"]
    overhead = traced_cycle_ms / plain_cycle_ms
    share = layer["trace.attributed_share"]
    return {
        "workload": name,
        "untraced_cycle_wall_ms_mean": plain_cycle_ms,
        "traced_cycle_wall_ms_mean": traced_cycle_ms,
        "trace_overhead_pct": 100.0 * (overhead - 1.0),
        # the layer rows below are clock time: this is how much slower
        # than reference speed the host ran the traced cycles
        "traced_cycle_host_slowdown": (
            layer["trace.cycle_wall_ms_mean"] / traced_cycle_ms
        ),
        "attributed_ms": layer["trace.attributed_ms"],
        "attributed_share_of_traced_cycle": share,
        "unattributed_share_of_traced_cycle": 1.0 - share,
        "attributed_over_untraced_cycle": share * overhead,
        "top_layers": traced["layers"][:10],
        "spans_fired": traced["spans_fired"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=pathlib.Path)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=14)
    args = parser.parse_args(argv)
    baseline = {
        "schema": "e2e-baseline-2",
        "runs": args.runs, "seed": args.seed, "workloads": {},
    }
    status = 0
    for spec in WORKLOADS:
        plain = [run(spec.name, args.seed, 0) for _ in range(args.runs)]
        traced = run(spec.name, args.seed, 1)
        baseline["environment"] = plain[0]["environment"]
        end_to_end = {
            metric: fold([p["end_to_end"][metric] for p in plain])
            for metric in plain[0]["end_to_end"]
        }
        summary = trace_summary(
            spec.name, end_to_end["cycle_wall_ms_mean"]["median"], traced
        )
        (args.out.parent / f"trace-summary-{spec.name}.json").write_text(
            json.dumps(summary, indent=1) + "\n"
        )
        baseline["workloads"][spec.name] = {
            "hosts": plain[0]["hosts"],
            "measured_cycles": plain[0]["measured_cycles"],
            "attempted": plain[0]["attempted"],
            "failed": max(p["failed"] for p in plain),
            "served_digest": sorted({p["served_digest"] for p in plain}),
            "samples": plain[0]["samples"],
            "end_to_end": end_to_end,
            "per_layer": traced["per_layer"],
            "trace_overhead_pct": summary["trace_overhead_pct"],
        }
        coverage = summary["attributed_over_untraced_cycle"]
        print(f"{spec.name}: {args.runs} runs + 1 traced, "
              f"digests {baseline['workloads'][spec.name]['served_digest']}, "
              f"attributed {coverage:.3f} of the untraced cycle")
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            print(f"FAIL {spec.name}: attributed time is not within "
                  f"{COVERAGE_TOLERANCE:.0%} of cycle_wall_ms_mean")
            status = 1
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
