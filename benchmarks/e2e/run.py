#!/usr/bin/env python3
"""The end-to-end benchmark: a sample leaves a gmond, crosses the tree,
lands in a viewer's hand.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--traced] [--quick]

One workload with ``--trace 0`` (the default) measures the end-to-end
metrics with tracing off; ``--trace 1`` repeats it with the span
recorder of ``spans.py`` wrapped around the layer boundaries and reports
the per-layer metrics.  Either way every metric is printed by name with
its unit, the outputs are checked, the result is written to
``benchmarks/e2e/out/`` and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` every workload runs, each in a process of its own
so that ``peak_rss_mb`` is that workload's.  ``--traced`` runs both
passes of each workload and prints ``trace_overhead_pct``.  ``--quick``
divides hosts by ten and measures one period: a smoke run, not a
measurement.

The process is single-threaded and re-executes itself once with
``PYTHONHASHSEED=0``: the served bytes depend on string hashing (the
emulators derive host IPs from ``hash(name)``), so a pinned hash seed is
what makes ``served_digest`` repeat per ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
STARTED_ENV = "E2E_BENCH_STARTED"

sys.path.insert(0, str(HERE))

import metrics as metric_tables  # noqa: E402
from workloads import BY_NAME, RUN_SECONDS, WORKLOADS  # noqa: E402


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="run untraced then traced; print the overhead")
    parser.add_argument("--quick", action="store_true",
                        help="hosts / 10, one measured period")
    return parser.parse_args(argv)


def pin_hash_seed() -> float:
    """Re-exec once under ``PYTHONHASHSEED=0``; returns the start time."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.setdefault(STARTED_ENV, repr(time.time()))
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    return float(os.environ.get(STARTED_ENV) or time.time())


def run_one(args: argparse.Namespace, started: float) -> int:
    """One workload, one pass, in this process."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    recorder = None
    if args.trace:
        import spans

        recorder = spans.install()
    from harness import run_workload

    spec = BY_NAME[args.workload]
    result = run_workload(
        spec, args.seed, args.seconds, started, recorder=recorder, quick=args.quick
    )
    result["environment"] = environment()
    analytics_passes = result["counts"].pop("analytics.engine.passes")
    OUT.mkdir(exist_ok=True)
    if recorder is not None:
        import ledger

        recorder.uninstall()
        recorder.finalize()
        folded = ledger.fold(recorder, result["measured_cycles"], analytics_passes)
        result["per_layer"] = {**result["counts"], **folded["metrics"]}
        result["layers"] = folded["layers"]
        result["spans_fired"] = folded["fired"]
        recorder.write_jsonl(OUT / f"trace-{spec.name}.jsonl")
        reported = result["per_layer"]
        stem = f"{spec.name}.traced"
    else:
        reported = result["end_to_end"]
        stem = spec.name
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print_report(result, reported)
    units = metric_tables.UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }))
    return 0


def environment() -> dict:
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def print_report(result: dict, reported: dict) -> None:
    kinds = {name: kind for name, _, kind, _ in metric_tables.END_TO_END}
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['hosts']} hosts  {result['measured_cycles']} measured cycles"
        f"{'  traced' if result['traced'] else ''}"
        f"{'  QUICK' if result['quick'] else ''}"
    )
    for name, value in reported.items():
        kind = kinds.get(name, "")
        if name in result["raw"]:
            kind += f" at reference speed; the clock read {result['raw'][name]:.6f}"
        print(f"{name:52s} {value:16.6f} {metric_tables.UNITS[name]:7s} {kind}")
    print(f"{'ops_failed_share':52s} {result['ops_failed_share']:16.6f} "
          f"{'ratio':7s} {result['failed']} failed of {result['attempted']}")
    print(f"failed by kind: {result['failed_by_kind']}")
    print(f"samples: {result['samples']}")
    print(f"served_digest: {result['served_digest']}")
    for message in result["failures"]:
        print(f"FAILED {message}")
    if result.get("layers"):
        wall = result["per_layer"]["trace.cycle_wall_ms_mean"]
        print(f"top layers by self time (traced cycle {wall:.1f} ms):")
        for row in result["layers"][:10]:
            print(f"  {row['layer']:44s} {row['self_ms_per_cycle']:10.2f} ms/cycle"
                  f"  ({row['in_timed_region_ms']:.2f} in the timed region,"
                  f" {row['calls']:.0f} calls)")


def run_children(args: argparse.Namespace) -> int:
    """Each requested (workload, pass) in a process of its own."""
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    passes = (0, 1) if args.traced else (args.trace,)
    status = 0
    for name in names:
        for trace in passes:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.quick:
                command.append("--quick")
            env = dict(os.environ)
            env.pop(STARTED_ENV, None)
            status = subprocess.run(command, env=env).returncode or status
        if args.traced and status == 0:
            plain = json.loads((OUT / f"{name}.json").read_text())
            traced = json.loads((OUT / f"{name}.traced.json").read_text())
            # both at reference speed, so the host's mood cancels
            base = plain["end_to_end"]["cycle_wall_ms_mean"]
            wall = traced["end_to_end"]["cycle_wall_ms_mean"]
            print(f"{name}: trace_overhead_pct {100.0 * (wall / base - 1.0):.1f} "
                  f"(traced {wall:.1f} ms over untraced {base:.1f} ms)")
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload and not args.traced:
        started = pin_hash_seed()
        return run_one(args, started)
    return run_children(args)


if __name__ == "__main__":
    status = main()
    # a 10k-host federation is ~10^7 live objects; tearing them down one
    # by one at interpreter exit costs seconds that measure nothing
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
