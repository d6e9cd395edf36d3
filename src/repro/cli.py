"""Command-line interface: ``python -m repro`` or the ``repro-sim`` script.

Subcommands:

- ``experiment {fig5,fig6,table1,all}`` -- run the paper's experiments
  and print the paper-style reports;
- ``pubsub`` -- compare push (repro.pubsub) against poll delivery at
  equal freshness across federation widths;
- ``run`` -- run the Fig. 2 federation for a while and print the meta
  view and per-gmetad CPU;
- ``query`` -- build the federation, issue one path query against a
  chosen gmetad, print the XML;
- ``trace`` -- run the federation with self-observability on and dump
  the trace spans as JSON lines (plus a per-phase summary on stderr);
- ``readtier`` -- stand up a replicated read tier behind one gmetad of
  the Fig. 2 tree, drive a Zipf viewer fleet through the front door,
  and print placement/serving stats plus a byte-identity check;
- ``storage`` -- archive one gmetad of the Fig. 2 tree through a
  sharded, replicated storage-node fleet, kill a node mid-run, and
  print placement, failover and repair stats;
- ``analytics`` -- replay a fault schedule (load ramps, host flaps,
  optional storage-node kill) against one analytics-enabled gmetad and
  print predictive-vs-static detection lead times and false positives;
- ``check-gmetad-conf`` / ``check-gmond-conf`` -- parse real Ganglia
  config files and show how they map onto this library;
- ``calibrate`` -- re-derive the CPU capacity anchor.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import (
    PAPER_CLUSTER_SIZES,
    run_figure5,
    run_figure6,
    run_table1,
)
from repro.bench.topology import build_paper_tree
from repro.config.gmetadconf import ConfigError, parse_gmetad_conf
from repro.config.gmondconf import parse_gmond_conf


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hosts", type=int, default=20,
                        help="hosts per cluster (default 20)")
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--window", type=float, default=90.0,
                        help="measurement window, simulated seconds")
    parser.add_argument("--warmup", type=float, default=30.0)


def _cmd_experiment(args: argparse.Namespace) -> int:
    reports = []
    if args.which in ("fig5", "all"):
        reports.append(
            run_figure5(
                hosts_per_cluster=args.hosts, window=args.window,
                warmup=args.warmup, seed=args.seed,
            ).report()
        )
    if args.which in ("fig6", "all"):
        sizes = (
            PAPER_CLUSTER_SIZES
            if args.paper_sizes
            else tuple(s for s in (5, 10, 20, 40) if s <= max(args.hosts, 40))
        )
        reports.append(
            run_figure6(
                sizes=sizes, window=min(args.window, 60.0),
                warmup=args.warmup, seed=args.seed,
            ).report()
        )
    if args.which in ("table1", "all"):
        reports.append(
            run_table1(
                hosts_per_cluster=args.hosts, warmup=max(args.warmup, 45.0),
                seed=args.seed,
            ).report()
        )
    print("\n\n".join(reports))
    return 0


def _cmd_pubsub(args: argparse.Namespace) -> int:
    from repro.bench.experiments import run_pubsub_comparison
    from repro.bench.export import pubsub_csv

    try:
        result = run_pubsub_comparison(
            cluster_counts=tuple(args.clusters),
            hosts_per_cluster=args.hosts,
            window=args.window,
            warmup=args.warmup,
            refresh_interval=args.change_interval,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.report())
    if args.csv:
        try:
            with open(args.csv, "w") as handle:
                handle.write(pubsub_csv(result))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    federation = build_paper_tree(
        args.design, hosts_per_cluster=args.hosts, seed=args.seed,
        archive_mode="account",
    )
    federation.start()
    cpu = federation.run_measurement_window(args.window, args.warmup)
    print(f"{args.design} federation, {args.hosts}-host clusters, "
          f"{args.window:.0f}s window:\n")
    for name in sorted(cpu):
        print(f"  gmetad {name:8s} CPU {cpu[name]:6.2f}%")
    root = federation.gmetad("root")
    if args.design == "nlevel":
        rollup, _ = root.datastore.root_summary()
        load = rollup.metrics.get("load_one")
        print(f"\nfederation: {rollup.hosts_up} hosts up, "
              f"{rollup.hosts_down} down"
              + (f", mean load {load.mean():.2f}" if load else ""))
    federation.stop()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    federation = build_paper_tree(
        args.design, hosts_per_cluster=args.hosts, seed=args.seed,
        archive_mode="account",
    )
    federation.start()
    federation.engine.run_for(args.warmup)
    try:
        gmetad = federation.gmetad(args.at)
    except KeyError:
        print(f"error: unknown gmetad {args.at!r}; choose from "
              f"{sorted(federation.gmetads)}", file=sys.stderr)
        return 2
    xml, seconds = gmetad.serve_query(args.query)
    print(xml, end="")
    print(f"-- served by {args.at} in {seconds*1e3:.3f} ms (CPU)",
          file=sys.stderr)
    federation.stop()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.tracestats import phase_coverage, summarize_jsonl
    from repro.obs import ObservabilityConfig

    federation = build_paper_tree(
        args.design, hosts_per_cluster=args.hosts, seed=args.seed,
        archive_mode="account", incremental=not args.eager,
        observability=ObservabilityConfig(
            trace_capacity=args.capacity,
            drift_check_interval=args.drift_interval,
        ),
    )
    federation.start()
    federation.engine.run_for(args.warmup + args.window)
    # merge every daemon's buffer; each span line carries its daemon name
    jsonl = "".join(
        federation.gmetad(name).obs.spans_jsonl()
        for name in sorted(federation.gmetads)
    )
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(jsonl)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(jsonl, end="")
    summary = summarize_jsonl(jsonl)
    print(summary.report(), file=sys.stderr)
    missing = phase_coverage(summary)
    if missing:
        print(f"warning: phases never traced: {missing}", file=sys.stderr)
    federation.stop()
    return 0


def _cmd_check_gmetad(args: argparse.Namespace) -> int:
    try:
        text = open(args.file).read()
        parsed = parse_gmetad_conf(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"gridname:    {parsed.gridname}")
    print(f"design:      {parsed.design} "
          f"(scalability {'on' if parsed.scalability else 'off'})")
    print(f"xml_port:    {parsed.xml_port}")
    if parsed.authority:
        print(f"authority:   {parsed.authority}")
    if parsed.trusted_hosts:
        print(f"trusted:     {', '.join(parsed.trusted_hosts)}")
    print(f"data sources ({len(parsed.data_sources)}):")
    for source in parsed.data_sources:
        endpoints = " ".join(str(a) for a in source.addresses)
        print(f"  {source.name:24s} every {source.poll_interval:g}s "
              f"from {endpoints}")
    return 0


def _cmd_check_gmond(args: argparse.Namespace) -> int:
    try:
        config = parse_gmond_conf(open(args.file).read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"cluster:     {config.cluster_name} (owner {config.owner})")
    print(f"multicast:   {config.multicast_group}")
    print(f"heartbeat:   every {config.heartbeat_interval:g}s "
          f"(down after {config.heartbeat_window:g}s)")
    print(f"host_dmax:   {config.host_dmax:g}s"
          + (" (never forget)" if config.host_dmax == 0 else ""))
    return 0


def _cmd_gstat(args: argparse.Namespace) -> int:
    from repro.tools import gstat_from_gmetad

    federation = build_paper_tree(
        args.design, hosts_per_cluster=args.hosts, seed=args.seed,
        archive_mode="account",
    )
    federation.start()
    federation.engine.run_for(args.warmup)
    try:
        gmetad = federation.gmetad(args.at)
    except KeyError:
        print(f"error: unknown gmetad {args.at!r}; choose from "
              f"{sorted(federation.gmetads)}", file=sys.stderr)
        return 2
    print(gstat_from_gmetad(gmetad, source=args.source,
                            show_hosts=args.hosts_detail))
    federation.stop()
    return 0


def _cmd_readtier(args: argparse.Namespace) -> int:
    from repro.readtier.config import ReadTierConfig
    from repro.readtier.fleet import ViewerFleet, build_read_tier, viewer_paths

    federation = build_paper_tree(
        args.design, hosts_per_cluster=args.hosts, seed=args.seed,
        archive_mode="account",
    )
    federation.start()
    engine = federation.engine
    engine.run_for(args.warmup)
    try:
        ingest = federation.gmetad(args.at)
    except KeyError:
        print(f"error: unknown gmetad {args.at!r}; choose from "
              f"{sorted(federation.gmetads)}", file=sys.stderr)
        return 2
    tier = build_read_tier(
        engine, federation.fabric, federation.tcp, ingest,
        replicas=args.replicas,
        config=ReadTierConfig(replicas=args.replicas),
    )
    deadline = engine.now + 300.0
    while not tier.synced() and engine.now < deadline:
        engine.run_for(15.0)
    if not tier.synced():
        print("error: read tier never reached a consistent generation",
              file=sys.stderr)
        return 1
    fleet = ViewerFleet(
        engine, federation.fabric, federation.tcp, tier.address,
        viewer_paths(ingest), clients=args.clients,
        per_client_qps=args.qps, aggregators=32, seed=args.seed,
    ).start()
    engine.run_for(args.window)
    fleet.stop()
    window = fleet.take_window()

    triple = (
        ingest.datastore.generation,
        ingest.datastore.content_version,
        ingest.datastore.detail_version,
    )
    print(f"read tier at {args.at}: {args.replicas} replicas behind "
          f"{tier.address}")
    for replica in tier.replicas:
        match = "matched" if replica.ingest_versions == triple else "catching up"
        print(f"  {replica.name:16s} gen={replica.ingest_versions} "
              f"({match})  served={replica.queries_served} "
              f"shed={replica.queries_shed} installs={replica.installs}")
    matched = [r for r in tier.replicas if r.ingest_versions == triple]
    if matched:
        replica = matched[0]
        identical = replica.serve_query("/")[0] == ingest.serve_query("/")[0]
        print(f"byte identity at generation {triple}: "
              f"{'OK' if identical else 'MISMATCH'} ({replica.name})")
    door = tier.frontdoor
    print(f"front door: routed={door.requests_routed} "
          f"hedges={door.hedges_fired} (won {door.hedge_wins}) "
          f"failovers={door.failovers} exhausted={door.exhausted}")
    qps = window.ok / args.window if args.window > 0 else 0.0
    print(f"viewer fleet ({args.clients} clients, "
          f"{fleet.offered_qps:g} qps offered, {args.window:g}s window): "
          f"sent={window.sent} ok={window.ok} "
          f"overloaded={window.overloaded} timeouts={window.timeouts}")
    print(f"  served {qps:.1f} qps, p50 "
          f"{1000 * window.percentile(0.50):.2f} ms, p99 "
          f"{1000 * window.percentile(0.99):.2f} ms")
    federation.stop()
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    from repro.faults.injector import FaultInjector
    from repro.faults.schedules import FaultEvent, FaultSchedule
    from repro.storage import StorageTierConfig

    config = StorageTierConfig(
        nodes=args.nodes,
        shards=args.shards,
        replication=args.replication,
        repair_interval=args.repair_interval,
    )
    federation = build_paper_tree(
        args.design, hosts_per_cluster=args.hosts, seed=args.seed,
        archive_mode="full", storage_tier=config,
    )
    federation.start()
    engine = federation.engine
    injector = FaultInjector(engine, federation.fabric)
    try:
        gmetad = federation.gmetad(args.at)
    except KeyError:
        print(f"error: unknown gmetad {args.at!r}; choose from "
              f"{sorted(federation.gmetads)}", file=sys.stderr)
        return 2
    tier = gmetad.rrd_store
    injector.register_storage_tier(tier)
    kill_at = args.warmup + args.window / 3.0
    schedule = FaultSchedule([
        FaultEvent(at=kill_at, action="storage_kill", host="st00",
                   duration=args.window / 3.0),
    ])
    schedule.apply(injector)
    engine.run_for(args.warmup + args.window)
    stats = tier.stats()
    print(f"storage tier at {args.at}: {args.nodes} nodes x "
          f"{args.shards} shards, R={args.replication} "
          f"({args.window:.0f}s window, st00 killed at t={kill_at:.0f}s)")
    for node in tier.nodes.values():
        state = "up" if node.up else "DOWN"
        print(f"  {node.name}  {state:4s}  updates={node.updates_applied:8d} "
              f"busy={node.busy_seconds:8.3f}s flushes={node.flushes} "
              f"kills={node.kills}")
    print(f"logical updates: {int(stats['logical_updates'])} "
          f"({int(stats['physical_updates'])} physical across replicas)")
    print(f"series: {int(stats['series'])} in {int(stats['shards'])} shards; "
          f"groups migrated by clustering: {int(stats['groups_migrated'])}")
    print(f"failover fetches: {int(stats['failover_fetches'])}  "
          f"stale: {int(stats['stale_fetches'])}  "
          f"failed: {int(stats['fetch_failures'])}  "
          f"updates lost: {int(stats['updates_lost'])}")
    print(f"under-replicated shards now: "
          f"{int(stats['under_replicated_shards'])}; "
          f"repairs completed: {int(stats['repairs_completed'])}")
    if tier.repair_times:
        worst = max(tier.repair_times)
        print(f"time-to-repair: worst {worst:.1f}s over "
              f"{len(tier.repair_times)} incidents "
              f"(deadline {config.repair_deadline:.0f}s: "
              f"{'OK' if worst <= config.repair_deadline else 'MISSED'})")
    crit = stats["critical_path_seconds"]
    if crit > 0:
        print(f"parallel flush: critical path {crit:.3f}s of "
              f"{stats['total_node_seconds']:.3f}s total node time "
              f"({stats['total_node_seconds'] / crit:.2f}x overlap)")
    federation.stop()
    return 0


def _cmd_analytics(args: argparse.Namespace) -> int:
    from repro.analytics.replay import default_schedule, run_replay

    schedule = default_schedule(
        hosts=args.hosts, duration=args.duration, storage=args.storage
    )
    result = run_replay(
        schedule,
        seed=args.seed,
        storage=args.storage,
        window_rows=args.window_rows,
        horizon=args.horizon,
    )
    path = "storage-tier shard readout" if args.storage else "columnar bank"
    print(f"analytics replay: {result.hosts} hosts, "
          f"{result.duration:.0f}s, {path}")
    for ramp in result.ramps:
        lead = "n/a" if ramp.lead is None else f"{ramp.lead:7.1f}s"
        static_t = "never" if ramp.static_fire is None else f"{ramp.static_fire:.0f}s"
        pred_t = (
            "never" if ramp.predictive_fire is None
            else f"{ramp.predictive_fire:.0f}s"
        )
        print(f"  ramp host {ramp.host} [{ramp.start:.0f}..{ramp.end:.0f}s]: "
              f"static fired {static_t}, predictive {pred_t}, lead {lead}")
    print(f"median detection lead: {result.median_lead:.1f}s "
          f"(predictive fires {result.predictive_fires}, "
          f"static fires {result.static_fires})")
    print(f"false positives: {result.false_positives} of "
          f"{result.evaluation_windows} evaluation windows "
          f"({100.0 * result.fp_rate:.2f}%)")
    print(f"analytics passes: {result.analytics_passes} "
          f"({result.analytics_series} series per pass)")
    if args.verbose:
        for line in result.notifications:
            print(line)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.bench.calibration import calibrate_capacity, measure_root_cpu

    capacity = calibrate_capacity(
        target_percent=args.target, hosts_per_cluster=args.hosts,
        window=args.window,
    )
    achieved = measure_root_cpu(
        capacity=capacity, hosts_per_cluster=args.hosts, window=args.window
    )
    print(f"capacity for 1-level root at {args.target}% CPU "
          f"({args.hosts}-host clusters): {capacity:.3e} units/s "
          f"(achieves {achieved:.2f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-sim argument parser (one sub-parser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Ganglia wide-area monitoring reproduction (CLUSTER 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("which", choices=("fig5", "fig6", "table1", "all"))
    _add_common(p)
    p.add_argument("--paper-sizes", action="store_true",
                   help="fig6: use the paper's 10..500 host sizes (slow)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "pubsub", help="compare push vs poll delivery at equal freshness"
    )
    p.add_argument("--clusters", type=int, nargs="+", default=[2, 4, 8],
                   help="federation widths to sweep (default 2 4 8)")
    p.add_argument("--change-interval", type=float, default=240.0,
                   help="seconds between metric value changes (default 240)")
    p.add_argument("--csv", default=None,
                   help="also write the series to this CSV file")
    _add_common(p)
    p.set_defaults(func=_cmd_pubsub)

    p = sub.add_parser("run", help="run the Fig. 2 federation once")
    p.add_argument("--design", choices=("nlevel", "1level"), default="nlevel")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("query", help="issue one path query")
    p.add_argument("query", help="e.g. '/sdsc-c0/sdsc-c0-0-3/load_one'")
    p.add_argument("--at", default="sdsc", help="gmetad to ask (default sdsc)")
    p.add_argument("--design", choices=("nlevel", "1level"), default="nlevel")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "trace", help="dump trace spans (JSONL) from an observed federation"
    )
    p.add_argument("--out", default=None,
                   help="write the JSONL dump here instead of stdout")
    p.add_argument("--capacity", type=int, default=4096,
                   help="per-daemon trace buffer capacity (default 4096)")
    p.add_argument("--drift-interval", type=float, default=60.0,
                   help="drift-auditor sweep interval, 0 disables")
    p.add_argument("--eager", action="store_true",
                   help="trace the eager baseline instead of incremental")
    p.add_argument("--design", choices=("nlevel", "1level"), default="nlevel")
    _add_common(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("check-gmetad-conf", help="parse a gmetad.conf")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_gmetad)

    p = sub.add_parser("check-gmond-conf", help="parse a gmond.conf")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_gmond)

    p = sub.add_parser("gstat", help="print federation/cluster status")
    p.add_argument("--at", default="root", help="gmetad to inspect")
    p.add_argument("--source", default=None, help="limit to one data source")
    p.add_argument("--hosts-detail", action="store_true",
                   help="list individual hosts")
    p.add_argument("--design", choices=("nlevel", "1level"), default="nlevel")
    _add_common(p)
    p.set_defaults(func=_cmd_gstat)

    p = sub.add_parser(
        "readtier",
        help="replicated read tier + viewer fleet over the Fig. 2 tree",
    )
    p.add_argument("--at", default="root",
                   help="which gmetad gets the read tier (default root)")
    p.add_argument("--replicas", type=int, default=4)
    p.add_argument("--clients", type=int, default=2000,
                   help="viewer fleet size (folded into aggregators)")
    p.add_argument("--qps", type=float, default=0.02,
                   help="per-client query rate (default 0.02)")
    p.add_argument("--design", choices=("nlevel", "1level"), default="nlevel")
    _add_common(p)
    p.set_defaults(func=_cmd_readtier)

    p = sub.add_parser(
        "storage",
        help="sharded+replicated storage tier under a node-kill schedule",
    )
    p.add_argument("--at", default="sdsc",
                   help="which gmetad's tier to inspect (default sdsc)")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--shards", type=int, default=16)
    p.add_argument("--replication", type=int, default=2)
    p.add_argument("--repair-interval", type=float, default=15.0)
    p.add_argument("--design", choices=("nlevel", "1level"), default="nlevel")
    _add_common(p)
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser(
        "analytics",
        help="replay fault schedules: predictive vs static alerting",
    )
    p.add_argument("--hosts", type=int, default=8,
                   help="emulated hosts in the replay cluster (default 8)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--duration", type=float, default=900.0,
                   help="simulated seconds to replay (default 900)")
    p.add_argument("--window-rows", type=int, default=8,
                   help="archive rows per analytics window (default 8)")
    p.add_argument("--horizon", type=float, default=120.0,
                   help="predict_cross horizon, seconds (default 120)")
    p.add_argument("--storage", action="store_true",
                   help="archive through a storage tier and kill a node")
    p.add_argument("--verbose", action="store_true",
                   help="also print every alarm notification")
    p.set_defaults(func=_cmd_analytics)

    p = sub.add_parser("calibrate", help="re-derive the CPU capacity anchor")
    p.add_argument("--target", type=float, default=14.0)
    p.add_argument("--hosts", type=int, default=100)
    p.add_argument("--window", type=float, default=90.0)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
