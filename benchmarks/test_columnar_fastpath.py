"""Columnar ingest fast path vs the tree baseline: cluster-size sweep.

The gmetad ingest pipeline -- parse the poll response, reduce it to a
summary, land every sample in the RRD store -- runs once per source per
poll interval, and §2.3.1/§4 charge it as the daemon's dominant
recurring cost.  This sweep measures the real wall-clock cost of that
pipeline at 100/500/1000 hosts, four ways:

- ``tree``: TreeBuilder DOM parse -> ``columns_from_cluster`` ->
  vectorized summarize -> one batch scatter per poll (the daemon's
  route for a tree-parsed poll, ``GmetadConfig.columnar`` off);
- ``columnar``: bulk-lane parse straight into structure-of-arrays ->
  vectorized summarize -> one batch scatter per poll
  (``GmetadConfig.columnar``);

each crossed with the summarization mode: ``eager`` (full additive
reduction every poll) and ``incremental`` (the delta tracker re-folds
only changed hosts; 10% of hosts mutate between polls).  Past the parse
both arms run the same code, so the gap is the parser's.  Every mode
consumes the *same* pre-generated XML poll sequence and the same real
``Archiver``/``RrdStore`` machinery the daemon uses.

Acceptance (asserted below): at 1000 hosts the columnar pipeline is
>= 3x faster than the tree pipeline in the eager pairing, produces
bit-identical summary wire bytes, and issues the same number of RRD
updates.  The sweep is written to ``BENCH_columnar.json`` at the repo
root and a table to ``benchmarks/out/columnar_fastpath.txt``.  A
CI-sized spot check runs as ``pytest benchmarks/test_columnar_fastpath.py
-m smoke``.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.columnar import (
    ColumnarSummaryTracker,
    InternPool,
    columns_from_cluster,
    summarize_columns,
)
from repro.core.archiver import Archiver
from repro.gmond.pseudo import PseudoGmond
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.rrd.database import compact_rra_specs
from repro.rrd.store import RrdStore
from repro.sim.engine import Engine
from repro.sim.resources import CostModel
from repro.sim.rng import RngRegistry
from repro.wire.parser import GangliaParser, TreeBuilder, parse_columnar
from repro.wire.writer import XmlWriter

SIZES = (100, 500, 1000)
POLLS = 8  # measured polls per mode (plus one warmup)
CHURN = 0.1  # fraction of hosts mutated between polls
POLL_INTERVAL = 15.0
HEARTBEAT = 80.0

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_columnar.json"


def poll_sequence(hosts: int, polls: int = POLLS + 1) -> List[str]:
    """The same recorded poll trace every mode consumes."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(14)
    pseudo = PseudoGmond(
        engine, fabric, tcp, "sweep", num_hosts=hosts, rng=rngs.stream("pg")
    )
    xmls = [pseudo.current_xml()]
    for _ in range(polls - 1):
        pseudo.mutate(fraction=CHURN)
        xmls.append(pseudo.current_xml())
    return xmls


@dataclass
class Run:
    """One (size, parse path, summarize mode) measurement."""

    seconds: float          # wall-clock for the measured polls
    summary_bytes: bytes    # final poll's summary wire form
    rrd_updates: int        # store update count across the run
    doc_bytes: int          # size of one poll document


def summary_wire(summary) -> bytes:
    writer = XmlWriter()
    writer.summary_info(summary)
    return writer.result().encode()


def run_pipeline(xmls: List[str], columnar: bool, incremental: bool) -> Run:
    """Feed the recorded polls through the real ingest machinery."""
    store = RrdStore(mode="full", rra_specs=compact_rra_specs())
    archiver = Archiver(
        store, charge=lambda cost, cat: 0.0, costs=CostModel(),
        heartbeat_window=HEARTBEAT,
    )
    pool = InternPool()
    tracker = ColumnarSummaryTracker(HEARTBEAT) if incremental else None

    summary = None
    elapsed = 0.0
    for i, xml in enumerate(xmls):
        t = i * POLL_INTERVAL
        start = time.perf_counter()
        if columnar:
            cols = parse_columnar(xml, pool=pool, validate=False).clusters[0]
        else:
            builder = TreeBuilder()
            GangliaParser(validate=False).parse(xml, builder)
            cluster = next(iter(builder.document.clusters.values()))
            cols = columns_from_cluster(cluster, pool)
        if tracker is not None:
            summary, _ = tracker.update(cols)
        else:
            summary, _ = summarize_columns(cols, HEARTBEAT)
        archiver.archive_cluster_detail_columns("src", cols, t)
        archiver.archive_summary("src", cols.name, summary, t)
        if i > 0:  # poll 0 is warmup: store/plan/pool/tracker cold starts
            elapsed += time.perf_counter() - start
    return Run(
        seconds=elapsed,
        summary_bytes=summary_wire(summary),
        rrd_updates=store.update_count,
        doc_bytes=len(xmls[-1]),
    )


def measure_size(hosts: int, polls: int = POLLS + 1) -> Dict[str, Run]:
    xmls = poll_sequence(hosts, polls)
    runs = {}
    for label, columnar, incremental in (
        ("tree_eager", False, False),
        ("columnar_eager", True, False),
        ("tree_incremental", False, True),
        ("columnar_incremental", True, True),
    ):
        runs[label] = run_pipeline(xmls, columnar, incremental)
    return runs


@pytest.fixture(scope="module")
def sweep() -> Dict[int, Dict[str, Run]]:
    return {hosts: measure_size(hosts) for hosts in SIZES}


def render(sweep: Dict[int, Dict[str, Run]]) -> str:
    lines = [
        "Columnar ingest fast path: parse+summarize+archive pipeline, "
        f"{POLLS} polls, {CHURN:.0%} host churn/poll",
        "",
        f"{'hosts':>6} {'doc MB':>7} "
        f"{'tree eag':>9} {'col eag':>8} {'speedup':>8} "
        f"{'tree inc':>9} {'col inc':>8} {'speedup':>8}",
    ]
    for hosts in SIZES:
        runs = sweep[hosts]
        te, ce = runs["tree_eager"], runs["columnar_eager"]
        ti, ci = runs["tree_incremental"], runs["columnar_incremental"]
        lines.append(
            f"{hosts:>6} {te.doc_bytes / 1e6:>6.2f} "
            f"{te.seconds:>8.2f}s {ce.seconds:>7.2f}s "
            f"{te.seconds / ce.seconds:>7.1f}x "
            f"{ti.seconds:>8.2f}s {ci.seconds:>7.2f}s "
            f"{ti.seconds / ci.seconds:>7.1f}x"
        )
    return "\n".join(lines)


def sweep_json(sweep: Dict[int, Dict[str, Run]]) -> dict:
    rows: List[dict] = []
    for hosts in SIZES:
        runs = sweep[hosts]
        te, ce = runs["tree_eager"], runs["columnar_eager"]
        ti, ci = runs["tree_incremental"], runs["columnar_incremental"]
        rows.append(
            {
                "hosts": hosts,
                "doc_bytes": te.doc_bytes,
                "tree_eager_seconds": round(te.seconds, 4),
                "columnar_eager_seconds": round(ce.seconds, 4),
                "eager_speedup": round(te.seconds / ce.seconds, 2),
                "tree_incremental_seconds": round(ti.seconds, 4),
                "columnar_incremental_seconds": round(ci.seconds, 4),
                "incremental_speedup": round(ti.seconds / ci.seconds, 2),
                "rrd_updates": te.rrd_updates,
                # columnar-on vs columnar-off, within each summarize mode
                # (eager vs incremental totals differ below wire precision
                # by design; see test_columnar_agrees_with_tree_*)
                "eager_wire_identical": ce.summary_bytes == te.summary_bytes,
                "incremental_wire_identical": ci.summary_bytes
                == ti.summary_bytes,
            }
        )
    return {
        "benchmark": "columnar_fastpath",
        "pipeline": "parse+summarize+archive",
        "polls": POLLS,
        "churn_fraction": CHURN,
        "poll_interval_seconds": POLL_INTERVAL,
        "rows": rows,
    }


def test_columnar_fastpath_report(sweep, save_report, bench_env):
    """Regenerates the sweep table and the committed JSON artifact."""
    save_report("columnar_fastpath", render(sweep))
    payload = {**sweep_json(sweep), "environment": bench_env}
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {JSON_PATH}]")


def test_speedup_at_1000_hosts(sweep):
    """The acceptance bar: >= 3x over the tree path at 1000 hosts."""
    runs = sweep[1000]
    speedup = runs["tree_eager"].seconds / runs["columnar_eager"].seconds
    assert speedup >= 3.0, (
        f"eager pairing only {speedup:.1f}x "
        f"({runs['tree_eager'].seconds:.2f}s vs "
        f"{runs['columnar_eager'].seconds:.2f}s)"
    )
    assert (
        runs["tree_incremental"].seconds
        > runs["columnar_incremental"].seconds
    )


def test_columnar_agrees_with_tree_at_every_size(sweep):
    """Not a benchmark of different answers: within each summarization
    mode the columnar path produced byte-identical summary wire and the
    same number of RRD updates as its tree twin, so both parsers built
    the same columns.  (Eager and incremental are compared within, not
    across, pairings -- the tracker's Neumaier-compensated totals and
    the eager in-order fold legitimately differ below wire precision at
    small N and above it at 1000 hosts x 1e12-scale SUMs.)"""
    for hosts, runs in sweep.items():
        for mode in ("eager", "incremental"):
            tree, cols = runs[f"tree_{mode}"], runs[f"columnar_{mode}"]
            assert cols.summary_bytes == tree.summary_bytes, (hosts, mode)
            assert cols.rrd_updates == tree.rrd_updates, (hosts, mode)


def test_speedup_grows_with_cluster_size(sweep):
    """The win is per-row Python overhead, so it must not shrink as the
    document grows (the kernel amortizes better at scale)."""
    eager = [
        sweep[h]["tree_eager"].seconds / sweep[h]["columnar_eager"].seconds
        for h in SIZES
    ]
    assert eager[-1] >= eager[0] * 0.8  # allow noise, forbid collapse


@pytest.mark.smoke
def test_smoke_small_scale():
    """CI-sized spot check (<15s): fast path wins and agrees at 100
    hosts."""
    runs = measure_size(100, polls=4)
    assert (
        runs["columnar_eager"].seconds < runs["tree_eager"].seconds
    )
    for mode in ("eager", "incremental"):
        tree, cols = runs[f"tree_{mode}"], runs[f"columnar_{mode}"]
        assert cols.summary_bytes == tree.summary_bytes, mode
        assert cols.rrd_updates == tree.rrd_updates, mode
