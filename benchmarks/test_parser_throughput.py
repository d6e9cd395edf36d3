"""Ablation: parsing and summarization throughput (§2.3.1).

Gmetad parses every source's XML every polling cycle "in the
background"; these benchmarks measure the real wall-clock throughput of
that pipeline -- the streaming parse, the tree build, the additive
reduction, and serialization -- on a 100-host cluster document, plus
two 500-host rows: the columnar serve path's per-poll fragment
re-render (an arena install at 100 % churn), and a validated columnar
parse, which takes the tree route (the bulk lane never validates).
Each report row is the median of seven timed calls after one untimed
warm-up.
"""

import itertools
import statistics

import pytest

from repro.bench.reporting import format_table
from repro.columnar import InternPool, summarize_columns
from repro.core.summarize import summarize_cluster
from repro.gmond.pseudo import PseudoGmond
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.serve.arena import FragmentArena
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.parser import (
    CountingHandler,
    GangliaParser,
    TreeBuilder,
    parse_columnar,
)
from repro.wire.writer import write_document


@pytest.fixture(scope="module")
def payload():
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(5)
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", num_hosts=100, rng=rngs.stream("pg")
    )
    xml = pseudo.current_xml()
    builder = TreeBuilder()
    GangliaParser(validate=False).parse(xml, builder)
    return xml, builder.document


@pytest.fixture(scope="module")
def churned_cluster():
    """Two successive polls of a 500-host cluster, every host re-drawn
    in between: (columns of each poll, XML of the second)."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", num_hosts=500,
        rng=RngRegistry(5).stream("pg"),
    )
    polls = [pseudo.current_xml(0.0)]
    pseudo.mutate(fraction=1.0, now=7.0)
    polls.append(pseudo.current_xml(15.0))
    pool = InternPool()
    cols = [parse_columnar(xml, pool=pool, validate=False).clusters[0] for xml in polls]
    assert cols[1].same_layout(cols[0])
    return cols, polls[1]


def _churn_installs(cols):
    """An arena and a callable installing the two polls alternately:
    after the first, every install re-renders every host."""
    arena = FragmentArena()
    arena.install(cols[0])
    polls = itertools.cycle([cols[1], cols[0]])
    return arena, lambda: arena.install(next(polls))


def test_throughput_report_columnar_and_tree(
    payload, churned_cluster, save_report, benchmark
):
    import time

    xml, doc = payload

    def rate(fn, repeats=7):
        """Calls/s: one untimed warm-up, then the median timed call."""
        fn()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1.0 / statistics.median(times)

    scan_rate = rate(
        lambda: GangliaParser(validate=False).parse(xml, CountingHandler())
    )
    build_rate = rate(
        lambda: GangliaParser(validate=False).parse(xml, TreeBuilder())
    )
    validate_rate = rate(
        lambda: GangliaParser(validate=True).parse(xml, TreeBuilder())
    )
    cluster = list(doc.clusters.values())[0]
    summarize_rate = rate(lambda: summarize_cluster(cluster))
    write_rate = rate(lambda: write_document(doc))
    # columnar fast path: shared pool, like the daemon's per-source reuse
    # (rate's warm-up call fills it)
    pool = InternPool()
    columnar_rate = rate(
        lambda: parse_columnar(xml, pool=pool, validate=False)
    )
    cols = parse_columnar(xml, pool=pool, validate=False).clusters[0]
    columnar_summarize_rate = rate(lambda: summarize_columns(cols))
    churned, churned_xml = churned_cluster
    churned_bytes = len(churned_xml)
    arena, install = _churn_installs(churned)
    install_rate = rate(install)
    assert arena.templates_built == 1
    # validation on: the whole document takes the tree route
    validated_rate = rate(
        lambda: parse_columnar(churned_xml, pool=pool, validate=True)
    )
    mb = len(xml) / 1e6
    save_report(
        "parser_throughput",
        format_table(
            ["stage", "docs/s", "MB/s"],
            [
                ("tokenize only", scan_rate, scan_rate * mb),
                ("tokenize + tree build", build_rate, build_rate * mb),
                ("tokenize + build + DTD validate", validate_rate, validate_rate * mb),
                ("columnar parse (bulk lane)", columnar_rate, columnar_rate * mb),
                (
                    "validated columnar parse, 500 hosts",
                    validated_rate,
                    validated_rate * churned_bytes / 1e6,
                ),
                (
                    "columnar install (templated render), 500 hosts, 100% churn",
                    install_rate,
                    install_rate * churned_bytes / 1e6,
                ),
                ("summarize (3000 samples)", summarize_rate, summarize_rate * mb),
                (
                    "columnar summarize (vectorized)",
                    columnar_summarize_rate,
                    columnar_summarize_rate * mb,
                ),
                ("serialize", write_rate, write_rate * mb),
            ],
            title=f"Wire pipeline throughput on a 100-host document ({mb:.2f} MB)",
        ),
    )
    benchmark.pedantic(
        lambda: GangliaParser(validate=False).parse(xml, TreeBuilder()),
        rounds=3,
        iterations=1,
    )


def test_benchmark_tree_build(benchmark, payload):
    xml, _ = payload

    def build():
        builder = TreeBuilder()
        GangliaParser(validate=False).parse(xml, builder)
        return builder.document

    doc = benchmark(build)
    assert doc.host_count == 100


def test_benchmark_summarize(benchmark, payload):
    _, doc = payload
    cluster = list(doc.clusters.values())[0]
    summary, samples = benchmark(lambda: summarize_cluster(cluster))
    assert samples > 2000


def test_benchmark_serialize(benchmark, payload):
    _, doc = payload
    xml = benchmark(lambda: write_document(doc))
    assert len(xml) > 100_000


def test_benchmark_columnar_parse(benchmark, payload):
    xml, _ = payload
    pool = InternPool()
    parse_columnar(xml, pool=pool, validate=False)  # warm the pool
    cdoc = benchmark(lambda: parse_columnar(xml, pool=pool, validate=False))
    assert cdoc.clusters[0].host_count == 100


def test_benchmark_columnar_install(benchmark, churned_cluster):
    cols, _ = churned_cluster
    arena, install = _churn_installs(cols)
    invalidated = arena.frag_invalidations
    benchmark(install)
    assert arena.frag_invalidations - invalidated >= 500  # every host, each time


def test_benchmark_columnar_summarize(benchmark, payload):
    xml, _ = payload
    cols = parse_columnar(xml, validate=False).clusters[0]
    summary, samples = benchmark(lambda: summarize_columns(cols))
    assert samples > 2000


def test_columnar_parse_outruns_the_tree_build(payload):
    """The point of the fast path: on the ingest-shaped document the
    bulk-lane parse beats DOM construction."""
    import time

    xml, _ = payload
    pool = InternPool()
    parse_columnar(xml, pool=pool, validate=False)  # warm

    def timed(fn, repeats=3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats

    tree = timed(lambda: GangliaParser(validate=False).parse(xml, TreeBuilder()))
    cols = timed(lambda: parse_columnar(xml, pool=pool, validate=False))
    assert cols < tree


def test_parse_faster_than_the_php_model_assumes(payload):
    """Sanity: our parser outruns the 1 MB/s PHP-era coefficient, so the
    Table-1 viewer costs are conservative translations, not limited by
    our implementation."""
    import time

    xml, _ = payload
    start = time.perf_counter()
    for _ in range(3):
        GangliaParser(validate=False).parse(xml, TreeBuilder())
    elapsed = (time.perf_counter() - start) / 3
    assert len(xml) / elapsed > 2e6  # > 2 MB/s
