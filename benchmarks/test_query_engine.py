"""Ablation: query-engine asymptotics (§2.3.2).

"These hash lookups complete in O(1) time, however the time to dump the
actual data takes longer.  Serving a grid or cluster summary takes O(m)
time to complete since summaries are the size of data from a single
host.  The time to complete a full-resolution cluster query is
proportional to the cluster size, and takes O(H) operations."

Measured with real wall-clock on the real engine:

- host/metric queries: latency independent of how many sources the
  datastore holds (hash lookups);
- cluster-summary queries: latency independent of H;
- full cluster queries: latency linear in H.
"""

import time

import pytest

from repro.bench.reporting import format_table
from repro.columnar import InternPool
from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.query import GmetadQuery, QueryEngine
from repro.core.summarize import summarize_cluster
from repro.metrics.types import MetricType
from repro.wire.model import ClusterElement, HostElement, MetricElement


def build_datastore(num_sources: int, hosts_per_cluster: int) -> Datastore:
    datastore = Datastore()
    pool = InternPool()
    for s in range(num_sources):
        cluster = ClusterElement(name=f"c{s}", localtime=0.0)
        for h in range(hosts_per_cluster):
            host = HostElement(name=f"c{s}-h{h}", tn=1.0)
            for m in range(30):
                host.add_metric(
                    MetricElement(f"metric_{m}", "1.5", MetricType.FLOAT)
                )
            cluster.add_host(host)
        summary, _ = summarize_cluster(cluster)
        cluster.summary = summary
        datastore.install(
            SourceSnapshot.from_cluster(
                cluster, pool, name=f"c{s}", summary=summary
            ),
            now=0.0,
        )
    return datastore


def timed(engine, query, repeats=200):
    parsed = GmetadQuery.parse(query)
    start = time.perf_counter()
    for _ in range(repeats):
        engine.execute(parsed, 0.0)
    return (time.perf_counter() - start) / repeats


@pytest.fixture(scope="module")
def engines():
    return {
        (sources, hosts): QueryEngine(
            build_datastore(sources, hosts), "G", "http://g:8651/"
        )
        for sources, hosts in [(4, 50), (64, 50), (4, 200)]
    }


def test_query_cost_report(engines, save_report, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for (sources, hosts), engine in engines.items():
        for query in ("/c0/c0-h0/metric_0", "/c0?filter=summary", "/c0"):
            rows.append((sources, hosts, query, timed(engine, query) * 1e6))
    save_report(
        "query_engine",
        format_table(
            ["sources", "hosts", "query", "mean us"],
            rows,
            title="Query engine latency (real wall-clock)",
        ),
    )


def test_metric_lookup_independent_of_source_count(engines):
    few = timed(engines[(4, 50)], "/c0/c0-h0/metric_0")
    many = timed(engines[(64, 50)], "/c0/c0-h0/metric_0")
    assert many < 3 * few  # O(1) in the number of sources


def test_summary_dump_independent_of_cluster_size(engines):
    small = timed(engines[(4, 50)], "/c0?filter=summary")
    large = timed(engines[(4, 200)], "/c0?filter=summary")
    assert large < 2.5 * small  # O(m), not O(H m)


def test_full_cluster_dump_linear_in_hosts(engines):
    small = timed(engines[(4, 50)], "/c0", repeats=30)
    large = timed(engines[(4, 200)], "/c0", repeats=30)
    ratio = large / small
    assert 2.0 < ratio < 8.0  # ~4x hosts -> ~4x time


def test_summary_much_cheaper_than_full_dump(engines):
    engine = engines[(4, 200)]
    summary = timed(engine, "/c0?filter=summary", repeats=50)
    full = timed(engine, "/c0", repeats=50)
    assert summary < full / 5


def test_benchmark_host_query(benchmark, engines):
    engine = engines[(64, 50)]
    query = GmetadQuery.parse("/c3/c3-h7/metric_5")
    result = benchmark(lambda: engine.execute(query, 0.0))
    assert result[1].found


def test_benchmark_meta_summary_query(benchmark, engines):
    engine = engines[(64, 50)]
    query = GmetadQuery.parse("/?filter=summary")
    result = benchmark(lambda: engine.execute(query, 0.0))
    assert "HOSTS" in result[0]
