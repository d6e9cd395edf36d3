"""Differential/property suite for the columnar ingest fast path.

Every test feeds the same serialized wire bytes down two routes and
requires *bit-for-bit* agreement -- not wire-format agreement, raw float
identity (``struct.pack``), because any drift, however small, will
eventually surface as a byte diff under 4-decimal formatting:

- eager kernels: ``summarize_columns`` on the fast-lane parse against
  the scalar ``summarize_cluster`` reference on the tree parse;
- the delta tracker: one ``ColumnarSummaryTracker`` fed the fast lane
  (``parse_columnar``) and another fed the tree route (``parse_document``
  then ``columns_from_cluster``, what ``Gmetad.ingest`` does for a
  tree-parsed poll) must agree in summaries and op counts, and both
  must match the eager fold of the same bytes on the wire.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ColumnarSummaryTracker,
    InternPool,
    columns_from_cluster,
    summarize_columns,
)
from repro.core.summarize import summarize_cluster
from repro.metrics.types import MetricType
from repro.obs.drift import summary_wire_form
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    HostElement,
    MetricElement,
)
from repro.wire.parser import ColumnarFallback, ParseError, parse_columnar, parse_document
from repro.wire.writer import write_document

WINDOW = 80.0


def bits(x: float) -> bytes:
    """The exact bit pattern -- distinguishes -0.0 from 0.0 and NaNs."""
    return struct.pack("<d", x)


def wire(cluster: ClusterElement) -> str:
    """Serialize one cluster as a full poll response."""
    doc = GangliaDocument(version="2.5.7", source="gmond")
    doc.clusters[cluster.name] = cluster
    return write_document(doc)


def make_cluster(hosts, name="meteor"):
    """``hosts``: name -> (tn, [(metric, val, mtype), ...])."""
    cluster = ClusterElement(name=name, localtime=100.0)
    for host_name, (tn, metrics) in hosts.items():
        host = HostElement(name=host_name, tn=tn, reported=99.0)
        for metric_name, val, mtype in metrics:
            host.add_metric(MetricElement(metric_name, val, mtype))
        cluster.add_host(host)
    return cluster


def assert_summaries_bit_identical(columnar, scalar):
    assert columnar.hosts_up == scalar.hosts_up
    assert columnar.hosts_down == scalar.hosts_down
    assert list(columnar.metrics) == list(scalar.metrics)  # dict ORDER too
    for name, ms in scalar.metrics.items():
        ours = columnar.metrics[name]
        assert ours.num == ms.num
        assert bits(ours.total) == bits(ms.total), (
            f"{name}: {ours.total!r} != {ms.total!r}"
        )
        assert (ours.mtype, ours.units, ours.slope) == (
            ms.mtype, ms.units, ms.slope,
        )


def both_summaries(cluster):
    """(columnar, scalar) eager summaries of the same wire bytes."""
    xml = wire(cluster)
    cdoc = parse_columnar(xml)
    doc = parse_document(xml)
    (cols,) = cdoc.clusters
    (tree,) = doc.clusters.values()
    c_summary, c_ops = summarize_columns(cols, WINDOW)
    s_summary, s_ops = summarize_cluster(tree, WINDOW)
    assert c_ops == s_ops  # CPU charge parity
    return c_summary, s_summary


class TestParserDifferential:
    def test_materialized_columns_rebuild_identical_document(self):
        cluster = make_cluster({
            "h0": (1.0, [("load_one", "0.35", MetricType.FLOAT),
                         ("os_name", "Linux", MetricType.STRING)]),
            "h1": (200.0, [("load_one", "2.0", MetricType.FLOAT)]),
        })
        xml = wire(cluster)
        cdoc = parse_columnar(xml)
        rebuilt = ClusterElement(
            name=cdoc.clusters[0].name,
            owner=cdoc.clusters[0].owner,
            localtime=cdoc.clusters[0].localtime,
            url=cdoc.clusters[0].url,
        )
        cdoc.clusters[0].materialize_into(rebuilt)
        doc = GangliaDocument(version=cdoc.version, source=cdoc.source)
        doc.clusters[rebuilt.name] = rebuilt
        assert write_document(doc) == xml

    def test_element_count_matches_tree_accounting(self):
        from repro.core.gmetad_base import document_element_count

        cluster = make_cluster({
            f"h{i}": (1.0, [("load_one", "1.0", MetricType.FLOAT),
                            ("cpu_num", "4", MetricType.UINT16)])
            for i in range(7)
        })
        xml = wire(cluster)
        assert parse_columnar(xml).element_count == document_element_count(
            parse_document(xml)
        )

    def test_intern_pool_ids_stable_across_polls(self):
        pool = InternPool()
        xml = wire(make_cluster(
            {"h0": (1.0, [("load_one", "1.0", MetricType.FLOAT)])}
        ))
        first = parse_columnar(xml, pool=pool)
        second = parse_columnar(xml, pool=pool)
        assert first.clusters[0].name_ids[0] == second.clusters[0].name_ids[0]
        assert first.clusters[0].same_layout(second.clusters[0])

    def test_grid_and_summary_shapes_fall_back(self):
        grid_xml = (
            '<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">'
            '<GRID NAME="g" AUTHORITY="http://x/"></GRID></GANGLIA_XML>'
        )
        with pytest.raises(ColumnarFallback):
            parse_columnar(grid_xml)
        summary_xml = (
            '<GANGLIA_XML VERSION="2.5.7" SOURCE="gmond">'
            '<CLUSTER NAME="c" LOCALTIME="1">'
            '<HOSTS UP="1" DOWN="0"/></CLUSTER></GANGLIA_XML>'
        )
        with pytest.raises(ColumnarFallback):
            parse_columnar(summary_xml)

    def test_duplicate_host_last_subtree_wins(self):
        # the tree's add_host replaces the earlier subtree at its first
        # position; the columns are the tree's, whichever route parsed
        xml = (
            '<GANGLIA_XML VERSION="2.5.7" SOURCE="gmond">'
            '<CLUSTER NAME="c" LOCALTIME="1">'
            '<HOST NAME="h" REPORTED="1" TN="1">'
            '<METRIC NAME="a" VAL="1" TYPE="float"/></HOST>'
            '<HOST NAME="g" REPORTED="1" TN="1"/>'
            '<HOST NAME="h" REPORTED="2" TN="3">'
            '<METRIC NAME="b" VAL="7" TYPE="float"/></HOST>'
            "</CLUSTER></GANGLIA_XML>"
        )
        for validate in (False, True):
            cols = parse_columnar(xml, validate=validate).clusters[0]
            assert cols.host_names == ["h", "g"]
            assert cols.host_tn.tolist() == [3.0, 1.0]
            assert cols.host_row_start.tolist() == [0, 1, 1]
            assert cols.vals_raw.tolist() == ["7"]
            tree = next(iter(parse_document(xml, validate).clusters.values()))
            assert cols.materialize_into(cols.shell_cluster()).hosts == tree.hosts

    def test_parse_error_parity_on_malformed_documents(self):
        bad = [
            # unknown element
            '<GANGLIA_XML VERSION="1" SOURCE="g"><BOGUS/></GANGLIA_XML>',
            # bad numeric attribute
            '<GANGLIA_XML VERSION="1" SOURCE="g">'
            '<CLUSTER NAME="c" LOCALTIME="1">'
            '<HOST NAME="h" REPORTED="1" TN="soup"/>'
            "</CLUSTER></GANGLIA_XML>",
            # unknown metric TYPE
            '<GANGLIA_XML VERSION="1" SOURCE="g">'
            '<CLUSTER NAME="c" LOCALTIME="1">'
            '<HOST NAME="h" REPORTED="1" TN="1">'
            '<METRIC NAME="m" VAL="1" TYPE="complex128"/>'
            "</HOST></CLUSTER></GANGLIA_XML>",
        ]
        for xml in bad:
            with pytest.raises(ParseError) as tree_err:
                parse_document(xml)
            with pytest.raises(ParseError) as col_err:
                parse_columnar(xml)
            assert str(col_err.value) == str(tree_err.value)

    def test_duplicate_metric_last_value_first_position(self):
        # TreeBuilder dedups via dict assignment: last VAL wins, first
        # document position kept -- the columnar row overwrite must match
        xml = (
            '<GANGLIA_XML VERSION="1" SOURCE="g">'
            '<CLUSTER NAME="c" LOCALTIME="1">'
            '<HOST NAME="h" REPORTED="1" TN="1">'
            '<METRIC NAME="a" VAL="1" TYPE="float"/>'
            '<METRIC NAME="b" VAL="2" TYPE="float"/>'
            '<METRIC NAME="a" VAL="9" TYPE="float"/>'
            "</HOST></CLUSTER></GANGLIA_XML>"
        )
        cols = parse_columnar(xml).clusters[0]
        tree = next(iter(parse_document(xml).clusters.values()))
        host = next(iter(tree.hosts.values()))
        assert [m.val for m in host.metrics.values()] == ["9", "2"]
        assert cols.row_count == 2
        assert cols.vals_raw[0] == "9" and cols.vals_raw[1] == "2"
        c, s = both_summaries(tree)
        assert_summaries_bit_identical(c, s)


class TestEagerSummarizeDifferential:
    def test_basic_mixed_cluster(self):
        c, s = both_summaries(make_cluster({
            "h0": (1.0, [("load_one", "0.35", MetricType.FLOAT),
                         ("cpu_num", "4", MetricType.UINT16)]),
            "h1": (2.0, [("load_one", "1.25", MetricType.FLOAT)]),
        }))
        assert_summaries_bit_identical(c, s)

    def test_nan_values_participate(self):
        # "nan" parses as float and joins the reduction, like the scalar
        c, s = both_summaries(make_cluster({
            "h0": (1.0, [("load_one", "nan", MetricType.FLOAT)]),
            "h1": (1.0, [("load_one", "1.0", MetricType.FLOAT)]),
        }))
        assert math.isnan(s.metrics["load_one"].total)
        assert_summaries_bit_identical(c, s)

    def test_string_metrics_excluded(self):
        c, s = both_summaries(make_cluster({
            "h0": (1.0, [("os_name", "Linux", MetricType.STRING),
                         ("load_one", "1.0", MetricType.FLOAT)]),
        }))
        assert "os_name" not in s.metrics
        assert_summaries_bit_identical(c, s)

    def test_down_hosts_counted_but_not_folded(self):
        c, s = both_summaries(make_cluster({
            "h0": (1.0, [("load_one", "1.0", MetricType.FLOAT)]),
            "h1": (500.0, [("load_one", "99.0", MetricType.FLOAT)]),
        }))
        assert (s.hosts_up, s.hosts_down) == (1, 1)
        assert bits(s.metrics["load_one"].total) == bits(1.0)
        assert_summaries_bit_identical(c, s)

    def test_malformed_value_skipped_row_retained(self):
        c, s = both_summaries(make_cluster({
            "h0": (1.0, [("load_one", "not-a-number", MetricType.FLOAT),
                         ("cpu_num", "2", MetricType.UINT16)]),
            "h1": (1.0, [("load_one", "3.0", MetricType.FLOAT)]),
        }))
        assert s.metrics["load_one"].num == 1
        assert_summaries_bit_identical(c, s)

    def test_all_negative_zero_contributions_keep_the_sign(self):
        # scalar accumulation of -0.0 values yields -0.0; a scatter-add
        # seeded from +0.0 would flip the sign bit
        c, s = both_summaries(make_cluster({
            "h0": (1.0, [("load_one", "-0.0", MetricType.FLOAT)]),
            "h1": (1.0, [("load_one", "-0.0", MetricType.FLOAT)]),
        }))
        assert math.copysign(1.0, s.metrics["load_one"].total) == -1.0
        assert_summaries_bit_identical(c, s)

    def test_units_first_non_empty_and_metadata_first_occurrence(self):
        cluster = ClusterElement(name="c", localtime=1.0)
        h0 = HostElement(name="h0", tn=1.0, reported=1.0)
        h0.add_metric(MetricElement("m", "1", MetricType.FLOAT, units=""))
        h1 = HostElement(name="h1", tn=1.0, reported=1.0)
        h1.add_metric(MetricElement("m", "2", MetricType.FLOAT, units="Amps"))
        cluster.add_host(h0)
        cluster.add_host(h1)
        c, s = both_summaries(cluster)
        assert s.metrics["m"].units == "Amps"
        assert_summaries_bit_identical(c, s)


def mutate(values, step):
    """Deterministic churn for tracker sequences."""
    out = dict(values)
    for i, k in enumerate(sorted(out)):
        if (i + step) % 3 == 0:
            out[k] = round(out[k] + 0.1 * ((step % 5) - 2), 4)
    return out


def track_both_routes(fast, tree, pool, xml):
    """One poll through both ingest routes into their own trackers.

    The fast lane parses straight to columns; the tree route parses a
    DOM and converts it, as ``Gmetad.ingest`` does for a tree-parsed
    poll.  Both must agree to the bit -- summaries and op counts -- and
    match the eager fold of the same bytes on the wire.
    """
    f_summary, f_ops = fast.update(parse_columnar(xml, pool=pool).clusters[0])
    parsed = next(iter(parse_document(xml).clusters.values()))
    t_summary, t_ops = tree.update(columns_from_cluster(parsed, pool))
    assert f_ops == t_ops
    assert_summaries_bit_identical(f_summary, t_summary)
    eager, _ = summarize_cluster(parsed, WINDOW)
    assert summary_wire_form(f_summary) == summary_wire_form(eager)
    return f_summary


class TestTrackerDifferential:
    def run_sequence(self, snapshots):
        """Feed both routes the same wire bytes; assert lockstep."""
        pool = InternPool()
        fast = ColumnarSummaryTracker(WINDOW)
        tree = ColumnarSummaryTracker(WINDOW)
        summaries = [
            track_both_routes(fast, tree, pool, wire(cluster))
            for cluster in snapshots
        ]
        return fast, tree, summaries

    def test_churning_cluster(self):
        values = {f"h{i}": 0.25 * i for i in range(12)}
        snapshots = []
        for step in range(10):
            values = mutate(values, step)
            stale = {"h3"} if step >= 5 else set()
            snapshots.append(make_cluster({
                name: (1000.0 if name in stale else 1.0,
                       [("load_one", str(v), MetricType.FLOAT)])
                for name, v in values.items()
            }))
        self.run_sequence(snapshots)

    def test_hosts_joining_and_leaving(self):
        snapshots = [
            make_cluster({f"h{i}": (1.0, [("load_one", str(0.5 * i),
                                           MetricType.FLOAT)])
                          for i in range(n)})
            for n in (3, 5, 2, 6, 1, 4)
        ]
        self.run_sequence(snapshots)

    def test_sole_reporter_metric_drains_and_returns(self):
        # a drained reduction is dropped, and when its metric returns it
        # is re-inserted at the END of the metric dict
        with_extra = make_cluster({
            "h0": (1.0, [("cpu_num", "4", MetricType.UINT16),
                         ("load_one", "1.0", MetricType.FLOAT)]),
            "h1": (1.0, [("load_one", "2.0", MetricType.FLOAT)]),
        })
        without = make_cluster({
            "h0": (1.0, [("load_one", "1.0", MetricType.FLOAT)]),
            "h1": (1.0, [("load_one", "2.0", MetricType.FLOAT)]),
        })
        _, _, summaries = self.run_sequence([with_extra, without, with_extra])
        assert [list(s.metrics) for s in summaries] == [
            ["cpu_num", "load_one"],
            ["load_one"],
            ["load_one", "cpu_num"],
        ]

    def test_drain_to_zero_rebuilds_like_scalar(self):
        # the pinned -0 case, replayed through both routes
        six = make_cluster({
            f"h{i}": (1.0, [("load_one", "0.0", MetricType.FLOAT)])
            for i in range(6)
        })
        one = make_cluster({
            "h0": (1.0, [("load_one", "0.0", MetricType.FLOAT)])
        })
        empty = ClusterElement(name="meteor", localtime=100.0)
        refill = make_cluster({
            "h0": (1.0, [("load_one", "0.3", MetricType.FLOAT)])
        })
        fast, tree, summaries = self.run_sequence([six, one, empty, refill])
        assert fast.rebuilds == tree.rebuilds == 1
        assert summary_wire_form(summaries[1]).count('SUM="0"') == 1

    def test_wire_bytes_match_exactly(self):
        values = {f"h{i}": 0.1 * i for i in range(8)}
        snapshots = []
        for step in range(6):
            values = mutate(values, step)
            snapshots.append(make_cluster({
                name: (1.0, [("load_one", str(v), MetricType.FLOAT)])
                for name, v in values.items()
            }))
        self.run_sequence(snapshots)  # wire-checked against eager per poll


# -- hypothesis: random snapshot streams -------------------------------------

host_values = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(lambda v: round(v, 4)),
    min_size=0,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(host_values, min_size=1, max_size=5))
def test_random_snapshot_stream_stays_bit_identical(stream):
    pool = InternPool()
    fast = ColumnarSummaryTracker(WINDOW)
    tree = ColumnarSummaryTracker(WINDOW)
    for loads in stream:
        cluster = make_cluster({
            f"h{i}": (1.0, [("load_one", repr(v), MetricType.FLOAT)])
            for i, v in enumerate(loads)
        })
        xml = wire(cluster)
        # fast lane vs tree route agree to the bit (one tracker, two
        # inputs); tracker vs eager only promises *wire* agreement
        track_both_routes(fast, tree, pool, xml)
        # eager vs eager must agree to the bit (both plain in-order adds)
        c, s = both_summaries(cluster)
        assert_summaries_bit_identical(c, s)


class TestColumnsFromCluster:
    def test_matches_direct_parse(self):
        cluster = make_cluster({
            "h0": (1.0, [("load_one", "0.5", MetricType.FLOAT),
                         ("os_name", "Linux", MetricType.STRING)]),
            "h1": (300.0, [("load_one", "2.0", MetricType.FLOAT)]),
        })
        xml = wire(cluster)
        pool = InternPool()
        parsed = parse_columnar(xml, pool=pool).clusters[0]
        converted = columns_from_cluster(
            next(iter(parse_document(xml).clusters.values())), pool
        )
        assert parsed.same_layout(converted)
        assert np.array_equal(parsed.values, converted.values, equal_nan=True)
        c1, _ = summarize_columns(parsed, WINDOW)
        c2, _ = summarize_columns(converted, WINDOW)
        assert_summaries_bit_identical(c1, c2)

    def test_rejects_summary_form(self):
        shell = ClusterElement(name="c", localtime=1.0)
        shell.summary = summarize_cluster(
            ClusterElement(name="c", localtime=1.0), WINDOW
        )[0]
        with pytest.raises(ValueError):
            columns_from_cluster(shell, InternPool())
