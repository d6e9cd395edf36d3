"""``TextColumn`` held to a ``List[str]`` oracle, and the U+0000 rule.

A cluster's raw VALs live in one text with U+0000 after each row
(:class:`repro.columnar.layout.TextColumn`).  Every reader that used to
index a list now slices that text, so each one is checked here against
the list it replaced: pack/unpack, per-row and per-host reads, the
emulator's splice, the arena's per-host change mask, the delta engine's
row ops and the GBF1 column.  The separator is sound only because no
VAL can hold U+0000 (XML 1.0 §2.2 excludes it); each route a VAL enters
by refuses it.  The examples draw empty rows, zero rows, non-ASCII and
astral characters, and rows past 65 535 characters (the GBF1 u4 length
lane).  Tier-1 runs the deterministic profile; CI reruns this file with
``REPRO_HYPOTHESIS_PROFILE=thorough``.
"""

from __future__ import annotations

import tracemalloc
from itertools import accumulate
from operator import ne

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.layout import InternPool, TextColumn, columns_from_cluster
from repro.metrics.types import MetricType
from repro.pubsub.delta import DeltaEngine, DeltaOp, _SourceView
from repro.serve.arena import FragmentArena
from repro.wire import binfmt
from repro.wire.binfmt import (
    CLUSTER_DOC,
    FrameError,
    _BodyReader,
    _BodyWriter,
    decode_document,
    encode_cluster_document,
    open_frame,
)
from repro.wire.model import ClusterElement, HostElement, MetricElement
from repro.wire.parser import ParseError, parse_columnar, parse_document
from tests.helpers import pseudo_gmond

CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")
#: short rows, with the odd empty, non-ASCII or astral one ...
SHORT = st.one_of(
    st.text(CHARS, max_size=8),
    st.sampled_from(["", "é", "日本", "\U0001f600", "a\U00010348b"]),
)
#: ... and now and then one past the u2 length lane
ROW = st.one_of(
    SHORT, SHORT, SHORT,
    st.builds(lambda c, n: c * n, CHARS, st.integers(65536, 65600)),
)
ROWS = st.lists(ROW, max_size=12)


def packed(rows):
    column = TextColumn.pack(rows)
    assert column.tolist() == rows
    return column


@st.composite
def generations(draw):
    """Two generations of one host layout: ``(per-host rows, per-host
    rows)``, the second with a drawn subset of rows rewritten."""
    hosts = draw(st.lists(st.lists(SHORT, max_size=5), max_size=6))
    later = []
    for rows in hosts:
        later.append([
            draw(SHORT) if draw(st.booleans()) else row for row in rows
        ])
    return hosts, later


def bounds_of(hosts):
    return np.fromiter(
        accumulate(map(len, hosts), initial=0), dtype=np.int64,
        count=len(hosts) + 1,
    )


# -- the column against the list ------------------------------------------


@given(ROWS, st.data())
def test_pack_reads_back_the_list(rows, data):
    column = packed(rows)
    assert len(column) == len(rows)
    assert [column[r] for r in range(len(rows))] == rows
    assert column == TextColumn(column.text, column.starts.copy())
    lo = data.draw(st.integers(0, len(rows)))
    hi = data.draw(st.integers(lo, len(rows)))
    starts = column.starts.tolist()
    assert column.between(starts[lo], starts[hi]) == rows[lo:hi]


@given(ROWS, st.data())
def test_with_rows_splices_like_list_assignment(rows, data):
    column = packed(rows)
    chosen = sorted(data.draw(st.sets(st.integers(0, max(len(rows) - 1, 0))))
                    if rows else [])
    texts = [data.draw(ROW) for _ in chosen]
    want = list(rows)
    for r, text in zip(chosen, texts):
        want[r] = text
    spliced = column.with_rows(chosen, texts)
    assert spliced.tolist() == want
    assert spliced == TextColumn.pack(want)
    assert np.array_equal(spliced.starts, TextColumn.pack(want).starts)
    assert column.tolist() == rows  # the original is untouched


@given(generations())
def test_host_changes_match_the_row_oracle(pair):
    before, after = pair
    bounds = bounds_of(before)
    old = packed([row for rows in before for row in rows])
    new = packed([row for rows in after for row in rows])
    row_host = np.repeat(np.arange(len(before)), np.diff(bounds))
    row_changed = np.fromiter(
        map(ne, new.tolist(), old.tolist()), dtype=bool, count=len(new)
    )
    want = np.bincount(
        row_host[row_changed], minlength=len(before)
    ).astype(bool)
    assert np.array_equal(new.host_changes(old, bounds), want)


def cluster_columns(hosts, pool):
    cluster = ClusterElement(name="c")
    for h, rows in enumerate(hosts):
        host = HostElement(name=f"h{h}", ip="10.0.0.1", tn=1.0)
        for j, val in enumerate(rows):
            host.add_metric(MetricElement(f"m{j}", val, MetricType.STRING))
        cluster.add_host(host)
    return columns_from_cluster(cluster, pool)


@settings(deadline=None)
@given(generations())
def test_diff_rows_emit_the_oracle_ops_in_row_order(pair):
    before, after = pair
    pool = InternPool()
    old, new = cluster_columns(before, pool), cluster_columns(after, pool)
    assert new.same_layout(old)
    view = _SourceView()
    view.set_layout(old, "c")
    ops = []
    DeltaEngine(None)._diff_rows(view, new, ops)
    was, now = old.vals_raw.tolist(), new.vals_raw.tolist()
    assert ops == [
        DeltaOp("set", view.row_keys[r], now[r])
        for r in range(len(now))
        if now[r] != was[r]
    ]
    changed = FragmentArena._changed_hosts(old, new)
    assert changed.tolist() == [a != b for a, b in zip(before, after)]
    assert [new.host_vals(h) for h in range(new.host_count)] == after


@given(ROWS)
def test_gbf1_column_is_the_list_column(rows):
    column = packed(rows)
    as_text, as_list = _BodyWriter(), _BodyWriter()
    as_text.text_column(column)
    as_list.string_column(rows)
    assert as_text.result() == as_list.result()
    reader = _BodyReader(as_text.result())
    decoded = reader.text_column(len(rows))
    reader.expect_end()
    assert decoded == column
    assert np.array_equal(decoded.starts, column.starts)


# -- whole frames re-encode byte for byte ----------------------------------


PARSED_XML = (
    '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'
    '<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">\n'
    '<CLUSTER NAME="c" LOCALTIME="10">\n'
    '<HOST NAME="a" IP="10.0.0.1" REPORTED="5" TN="1" TMAX="20" DMAX="0">\n'
    '<METRIC NAME="os" VAL="Linux é 日本 \U0001f600" TYPE="string" TN="3"'
    ' TMAX="60" DMAX="0" SLOPE="zero" SOURCE="gmond"/>\n'
    '<METRIC NAME="none" VAL="" TYPE="string" TN="3"'
    ' TMAX="60" DMAX="0" SLOPE="zero" SOURCE="gmond"/>\n'
    '<METRIC NAME="load" VAL="0.25" TYPE="float" TN="3"'
    ' TMAX="60" DMAX="0" SLOPE="both" SOURCE="gmond"/>\n'
    "</HOST>\n"
    '<HOST NAME="b" IP="10.0.0.2" REPORTED="5" TN="1" TMAX="20" DMAX="0"/>\n'
    "</CLUSTER>\n"
    "</GANGLIA_XML>\n"
)


@pytest.mark.parametrize("validate", [False, True], ids=["bulk", "tree"])
def test_parsed_frame_re_encodes_byte_for_byte(validate):
    cdoc = parse_columnar(PARSED_XML, InternPool(), validate=validate)
    frame = encode_cluster_document(cdoc)
    _, decoded = decode_document(frame, InternPool())
    assert encode_cluster_document(decoded) == frame
    assert decoded.clusters[0].vals_raw.tolist() == [
        "Linux é 日本 \U0001f600", "", "0.25",
    ]


@pytest.mark.parametrize("churn", [0.0, 0.3, 1.0])
def test_emulator_frame_re_encodes_byte_for_byte(churn):
    pg = pseudo_gmond(40)
    pg.current_frame(15.0)
    if churn:
        pg.mutate(churn, now=20.0)
    frame = pg.current_frame(25.0)
    _, decoded = decode_document(frame, InternPool())
    assert encode_cluster_document(decoded) == frame
    assert decoded.clusters[0].vals_raw == pg._cols.vals_raw


def test_decoded_vals_are_one_buffer():
    """A 10 000-host cluster's VALs decode to one text and one offset
    array -- no ``str`` per row -- and hold at most 30 % of the bytes
    the list form holds."""
    pg = pseudo_gmond(10000)
    _, doc = decode_document(pg.current_frame(15.0), InternPool())
    vals = doc.clusters[0].vals_raw
    assert isinstance(vals, TextColumn) and len(vals) == 330000
    writer = _BodyWriter()
    writer.text_column(vals)
    data = writer.result()

    tracemalloc.start()
    as_list = _BodyReader(data).string_column(len(vals))
    list_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del as_list
    tracemalloc.start()
    as_text = _BodyReader(data).text_column(len(vals))
    text_bytes = tracemalloc.get_traced_memory()[0]
    blocks = sum(s.count for s in tracemalloc.take_snapshot().statistics("filename"))
    tracemalloc.stop()
    assert as_text == vals
    assert text_bytes <= 0.3 * list_bytes
    assert blocks < 100  # a handful of buffers, not 330 000 strings


# -- U+0000: one refusal per route ----------------------------------------


NUL_XML = PARSED_XML.replace('VAL="0.25"', 'VAL="0.2\x005"')


@pytest.mark.parametrize("validate", [False, True], ids=["bulk", "tree"])
def test_parse_columnar_refuses_nul(validate):
    with pytest.raises(ParseError, match="U\\+0000"):
        parse_columnar(NUL_XML, InternPool(), validate=validate)


def test_parse_document_refuses_nul():
    with pytest.raises(ParseError, match="U\\+0000"):
        parse_document(NUL_XML, validate=False)


def nul_val_frame(frame: bytes) -> bytes:
    """``frame`` re-sealed with its last VAL's last character made
    U+0000 (a one-cluster document's body ends in that text)."""
    kind, body = open_frame(frame)
    assert kind == CLUSTER_DOC and 0 < body[-1] < 0x80
    return binfmt._seal(CLUSTER_DOC, body[:-1] + b"\0")


def test_gbf1_val_column_refuses_nul():
    frame = encode_cluster_document(parse_columnar(PARSED_XML, InternPool()))
    with pytest.raises(FrameError, match="U\\+0000"):
        decode_document(nul_val_frame(frame), InternPool())


def test_text_column_refuses_nul():
    with pytest.raises(ValueError, match="U\\+0000"):
        TextColumn.pack(["ok", "n\0o"])
    with pytest.raises(ValueError, match="U\\+0000"):
        TextColumn("a\0b\0", np.array([0, 4]))
    with pytest.raises(ValueError, match="U\\+0000"):
        TextColumn.pack(["ok", "no"]).with_rows([1], ["n\0o"])
    with pytest.raises(ValueError, match="ascending"):
        TextColumn.pack(["a", "b"]).with_rows([1, 0], ["x", "y"])
