"""The binary wire codec: round trips, corruption safety, negotiation.

Four layers of proof:

1. **Primitive round trips** (Hypothesis): varints, zigzag, string
   columns and float columns (NaN / ±inf / -0 included) survive an
   encode->decode trip exactly.
2. **Document equivalence**: for any payload the XML writer produced,
   ``decode_to_xml(encode(parse(xml))) == xml`` -- driven over the
   PR 5 scenario generators (steady churn, partial mutations, host
   death past the heartbeat window).
3. **Corruption contract**: every truncation point and every single-bit
   flip of a frame raises a clean :class:`FrameError`; nothing decodes
   partially.
4. **Canonical floats**: the numpy kernel behind ``canon_wire_floats``
   is bit-identical to the per-row ``_fmt_num`` loop it replaced (kept
   here as :func:`canon_oracle`), and a cluster encode makes no
   ``_fmt_num`` calls.  Example counts follow the active Hypothesis
   profile (tests/conftest.py), so CI runs these with
   ``REPRO_HYPOTHESIS_PROFILE=thorough``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.layout import ColumnarDocument, InternPool
from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType
from repro.wire import binfmt
from repro.wire.binfmt import (
    CLUSTER_DOC,
    CODEC_BINARY,
    PUBSUB_MSG,
    SUMMARY_DOC,
    BinaryFrame,
    FrameError,
    _BodyReader,
    _BodyWriter,
    canon_wire_float,
    canon_wire_floats,
    decode_document,
    decode_message,
    decode_summary_document,
    decode_to_xml,
    encode_cluster_document,
    encode_message,
    encode_summary_document,
    is_frame,
    open_frame,
    split_accept,
    with_accept,
)
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    GridElement,
    MetricSummary,
    SummaryInfo,
)
from repro.wire.parser import parse_columnar, parse_document
from repro.wire.writer import _fmt_num, write_document
from tests.helpers import pseudo_gmond


# -- primitives ------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1)))
def test_uvarint_round_trip(values):
    w = _BodyWriter()
    for v in values:
        w.uvarint(v)
    r = _BodyReader(w.result())
    assert [r.uvarint() for _ in values] == values
    r.expect_end()


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62)))
def test_svarint_zigzag_round_trip(values):
    w = _BodyWriter()
    for v in values:
        w.svarint(v)
    r = _BodyReader(w.result())
    assert [r.svarint() for _ in values] == values
    r.expect_end()


@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80
        )
    )
)
def test_string_column_round_trip(strings):
    w = _BodyWriter()
    w.string_column(strings)
    r = _BodyReader(w.result())
    assert r.string_column(len(strings)) == strings
    r.expect_end()


def test_string_column_wide_lane():
    """Entries past the u2 length lane switch the whole column to u4."""
    strings = ["x" * 70000, "", "short"]
    w = _BodyWriter()
    w.string_column(strings)
    r = _BodyReader(w.result())
    assert r.string_column(3) == strings


@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    )
)
def test_f64_array_round_trip_bit_exact(values):
    a = np.array(values, dtype=np.float64)
    w = _BodyWriter()
    w.f64_array(a)
    r = _BodyReader(w.result())
    out = r.f64_array(len(values))
    # bit-exact: NaN payloads, -0.0 and infinities all survive
    assert np.array_equal(
        a.view(np.uint64), out.view(np.uint64)
    )
    assert out.flags.writeable


@given(st.lists(st.booleans()))
def test_bool_array_round_trip(bits):
    a = np.array(bits, dtype=bool)
    w = _BodyWriter()
    w.bool_array(a)
    r = _BodyReader(w.result())
    assert np.array_equal(r.bool_array(len(bits)), a)


@given(st.floats(allow_nan=True, allow_infinity=True, width=64))
def test_canon_wire_float_is_idempotent(x):
    once = canon_wire_float(x)
    twice = canon_wire_float(once)
    assert (math.isnan(once) and math.isnan(twice)) or once == twice


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64))
)
def test_canon_wire_floats_matches_xml_number_trip(values):
    """Vectorized canon == what the XML writer->parser trip produces."""
    a = np.array(values, dtype=np.float64)
    out = canon_wire_floats(a)
    expected = [float(_fmt_num(float(v))) for v in values]
    assert out.tolist() == expected


def test_canon_wire_floats_passes_nonfinite_through():
    a = np.array([np.nan, np.inf, -np.inf, -0.0, 1.5], dtype=np.float64)
    out = canon_wire_floats(a)
    assert math.isnan(out[0])
    assert out[1] == np.inf and out[2] == -np.inf
    assert out[4] == 1.5


# -- canonical floats: the numpy kernel against the per-row loop -------------


def canon_oracle(a):
    """The encoder's canon before it was vectorized: one ``_fmt_num``
    text trip per non-integer entry."""
    out = np.asarray(a, dtype=np.float64)
    if not out.size:
        return out
    exact = np.floor(out) == out
    if exact.all():
        return out
    out = out.copy()
    for i in np.nonzero(~exact)[0]:
        v = float(out[i])
        try:
            out[i] = float(_fmt_num(v))
        except (OverflowError, ValueError):
            pass
    return out


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _neighbours(x):
    """``x`` and the floats up to three ulps either side of it."""
    return st.integers(min_value=-3, max_value=3).map(
        lambda steps: float(
            x + steps * np.spacing(abs(x)) if steps else x
        )
    )


#: 4-decimal ties (2k+1)/2e4: never exact in binary, a hair off the half
decimal_ties = st.integers(min_value=-(10**9), max_value=10**9).map(
    lambda k: (2 * k + 1) / 2e4
)
#: the only floats exactly on a 4-decimal half: (2m+1)/32, e.g. 0.03125
dyadic_ties = st.integers(min_value=-(2**30), max_value=2**30).map(
    lambda m: (2 * m + 1) / 32
)
#: either side of the vectorized lane's bound and of the integer floats
edges = st.sampled_from([2.0**30, 2.0**44, 2.0**52, 2.0**53]).flatmap(
    lambda edge: st.tuples(
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    ).map(lambda t: t[0] * (edge + t[1]))
)
#: deep inside (2**30, 2**52): non-integers where v*1e4 loses bits
beyond_bound = st.floats(min_value=2.0**30, max_value=2.0**52).flatmap(
    lambda x: st.sampled_from([x, -x, x + 0.25, -(x + 0.5)])
)
bit_patterns = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64))
)
specials = st.sampled_from(
    [0.0, -0.0, -0.00001, 0.00001, -0.00005, 0.00005, 0.03125, -0.03125,
     5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf,
     -math.inf, 2.0**30 - 0.5, -(2.0**30) + 0.5, 2.0**30 + 0.5]
)
wire_floats = st.one_of(
    st.floats(width=16),
    st.floats(width=32),
    st.floats(width=64),
    decimal_ties.flatmap(_neighbours),
    dyadic_ties.flatmap(_neighbours),
    edges,
    beyond_bound,
    bit_patterns,
    specials,
)


@given(st.lists(wire_floats, max_size=40))
def test_canon_kernel_is_bit_identical_to_the_row_loop(values):
    """Every lane, every width, every bit pattern: the numpy kernel
    reproduces the per-row text trip bit for bit (NaN payloads and the
    sign of zero included)."""
    a = np.array(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # floor() of a signalling NaN
        got, want = canon_wire_floats(a.copy()), canon_oracle(a.copy())
    assert np.array_equal(_bits(got), _bits(want)), (
        a[_bits(got) != _bits(want)].tolist()
    )


@given(wire_floats)
def test_canon_wire_float_matches_the_array_form(x):
    with np.errstate(invalid="ignore"):
        assert _bits([canon_wire_float(x)]) == _bits(canon_wire_floats([x]))


@pytest.mark.parametrize(
    "x, expected",
    [
        (0.03125, 0.0312),     # exact tie: half to even
        (0.09375, 0.0938),
        (0.00005, 0.0001),     # the double sits a hair above the half
        (0.00015, 0.0001),     # ... and this one a hair below
        (-0.00001, 0.0),       # "-0" is written "0": +0.0, not -0.0
        (2.0**30 + 0.3, float(_fmt_num(2.0**30 + 0.3))),
    ],
)
def test_canon_kernel_known_cases(x, expected):
    out = canon_wire_floats(np.array([x]))
    assert _bits(out) == _bits([expected])


# -- envelope / negotiation -------------------------------------------------


def _tiny_frame():
    return encode_message({"t": "full", "id": "s", "seq": 3, "state": {"a": "b"}})


def test_is_frame_sniff():
    frame = _tiny_frame()
    assert is_frame(frame)
    assert not is_frame(frame.decode("latin-1"))
    assert not is_frame("<GANGLIA_XML>")
    assert not is_frame(b"<GANGLIA_XML>")


def test_open_frame_rejects_non_bytes_and_foreign_kinds():
    with pytest.raises(FrameError):
        open_frame("not bytes")
    kind, _ = open_frame(_tiny_frame())
    assert kind == PUBSUB_MSG
    with pytest.raises(FrameError):
        decode_document(_tiny_frame())  # pubsub frame on the poll path


def test_every_truncation_point_raises_frame_error():
    frame = _tiny_frame()
    for n in range(len(frame)):
        with pytest.raises(FrameError):
            open_frame(frame[:n])


def test_every_single_bit_flip_raises_frame_error():
    frame = _tiny_frame()
    for pos in range(len(frame)):
        for bit in range(8):
            damaged = bytearray(frame)
            damaged[pos] ^= 1 << bit
            with pytest.raises(FrameError):
                open_frame(bytes(damaged))


def test_trailing_garbage_raises_frame_error():
    with pytest.raises(FrameError):
        open_frame(_tiny_frame() + b"\x00")


def test_accept_token_round_trip():
    assert with_accept("/") == "/?accept=bin1"
    assert with_accept("/?filter=summary") == "/?filter=summary&accept=bin1"
    assert split_accept("/?accept=bin1") == ("/", CODEC_BINARY)
    assert split_accept("/?filter=summary&accept=bin1") == (
        "/?filter=summary",
        CODEC_BINARY,
    )
    # order-independent; other params come back byte-identical
    assert split_accept("/?accept=bin1&ifgen=a:1") == ("/?ifgen=a:1", "bin1")
    assert split_accept("/?filter=summary") == ("/?filter=summary", None)
    assert split_accept("/") == ("/", None)


def test_binary_frame_size_accounts_generation_tag():
    plain = BinaryFrame(b"12345")
    tagged = BinaryFrame(b"12345", generation="e:1")
    assert plain.size_bytes == 5
    assert tagged.size_bytes > plain.size_bytes


# -- cluster documents ------------------------------------------------------


def _emulator(num_hosts):
    """A pseudo-gmond past its first refresh."""
    pg = pseudo_gmond(num_hosts)
    pg.current_xml(15.0)
    return pg


def _pseudo_xml(num_hosts=4, mutate=(), down=(), now=30.0):
    """One pseudo-gmond document after the PR 5 churn scenarios."""
    pg = _emulator(num_hosts)
    for idx in down:
        pg.set_host_down(idx)
    if mutate:
        pg.mutate(hosts=list(mutate), now=now)
    return pg.current_xml(now)


@pytest.mark.parametrize(
    "scenario",
    [
        {},                                   # steady state
        {"mutate": (0, 2)},                   # partial churn
        {"down": (1,), "now": 130.0},         # host dead past the window
        {"mutate": (0,), "down": (3,), "now": 200.0},
    ],
)
def test_cluster_decode_to_xml_is_byte_identical(scenario):
    xml = _pseudo_xml(**scenario)
    cdoc = parse_columnar(xml, InternPool())
    frame = encode_cluster_document(cdoc)
    assert decode_to_xml(frame, InternPool()) == xml


def test_cluster_decode_rebuilds_equivalent_columns():
    xml = _pseudo_xml(mutate=(0, 1))
    cdoc = parse_columnar(xml, InternPool())
    frame = encode_cluster_document(cdoc)
    kind, decoded = decode_document(frame, InternPool())
    assert kind == CLUSTER_DOC
    src, dst = cdoc.clusters[0], decoded.clusters[0]
    assert dst.host_names == src.host_names
    assert dst.vals_raw == src.vals_raw
    assert np.array_equal(dst.values, src.values, equal_nan=True)
    assert np.array_equal(dst.valid, src.valid)
    assert np.array_equal(dst.numeric, src.numeric)
    assert np.array_equal(dst.row_host, src.row_host)
    # ids land in a *different* pool yet name the same strings
    assert [dst.pool.strings[i] for i in dst.name_ids.tolist()] == [
        src.pool.strings[i] for i in src.name_ids.tolist()
    ]


def test_empty_cluster_round_trip():
    xml = (
        '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'
        '<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">\n'
        '<CLUSTER NAME="empty" LOCALTIME="10">\n'
        "</CLUSTER>\n"
        "</GANGLIA_XML>\n"
    )
    cdoc = parse_columnar(xml, InternPool())
    frame = encode_cluster_document(cdoc)
    assert decode_to_xml(frame, InternPool()) == xml


def test_cluster_frame_rejects_bogus_type_vocabulary():
    xml = _pseudo_xml()
    cdoc = parse_columnar(xml, InternPool())
    body_kind, body = open_frame(encode_cluster_document(cdoc))
    assert body_kind == CLUSTER_DOC
    # re-seal a body whose TYPE strings were vandalized wholesale
    vandalized = body.replace(b"float", b"floot")
    frame = binfmt._seal(CLUSTER_DOC, vandalized)
    with pytest.raises(FrameError):
        decode_document(frame, InternPool())


@pytest.mark.parametrize("now", [15.0, 37.25])
def test_cluster_encode_makes_no_per_row_text_trips(now):
    """The count row: encoding a 200-host cluster calls ``_fmt_num`` zero
    times (the per-row loop made ~25 calls a host), whether the columns
    were parsed from the emulator's XML, decoded from its frame (the
    gmetad arena's case) or are the emulator's own; and every frame
    equals the one the per-row loop produces."""
    pg = _emulator(200)
    if now != 15.0:
        pg.mutate(fraction=0.5, now=now)  # non-integer LOCALTIME/REPORTED
    documents = {
        "parsed": parse_columnar(pg.current_xml(now), InternPool()),
        "decoded": decode_document(pg.current_frame(now), InternPool())[1],
        "emulator": ColumnarDocument("2.5.4", "gmond", [pg._cols]),
    }
    for name, cdoc in documents.items():
        with mock.patch.object(binfmt, "_fmt_num", wraps=_fmt_num) as spy:
            frame = encode_cluster_document(cdoc)
        assert spy.call_count == 0, name
        with mock.patch.object(binfmt, "canon_wire_floats", canon_oracle):
            assert frame == encode_cluster_document(cdoc), name


# -- summary documents ------------------------------------------------------


def _summary_info(seed=0):
    info = SummaryInfo(hosts_up=3 + seed, hosts_down=seed)
    for i in range(3):
        name = f"metric_{i}"
        info.metrics[name] = MetricSummary(
            name=name,
            total=1.25 * (i + seed) + 0.0001,
            num=3 + i,
            mtype=MetricType.DOUBLE,
            units="%" if i else "",
            slope=Slope.BOTH,
            source="gmetad",
        )
    return info


def _summary_doc():
    doc = GangliaDocument(version="2.5.4", source="gmetad")
    top = GridElement(name="ROOT", authority="http://root:8651/", localtime=90.0)
    c = ClusterElement(name="c0", owner="o", localtime=88.0, url="http://c0/")
    c.summary = _summary_info(0)
    top.add_cluster(c)
    hostless = ClusterElement(name="c1", localtime=87.0)
    hostless.summary = _summary_info(1)
    top.add_cluster(hostless)
    child = GridElement(name="CHILD", authority="http://child:8651/")
    child.summary = _summary_info(2)
    top.add_grid(child)
    doc.add_grid(top)
    return doc


def test_summary_document_round_trip_matches_xml_parse():
    doc = _summary_doc()
    xml = write_document(doc)
    frame = encode_summary_document(doc)
    kind, decoded = decode_document(frame)
    assert kind == SUMMARY_DOC
    # the binary trip and the XML writer->parser trip agree exactly
    assert write_document(decoded) == xml
    assert write_document(decoded) == write_document(parse_document(xml))


def test_summary_encode_rejects_full_form():
    doc = GangliaDocument(version="2.5.4", source="gmetad")
    grid = GridElement(name="G", authority="http://g/")
    grid.add_cluster(ClusterElement(name="c", localtime=1.0))  # no summary
    doc.add_grid(grid)
    with pytest.raises(FrameError):
        encode_summary_document(doc)


def test_summary_grid_nesting_depth_is_bounded():
    w = _BodyWriter()
    w.string("2.5.4")
    w.string("gmetad")
    w.uvarint(0)  # clusters
    w.uvarint(1)  # one grid chain
    for _ in range(20):
        w.string("g")
        w.string("auth")
        w.string("")
        w.uvarint(0)  # not summary form
        w.uvarint(0)  # no clusters
        w.uvarint(1)  # one nested grid
    frame = binfmt._seal(SUMMARY_DOC, w.result())
    with pytest.raises(FrameError):
        decode_summary_document(open_frame(frame)[1])


# -- pub-sub messages -------------------------------------------------------


@given(
    st.dictionaries(
        st.text(max_size=30), st.text(max_size=50), max_size=8
    ),
    st.integers(min_value=0, max_value=2**31),
)
def test_full_sync_message_round_trip(state, seq):
    message = {"t": "full", "id": "sub-1", "seq": seq, "state": state}
    kind, body = open_frame(encode_message(message))
    assert kind == PUBSUB_MSG
    assert decode_message(body) == message


@settings(max_examples=50)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("s"), st.text(max_size=30), st.text(max_size=30)),
            st.tuples(st.just("d"), st.text(max_size=30)),
        ),
        max_size=10,
    )
)
def test_delta_message_round_trip(raw_ops):
    ops = [list(op) for op in raw_ops]
    message = {"t": "delta", "id": "s", "seq": 9, "prev": 8, "ops": ops}
    assert decode_message(open_frame(encode_message(message))[1]) == message


def test_control_messages_refuse_binary_encoding():
    with pytest.raises(FrameError):
        encode_message({"t": "sub", "id": "x"})


# -- fast-lane miss accounting (satellite 2) --------------------------------


_FAST_XML_TEMPLATE = (
    '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'
    '<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">\n'
    '<CLUSTER NAME="c" LOCALTIME="10">\n'
    '<HOST NAME="h0" IP="10.0.0.1" REPORTED="9" TN="1" TMAX="20" DMAX="0">\n'
    "{metric}\n"
    "</HOST>\n"
    "</CLUSTER>\n"
    "</GANGLIA_XML>\n"
)

_CANONICAL_METRIC = (
    '<METRIC NAME="load_one" VAL="0.5" TYPE="float" UNITS=" " TN="5" '
    'TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>'
)

# same attributes, VAL moved after TYPE: semantically identical XML that
# the anchored fast lane cannot take
_REORDERED_METRIC = (
    '<METRIC NAME="load_one" TYPE="float" VAL="0.5" UNITS=" " TN="5" '
    'TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>'
)


def test_fast_lane_miss_counter_stays_zero_on_canonical_order():
    xml = _FAST_XML_TEMPLATE.format(metric=_CANONICAL_METRIC)
    cdoc = parse_columnar(xml, InternPool(), validate=False)
    assert cdoc.fast_lane_misses == 0


def test_attribute_reorder_trips_fast_lane_miss_counter():
    """Regression for the silent-fallback hole: a METRIC the fast regex
    cannot take must be *counted*, not silently absorbed by the slow
    path."""
    xml = _FAST_XML_TEMPLATE.format(metric=_REORDERED_METRIC)
    cdoc = parse_columnar(xml, InternPool(), validate=False)
    assert cdoc.fast_lane_misses == 1
    # and the slow lane still parsed it correctly
    assert cdoc.clusters[0].vals_raw.tolist() == ["0.5"]
    tree = parse_document(xml)
    assert write_document(tree) == write_document(
        binfmt.materialize_document(cdoc)
    )


def test_metrics_summary_rows_do_not_count_as_misses():
    """METRICS (summary) elements never enter the fast lane; they must
    not inflate the miss counter."""
    xml = (
        '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'
        '<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">\n'
        '<CLUSTER NAME="c" LOCALTIME="10">\n'
        '<HOST NAME="h0" IP="10.0.0.1" REPORTED="9" TN="1" TMAX="20" '
        'DMAX="0">\n'
        f"{_CANONICAL_METRIC}\n"
        "</HOST>\n"
        "</CLUSTER>\n"
        "</GANGLIA_XML>\n"
    )
    cdoc = parse_columnar(xml, InternPool(), validate=False)
    assert cdoc.fast_lane_misses == 0
