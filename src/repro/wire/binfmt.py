"""Versioned binary wire frames: the compact alternative to Ganglia XML.

XML text is the dominant remaining wide-area cost: every full sync,
resync and local-area poll ships escaped markup that the receiver
re-parses character by character.  This module defines ``GBF1`` -- a
binary frame format that serializes a poll response straight from the
columnar structure-of-arrays layout (no DOM materialization) and decodes
near memcpy speed (``np.frombuffer`` column installs instead of a regex
walk).

Frame envelope (all integers little-endian)::

    offset  size  field
    0       4     magic  b"\\x8fGBF"  (non-ASCII lead byte: can never be
                  confused with an XML document, which starts "<")
    4       1     version (currently 1)
    5       1     payload kind (CLUSTER_DOC / SUMMARY_DOC / PUBSUB_MSG)
    6       1     flags (bit 0: body is zlib-deflated)
    7       1     reserved (must be 0)
    8       4     CRC-32 over (version, kind, decompressed body) -- the
                  *logical* content, so a flipped kind bit or a cleared
                  deflate flag fails the check just like body damage
    12      ...   uvarint stored-body length, then exactly that many
                  body bytes (anything shorter or longer is a FrameError)

The CRC plus the exact-length rule is the corruption contract: a
truncated or bit-flipped frame raises :class:`FrameError` *before* any
state is touched -- never a partial install (the PR 3 ``mark_corrupt``
path then quarantines the source and the poller re-requests XML).

Body primitives: unsigned LEB128 varints, zigzag-signed varints,
length-prefixed UTF-8 strings, raw little-endian numpy column dumps, a
frame-local interned string table (only the strings this payload uses;
ids are remapped into the receiver's pool with one fancy-indexing pass),
and bit-packed boolean columns.  Numeric wire attributes (TN/TMAX/DMAX/
REPORTED/LOCALTIME) are canonicalized at encode time so a binary peer
decodes the *same float* an XML peer would parse from the writer's
4-decimal text -- this is what makes mixed-codec federations converge
bit-identically (pinned by the equivalence suite).
:func:`canon_wire_floats` does it in three lanes: integers pass
through; non-integers below 2**30 are rounded in numpy, with the exact
product settling computed halves; the rest (larger values, NaN) take
the writer's formatter one at a time.

Capability negotiation mirrors the ``ifgen=`` convention of
:mod:`repro.wire.conditional`: a requester appends ``accept=bin1`` to
the query string (:func:`with_accept`); a capable server strips it
(:func:`split_accept`) and answers with a :class:`BinaryFrame` payload,
while a legacy server ignores the unknown parameter and answers XML --
transparent per-link fallback with zero configuration.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.wire.conditional import GENERATION_TAG_BYTES
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    GridElement,
    MetricSummary,
    SummaryInfo,
)
from repro.wire.escape import escape_attr
from repro.wire.writer import _fmt_num, write_document

MAGIC = b"\x8fGBF"
VERSION = 1

#: payload kinds
CLUSTER_DOC = 0   # a full-form ColumnarDocument (gmond-style dump)
SUMMARY_DOC = 1   # a summary-form GangliaDocument (gmetad federation)
PUBSUB_MSG = 2    # one pub-sub delta/full data message

#: header flags
FLAG_DEFLATE = 0x01

#: request-line capability handshake (mirrors conditional.GENERATION_PARAM)
ACCEPT_PARAM = "accept"
CODEC_XML = "xml"
CODEC_BINARY = "bin1"

#: deflate level: 6 buys little over 1 here (column dumps are already
#: dictionary-coded via the intern table) and costs 3-4x the CPU
_DEFLATE_LEVEL = 1

_HEADER = struct.Struct("<4sBBBBI")


class FrameError(ValueError):
    """A binary frame failed validation; nothing was installed."""


# -- capability handshake ---------------------------------------------------


def with_accept(request: str, codec: str = CODEC_BINARY) -> str:
    """Append the ``accept=`` capability token to a query string."""
    separator = "&" if "?" in request else "?"
    return f"{request}{separator}{ACCEPT_PARAM}={codec}"


def split_accept(request: str) -> Tuple[str, Optional[str]]:
    """Strip the ``accept=`` parameter; returns ``(base, codec)``.

    ``codec`` is None for a legacy request; the base request comes back
    byte-identical to what a non-negotiating client would have sent, so
    the query engine (and the generation tokens keyed on the base) never
    see the protocol extension.
    """
    if "?" not in request:
        return request, None
    path, _, query_string = request.partition("?")
    kept = []
    codec: Optional[str] = None
    for param in query_string.split("&"):
        key, _, value = param.partition("=")
        if key == ACCEPT_PARAM:
            codec = value
        elif param:
            kept.append(param)
    if codec is None:
        return request, None
    base = path + ("?" + "&".join(kept) if kept else "")
    return base, codec


@dataclass(frozen=True)
class BinaryFrame:
    """A binary response payload on the simulated wire.

    Plays the role :class:`~repro.wire.conditional.TaggedXml` plays for
    XML: ``generation`` (when set) is the conditional-protocol token the
    poller presents next time; a mangled frame loses it, exactly like a
    mangled tagged response.
    """

    data: bytes
    generation: Optional[str] = field(default=None, compare=False)

    @property
    def size_bytes(self) -> int:
        extra = GENERATION_TAG_BYTES if self.generation else 0
        return len(self.data) + extra


# -- body primitives --------------------------------------------------------


class _BodyWriter:
    """Accumulates body bytes."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: List[bytes] = []

    def uvarint(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"uvarint of negative value {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self.parts.append(bytes(out))

    def svarint(self, value: int) -> None:
        """Zigzag-encoded signed varint."""
        self.uvarint((value << 1) ^ (value >> 63) if value < 0 else value << 1)

    def string(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.uvarint(len(raw))
        self.parts.append(raw)

    def f64(self, value: float) -> None:
        self.parts.append(struct.pack("<d", value))

    def f64_array(self, a: np.ndarray) -> None:
        self.parts.append(np.ascontiguousarray(a, dtype="<f8").tobytes())

    def i64_array(self, a: np.ndarray) -> None:
        self.parts.append(np.ascontiguousarray(a, dtype="<i8").tobytes())

    def i32_array(self, a: np.ndarray) -> None:
        self.parts.append(np.ascontiguousarray(a, dtype="<i4").tobytes())

    def bool_array(self, a: np.ndarray) -> None:
        self.parts.append(np.packbits(np.asarray(a, dtype=bool)).tobytes())

    def string_column(self, strings: List[str]) -> None:
        """A column of strings: joined text + per-entry *character* counts.

        Character (not byte) lengths let the decoder cut one decoded
        ``str`` -- no per-entry ``bytes.decode`` calls on the hot path.
        """
        lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
        self._column(lengths, "".join(strings))

    def text_column(self, column) -> None:
        """A :class:`~repro.columnar.layout.TextColumn`, in the bytes
        :meth:`string_column` writes for its rows."""
        from repro.columnar.layout import SEP

        self._column(np.diff(column.starts) - 1, column.text.replace(SEP, ""))

    def _column(self, lengths: np.ndarray, joined: str) -> None:
        wide = bool(lengths.size) and int(lengths.max()) > 0xFFFF
        self.parts.append(b"\x01" if wide else b"\x00")
        self.parts.append(lengths.astype("<u4" if wide else "<u2").tobytes())
        self.string(joined)

    def result(self) -> bytes:
        return b"".join(self.parts)


def _utf8(raw) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"bad UTF-8 in frame string: {exc}") from None


def _check_chars(chars: int, ends: np.ndarray) -> None:
    """A string column's text must hold exactly its rows' characters."""
    total = int(ends[-1]) if ends.size else 0
    if chars != total:
        raise FrameError(
            f"string column length mismatch: text has {chars} chars, "
            f"lengths sum to {total}"
        )


class _BodyReader:
    """Bounds-checked cursor over body bytes; every overrun is a FrameError.

    Reads are views into the body: a column is copied once, by the
    array or string built from it.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = memoryview(data)
        self.pos = 0

    def _take(self, n: int) -> memoryview:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise FrameError(
                f"frame body truncated: need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def uvarint(self) -> int:
        result = 0
        shift = 0
        data = self.data
        pos = self.pos
        size = len(data)
        while True:
            if pos >= size:
                raise FrameError("frame body truncated inside varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise FrameError("varint too long")
        self.pos = pos
        return result

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def string(self) -> str:
        return _utf8(self._take(self.uvarint()))

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def f64_array(self, count: int) -> np.ndarray:
        a = np.frombuffer(self._take(count * 8), dtype="<f8")
        return a.astype(np.float64)  # writable copy, native order

    def i64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(count * 8), dtype="<i8").astype(np.int64)

    def bool_array(self, count: int) -> np.ndarray:
        packed = np.frombuffer(self._take((count + 7) // 8), dtype=np.uint8)
        return np.unpackbits(packed, count=count).astype(bool)

    def string_column(self, count: int) -> List[str]:
        ends, raw = self._column(count)
        text = _utf8(raw)
        _check_chars(len(text), ends)
        starts = np.concatenate(([0], ends[:-1])) if count else ends
        return [text[s:e] for s, e in zip(starts.tolist(), ends.tolist())]

    def text_column(self, count: int):
        """A string column as a :class:`~repro.columnar.layout.TextColumn`.

        No per-row ``str``: the separators go into the decoded code
        units in numpy -- the body bytes themselves when the text is
        ASCII, its UTF-32 code points otherwise -- and the result is
        decoded once.  A row holding U+0000 is a FrameError: XML 1.0
        excludes the character, so no valid reply carries it.
        """
        from repro.columnar.layout import TextColumn

        ends, raw = self._column(count)
        raw = bytes(raw)
        if b"\0" in raw:
            raise FrameError("U+0000 in a text column row")
        if raw.isascii():
            _check_chars(len(raw), ends)
            units, codec = np.frombuffer(raw, dtype=np.uint8), "ascii"
        else:
            text = _utf8(raw)
            _check_chars(len(text), ends)
            units, codec = np.frombuffer(text.encode("utf-32-le"), "<u4"), "utf-32-le"
        starts = np.zeros(count + 1, dtype=np.int64)
        starts[1:] = ends + np.arange(1, count + 1)
        # every slot but each row's last takes the next code unit; the
        # zeros left there are the separators
        keep = np.ones(int(starts[-1]), dtype=bool)
        keep[starts[1:] - 1] = False
        out = np.zeros(keep.size, dtype=units.dtype)
        out[keep] = units
        return TextColumn._adopt(out.tobytes().decode(codec), starts)

    def _column(self, count: int) -> Tuple[np.ndarray, memoryview]:
        """A string column's cumulative character counts and raw text."""
        wide = self._take(1)[0]
        if wide not in (0, 1):
            raise FrameError(f"bad string-column width marker {wide}")
        width = 4 if wide else 2
        lengths = np.frombuffer(self._take(count * width), dtype=f"<u{width}")
        return np.cumsum(lengths, dtype=np.int64), self._take(self.uvarint())

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FrameError(
                f"{len(self.data) - self.pos} bytes of trailing garbage in frame"
            )


# -- numeric canonicalization ----------------------------------------------


#: below this magnitude ``v * 1e4`` is under 2**44: every half-integer
#: near it is a float, and every integer it rounds to is exact
_CANON_VECTOR_BOUND = 2.0 ** 30
#: Veltkamp's splitter: ``v`` = a 26-bit high half + a 26-bit low half
_SPLITTER = 2.0 ** 27 + 1.0


def _settle_halves(v: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Round ``v * 10**4`` to an integer where its computed product
    ``half = v * 1e4`` landed exactly on a half.

    Dekker's exact product: 1e4 fits in 26 bits, so with ``v`` split
    into 26-bit halves every partial product is exact and ``low`` is
    the exact ``v * 10**4 - half``.  Its sign says whether the exact
    product lies above the half, below it, or on it (``0.03125``), where
    ``%.4f`` rounds half to even as ``rint`` did.
    """
    c = _SPLITTER * v
    v_hi = c - (c - v)
    low = (v_hi * 1e4 - half) + (v - v_hi) * 1e4
    return np.where(
        low > 0, half + 0.5, np.where(low < 0, half - 0.5, np.rint(half))
    )


def canon_wire_floats(a: np.ndarray) -> np.ndarray:
    """Round floats to what they become after an XML writer->parser trip.

    The XML path serializes numeric attributes through
    :func:`~repro.wire.writer._fmt_num` (4 decimal places, trailing
    zeros stripped, ``"-0"`` written ``"0"``) and the receiver parses
    the text back -- a lossy round trip for floats with more than 4
    decimals.  A binary receiver skips the text, so the encoder applies
    the same rounding up front.  The result is bit-identical to
    ``float(_fmt_num(v))`` per entry, reached on three lanes:

    - *integer*: ``floor(v) == v`` (ints, +-0, +-inf) passes through;
      ``str(int)`` round-trips exactly.  The overwhelming case for TN/
      TMAX/DMAX/REPORTED/LOCALTIME.
    - *vectorized*: a non-integer with ``|v| < 2**30`` becomes
      ``r / 1e4 + 0.0`` with ``r = rint(v * 1e4)``, settled by
      :func:`_settle_halves` where the computed product is exactly a
      half.  Exact because (1) the exact product lies under 2**44, where
      every half-integer is a float, and rounding is monotone: the
      computed product sits on the same side of each half as the exact
      one, or on it -- so off the halves ``r`` is the integer nearest the
      exact product, the 4-decimal rounding ``f"{v:.4f}"`` makes, and
      on them the exact low part decides; (2) IEEE division is
      correctly rounded, as is ``float()`` of decimal text, so
      ``r / 1e4`` is the float that text parses to; (3) ``+ 0.0`` turns
      the ``-0.0`` of a tiny negative (``-0.00001``) into ``+0.0``, as
      the writer's ``"-0"`` -> ``"0"`` does.
    - *scalar*: the rest -- ``|v| >= 2**30`` and NaN -- goes through
      ``float(_fmt_num(v))`` one at a time; a non-finite value the
      writer would choke on ships as-is.
    """
    out = np.asarray(a, dtype=np.float64)
    if not out.size:
        return out
    exact = np.floor(out) == out
    if exact.all():
        return out
    out = out.copy()
    rest = np.flatnonzero(~exact)
    v = out[rest]
    lane = np.abs(v) < _CANON_VECTOR_BOUND  # NaN fails here, too
    v = v[lane]
    scaled = v * 1e4
    r = np.rint(scaled)
    on_half = np.abs(scaled - r) == 0.5
    if on_half.any():
        r[on_half] = _settle_halves(v[on_half], scaled[on_half])
    out[rest[lane]] = r / 1e4 + 0.0
    for i in rest[~lane].tolist():
        try:
            out[i] = float(_fmt_num(float(out[i])))
        except (OverflowError, ValueError):
            pass  # non-finite: the XML writer would choke too; ship as-is
    return out


def canon_wire_float(value: float) -> float:
    """Scalar form of :func:`canon_wire_floats`."""
    return float(canon_wire_floats(np.array([float(value)]))[0])


# -- envelope ---------------------------------------------------------------


def _frame_crc(kind: int, body: bytes) -> int:
    """CRC over the logical content: version byte, kind byte, raw body."""
    return zlib.crc32(body, zlib.crc32(bytes((VERSION, kind))))


def _seal(kind: int, body: bytes, compress: bool = True) -> bytes:
    """Wrap a body in the GBF1 envelope (deflate when it helps)."""
    flags = 0
    stored = body
    if compress:
        squeezed = zlib.compress(body, _DEFLATE_LEVEL)
        if len(squeezed) < len(body):
            stored = squeezed
            flags |= FLAG_DEFLATE
    header = _HEADER.pack(
        MAGIC, VERSION, kind, flags, 0, _frame_crc(kind, body)
    )
    w = _BodyWriter()
    w.uvarint(len(stored))
    return header + w.result() + stored


def is_frame(data: object) -> bool:
    """Cheap sniff: does this look like one of our binary frames?"""
    return isinstance(data, (bytes, bytearray)) and bytes(data[:4]) == MAGIC


def open_frame(data: bytes) -> Tuple[int, bytes]:
    """Validate the envelope; returns ``(kind, body)``.

    Raises :class:`FrameError` for anything that is not a complete,
    uncorrupted frame of a version we speak: wrong magic, future
    version, unknown kind, CRC mismatch, truncation, trailing bytes,
    or an undecompressable deflate stream.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise FrameError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < _HEADER.size:
        raise FrameError(f"frame too short ({len(data)} bytes)")
    magic, version, kind, flags, reserved, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if kind not in (CLUSTER_DOC, SUMMARY_DOC, PUBSUB_MSG):
        raise FrameError(f"unknown frame kind {kind}")
    if flags & ~FLAG_DEFLATE:
        raise FrameError(f"unknown frame flags 0x{flags:02x}")
    if reserved:
        raise FrameError(f"nonzero reserved byte 0x{reserved:02x}")
    cursor = _BodyReader(data)
    cursor.pos = _HEADER.size
    length = cursor.uvarint()
    stored = cursor._take(length)
    cursor.expect_end()
    if flags & FLAG_DEFLATE:
        try:
            body = zlib.decompress(stored)
        except zlib.error as exc:
            raise FrameError(f"bad deflate stream: {exc}") from None
    else:
        body = bytes(stored)
    if _frame_crc(kind, body) != crc:
        raise FrameError("frame CRC mismatch (bit flip on the wire)")
    return kind, body


# -- columnar cluster documents --------------------------------------------


def _encode_cluster(w: _BodyWriter, cols) -> None:
    """One ColumnarCluster section (see the module docstring layout)."""
    pool_strings = cols.pool.strings
    w.string(cols.name)
    w.string(cols.owner)
    w.string(cols.url)
    w.f64(canon_wire_float(cols.localtime))
    # host axis
    H = cols.host_count
    w.uvarint(H)
    w.string_column(cols.host_names)
    w.string_column(cols.host_ip)
    w.string_column(cols.host_location)
    w.f64_array(canon_wire_floats(cols.host_reported))
    w.f64_array(canon_wire_floats(cols.host_tn))
    w.f64_array(canon_wire_floats(cols.host_tmax))
    w.f64_array(canon_wire_floats(cols.host_dmax))
    w.i64_array(cols.host_row_start)
    # frame-local string table: only the ids this payload references
    N = cols.row_count
    w.uvarint(N)
    ids = (
        cols.name_ids, cols.type_ids, cols.units_ids,
        cols.slope_ids, cols.source_ids,
    )
    present = np.zeros(len(pool_strings), dtype=bool)
    for column in ids:
        present[column] = True
    used = np.flatnonzero(present)  # the table lists pool ids ascending
    local = np.cumsum(present, dtype=np.int32) - 1  # pool id -> table index
    w.uvarint(len(used))
    w.string_column([pool_strings[i] for i in used.tolist()])
    for column in ids:
        w.i32_array(local[column])
    # value columns
    w.f64_array(cols.values)
    w.bool_array(cols.valid)
    w.f64_array(canon_wire_floats(cols.metric_tn))
    w.f64_array(canon_wire_floats(cols.metric_tmax))
    w.f64_array(canon_wire_floats(cols.metric_dmax))
    w.text_column(cols.vals_raw)


def encode_cluster_document(cdoc, compress: bool = True) -> bytes:
    """Serialize a ColumnarDocument straight from the SoA layout."""
    w = _BodyWriter()
    w.string(cdoc.version)
    w.string(cdoc.source)
    w.uvarint(len(cdoc.clusters))
    for cols in cdoc.clusters:
        _encode_cluster(w, cols)
    return _seal(CLUSTER_DOC, w.result(), compress)


def _referenced(local: np.ndarray, table_size: int) -> List[int]:
    """The frame-local table entries ``local`` uses, ascending."""
    present = np.zeros(table_size, dtype=bool)
    present[local] = True
    return np.flatnonzero(present).tolist()


def _decode_cluster(r: _BodyReader, pool):
    from repro.columnar.layout import ColumnarCluster

    name = r.string()
    owner = r.string()
    url = r.string()
    localtime = r.f64()
    H = r.uvarint()
    host_names = r.string_column(H)
    host_ip = r.string_column(H)
    host_location = r.string_column(H)
    host_reported = r.f64_array(H)
    host_tn = r.f64_array(H)
    host_tmax = r.f64_array(H)
    host_dmax = r.f64_array(H)
    host_row_start = r.i64_array(H + 1)
    N = r.uvarint()
    if H and (int(host_row_start[0]) != 0 or int(host_row_start[-1]) != N):
        raise FrameError("host_row_start does not span the metric rows")
    if H and np.any(np.diff(host_row_start) < 0):
        raise FrameError("host_row_start is not monotonic")
    table_size = r.uvarint()
    table = r.string_column(table_size)
    # remap frame-local ids into the receiver's pool with one gather;
    # TYPE/SLOPE table entries double as vocabulary validation exactly
    # like the parser's mtype_id/slope_id checks
    local_to_pool = np.fromiter(
        (pool.intern(s) for s in table), dtype=np.int32, count=table_size
    )

    def remap(what: str) -> Tuple[np.ndarray, np.ndarray]:
        """(frame-local ids, pool ids) of one id column."""
        # read unsigned: a negative id is past the table's end, too
        local = np.frombuffer(r._take(N * 4), dtype="<u4")
        if N and int(local.max()) >= table_size:
            raise FrameError(f"{what} id outside the frame string table")
        return local, local_to_pool[local]

    _, name_ids = remap("NAME")
    type_local, type_ids = remap("TYPE")
    _, units_ids = remap("UNITS")
    slope_local, slope_ids = remap("SLOPE")
    _, source_ids = remap("SOURCE")
    # validate the TYPE/SLOPE vocabulary actually referenced, and build
    # the numeric mask from the (tiny) frame-local type table
    numeric_by_local = np.zeros(table_size, dtype=bool)
    for j in _referenced(type_local, table_size):
        raw = table[j]
        tid = pool.mtype_id(raw)
        if tid is None:
            raise FrameError(f"unknown metric TYPE {raw!r}")
        numeric_by_local[j] = pool.is_numeric_id(tid)
    for j in _referenced(slope_local, table_size):
        if pool.slope_id(table[j]) is None:
            raise FrameError(f"bad SLOPE {table[j]!r}")
    numeric = numeric_by_local[type_local]
    values = r.f64_array(N)
    valid = r.bool_array(N)
    metric_tn = r.f64_array(N)
    metric_tmax = r.f64_array(N)
    metric_dmax = r.f64_array(N)
    vals_raw = r.text_column(N)
    row_host = (
        np.repeat(
            np.arange(H, dtype=np.int32), np.diff(host_row_start)
        )
        if H
        else np.zeros(0, dtype=np.int32)
    )
    return ColumnarCluster(
        name=name,
        owner=owner,
        localtime=localtime,
        url=url,
        host_names=host_names,
        host_ip=host_ip,
        host_location=host_location,
        host_reported=host_reported,
        host_tn=host_tn,
        host_tmax=host_tmax,
        host_dmax=host_dmax,
        host_row_start=host_row_start,
        row_host=row_host,
        name_ids=name_ids,
        type_ids=type_ids,
        units_ids=units_ids,
        slope_ids=slope_ids,
        source_ids=source_ids,
        values=values,
        numeric=numeric,
        valid=valid,
        metric_tn=metric_tn,
        metric_tmax=metric_tmax,
        metric_dmax=metric_dmax,
        vals_raw=vals_raw,
        pool=pool,
    )


def decode_cluster_document(body: bytes, pool=None):
    """Rebuild a ColumnarDocument from a CLUSTER_DOC body."""
    from repro.columnar.layout import ColumnarDocument, InternPool

    if pool is None:
        pool = InternPool()
    r = _BodyReader(body)
    version = r.string()
    source = r.string()
    count = r.uvarint()
    clusters = [_decode_cluster(r, pool) for _ in range(count)]
    r.expect_end()
    return ColumnarDocument(version=version, source=source, clusters=clusters)


# -- summary-form documents (gmetad federation) ----------------------------


def _encode_summary_info(w: _BodyWriter, info: SummaryInfo) -> None:
    w.uvarint(info.hosts_up)
    w.uvarint(info.hosts_down)
    w.uvarint(len(info.metrics))
    # sorted order = XML document order = the dict order a tree parse of
    # the equivalent XML would produce
    for name in sorted(info.metrics):
        m = info.metrics[name]
        w.string(m.name)
        w.string(_fmt_num(m.total))  # canonical wire text, parsed back
        w.svarint(m.num)
        w.string(m.mtype.value)
        w.string(m.units)
        w.string(m.slope.value)
        w.string(m.source)


def _decode_summary_info(r: _BodyReader) -> SummaryInfo:
    from repro.metrics.catalog import Slope
    from repro.metrics.types import MetricType

    info = SummaryInfo(hosts_up=r.uvarint(), hosts_down=r.uvarint())
    for _ in range(r.uvarint()):
        name = r.string()
        total_text = r.string()
        num = r.svarint()
        mtype_raw = r.string()
        units = r.string()
        slope_raw = r.string()
        source = r.string()
        try:
            mtype = MetricType(mtype_raw)
        except ValueError:
            raise FrameError(f"unknown metric TYPE {mtype_raw!r}") from None
        try:
            slope = Slope(slope_raw)
        except ValueError:
            raise FrameError(f"bad SLOPE {slope_raw!r}") from None
        try:
            total = float(total_text)
        except ValueError:
            raise FrameError(f"bad SUM {total_text!r}") from None
        info.metrics[name] = MetricSummary(
            name=name, total=total, num=num, mtype=mtype,
            units=units, slope=slope, source=source,
        )
    return info


def _encode_summary_cluster(w: _BodyWriter, c: ClusterElement) -> None:
    if c.summary is None:
        raise FrameError(
            f"cluster {c.name!r} has no summary to encode"
        )
    w.string(c.name)
    w.string(c.owner)
    w.string(_fmt_num(c.localtime))
    w.string(c.url)
    _encode_summary_info(w, c.summary)


def _decode_summary_cluster(r: _BodyReader) -> ClusterElement:
    name = r.string()
    owner = r.string()
    localtime_text = r.string()
    url = r.string()
    try:
        localtime = float(localtime_text)
    except ValueError:
        raise FrameError(f"bad LOCALTIME {localtime_text!r}") from None
    return ClusterElement(
        name=name, owner=owner, localtime=localtime, url=url,
        summary=_decode_summary_info(r),
    )


def _encode_summary_grid(w: _BodyWriter, g: GridElement) -> None:
    w.string(g.name)
    w.string(g.authority)
    w.string(_fmt_num(g.localtime) if g.localtime else "")
    if g.is_summary:
        w.uvarint(1)
        _encode_summary_info(w, g.summary)
        return
    w.uvarint(0)
    w.uvarint(len(g.clusters))
    for name in sorted(g.clusters):
        _encode_summary_cluster(w, g.clusters[name])
    w.uvarint(len(g.grids))
    for name in sorted(g.grids):
        _encode_summary_grid(w, g.grids[name])


def _decode_summary_grid(r: _BodyReader, depth: int = 0) -> GridElement:
    if depth > 16:
        raise FrameError("summary grid nesting too deep")
    name = r.string()
    authority = r.string()
    localtime_text = r.string()
    try:
        localtime = float(localtime_text) if localtime_text else 0.0
    except ValueError:
        raise FrameError(f"bad LOCALTIME {localtime_text!r}") from None
    grid = GridElement(name=name, authority=authority, localtime=localtime)
    if r.uvarint():
        grid.summary = _decode_summary_info(r)
        return grid
    for _ in range(r.uvarint()):
        grid.add_cluster(_decode_summary_cluster(r))
    for _ in range(r.uvarint()):
        grid.add_grid(_decode_summary_grid(r, depth + 1))
    return grid


def encode_summary_document(doc: GangliaDocument, compress: bool = True) -> bytes:
    """Serialize a summary-form document (federation poll answers).

    Raises :class:`FrameError` for full-form content -- callers fall
    back to XML rather than ship an unfaithful frame.
    """
    w = _BodyWriter()
    w.string(doc.version)
    w.string(doc.source)
    w.uvarint(len(doc.clusters))
    for name in sorted(doc.clusters):
        _encode_summary_cluster(w, doc.clusters[name])
    w.uvarint(len(doc.grids))
    for name in sorted(doc.grids):
        _encode_summary_grid(w, doc.grids[name])
    return _seal(SUMMARY_DOC, w.result(), compress)


def decode_summary_document(body: bytes) -> GangliaDocument:
    """Rebuild the summary-form document model from a SUMMARY_DOC body."""
    r = _BodyReader(body)
    doc = GangliaDocument(version=r.string(), source=r.string())
    for _ in range(r.uvarint()):
        doc.add_cluster(_decode_summary_cluster(r))
    for _ in range(r.uvarint()):
        doc.add_grid(_decode_summary_grid(r))
    r.expect_end()
    return doc


# -- pub-sub data messages --------------------------------------------------

_MSG_DELTA = 0
_MSG_FULL = 1


def encode_message(message: dict, compress: bool = True) -> bytes:
    """Serialize one pub-sub ``delta``/``full`` data message.

    Control messages (sub/renew/ok/...) stay JSON -- they are tiny and
    must be readable before any negotiation has happened.
    """
    kind = message.get("t")
    w = _BodyWriter()
    if kind == "delta":
        w.uvarint(_MSG_DELTA)
        w.string(str(message.get("id", "")))
        w.svarint(int(message["seq"]))
        w.svarint(int(message["prev"]))
        ops = message.get("ops", ())
        w.uvarint(len(ops))
        for op in ops:
            if op[0] == "s" and len(op) == 3:
                w.uvarint(0)
                w.string(op[1])
                w.string(op[2])
            elif op[0] == "d" and len(op) == 2:
                w.uvarint(1)
                w.string(op[1])
            else:
                raise FrameError(f"bad delta op {op!r}")
    elif kind == "full":
        w.uvarint(_MSG_FULL)
        w.string(str(message.get("id", "")))
        w.svarint(int(message["seq"]))
        state = message.get("state", {})
        w.uvarint(len(state))
        for path, value in state.items():
            w.string(path)
            w.string(value)
    else:
        raise FrameError(f"cannot binary-encode message type {kind!r}")
    return _seal(PUBSUB_MSG, w.result(), compress)


def decode_message(body: bytes) -> dict:
    """Rebuild the message dict from a PUBSUB_MSG body."""
    r = _BodyReader(body)
    kind = r.uvarint()
    if kind == _MSG_DELTA:
        sub_id = r.string()
        seq = r.svarint()
        prev = r.svarint()
        ops: List[list] = []
        for _ in range(r.uvarint()):
            op_kind = r.uvarint()
            if op_kind == 0:
                path = r.string()
                value = r.string()
                ops.append(["s", path, value])
            elif op_kind == 1:
                ops.append(["d", r.string()])
            else:
                raise FrameError(f"bad delta op kind {op_kind}")
        r.expect_end()
        return {"t": "delta", "id": sub_id, "seq": seq, "prev": prev, "ops": ops}
    if kind == _MSG_FULL:
        sub_id = r.string()
        seq = r.svarint()
        state: Dict[str, str] = {}
        for _ in range(r.uvarint()):
            path = r.string()
            state[path] = r.string()
        r.expect_end()
        return {"t": "full", "id": sub_id, "seq": seq, "state": state}
    raise FrameError(f"unknown message kind {kind}")


# -- whole-frame conveniences ----------------------------------------------


def decode_document(
    data: bytes, pool=None
) -> Tuple[int, Union["object", GangliaDocument]]:
    """Decode a document frame; returns ``(kind, document)``.

    ``CLUSTER_DOC`` frames yield a ColumnarDocument (ids interned into
    ``pool``); ``SUMMARY_DOC`` frames yield a summary-form
    GangliaDocument.  PUBSUB_MSG frames are rejected here -- they belong
    to :func:`decode_message` via the broker path.
    """
    kind, body = open_frame(data)
    if kind == CLUSTER_DOC:
        return kind, decode_cluster_document(body, pool)
    if kind == SUMMARY_DOC:
        return kind, decode_summary_document(body)
    raise FrameError("not a document frame")


def materialize_document(cdoc) -> GangliaDocument:
    """ColumnarDocument -> the exact GangliaDocument tree the XML parse
    of the equivalent text would have built (non-columnar receivers)."""
    doc = GangliaDocument(version=cdoc.version, source=cdoc.source)
    for cols in cdoc.clusters:
        doc.add_cluster(cols.materialize_into(cols.shell_cluster()))
    return doc


def decode_to_xml(data: bytes, pool=None) -> str:
    """Decode a document frame all the way back to canonical XML text.

    The byte-equivalence proof of the codec: for any payload our
    writer produced, ``decode_to_xml(encode(parse(xml)))`` must equal
    ``xml`` (pinned by the round-trip suites).

    CLUSTER_DOC frames render straight from the columns
    (:func:`repro.serve.render.render_cluster`) without materializing a
    DOM tree first -- the text is byte-identical either way, so only
    consumers that hold onto the element model pay for building it.
    """
    kind, document = decode_document(data, pool)
    if kind == CLUSTER_DOC:
        # local import: repro.serve imports the writer's formatting
        # helpers, and the wire package must stay importable on its own
        from repro.serve.render import render_cluster

        parts = [
            '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n',
            f'<GANGLIA_XML VERSION="{escape_attr(str(document.version))}"'
            f' SOURCE="{escape_attr(str(document.source))}">\n',
        ]
        for cols in sorted(document.clusters, key=lambda c: c.name):
            parts.append(render_cluster(cols))
        parts.append("</GANGLIA_XML>\n")
        return "".join(parts)
    return write_document(document)
