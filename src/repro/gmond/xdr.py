"""XDR encoding of gmond metric datagrams.

Real gmond multicasts metrics as XDR (RFC 4506) messages; the sender's
identity comes from the datagram's source address, not the payload.
This module implements the XDR primitives (big-endian u32, padded
counted strings, IEEE floats) and the metric message layout -- the
user-defined/gmetric form of Ganglia 2.5, used here uniformly for all
metrics::

    u32     magic        0x67616E67 ("gang")
    string  type         ("float", "uint32", "string", ...)
    string  name
    string  value        (string-rendered, as gmetric sends it)
    string  units
    u32     slope        (zero=0, positive=1, negative=2, both=3)
    u32     tmax
    u32     dmax
    string  source       ("gmond" | "gmetric")

With this module the simulated channel carries *actual bytes*: datagram
sizes in the traffic benchmark are measured, not estimated, and a
corrupted datagram is detected exactly where the real daemon would
detect it (decode time).
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.metrics.catalog import Slope
from repro.metrics.types import MetricSample, MetricType, coerce_value

MAGIC = 0x67616E67  # "gang": long form (user-defined / gmetric)
SHORT_MAGIC = 0x67616E73  # "gans": short form (builtin metric by id)

_SLOPE_CODE = {
    Slope.ZERO: 0,
    Slope.POSITIVE: 1,
    Slope.NEGATIVE: 2,
    Slope.BOTH: 3,
}
_SLOPE_FROM_CODE = {v: k for k, v in _SLOPE_CODE.items()}


class XdrError(ValueError):
    """Malformed XDR data."""


class XdrEncoder:
    """Accumulates XDR-encoded fields."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def pack_uint(self, value: int) -> "XdrEncoder":
        """Append a big-endian 32-bit unsigned integer."""
        if not (0 <= value < 2**32):
            raise XdrError(f"u32 out of range: {value}")
        self._parts.append(struct.pack(">I", value))
        return self

    def pack_string(self, text: str) -> "XdrEncoder":
        """Append an XDR counted string (padded to 4 bytes)."""
        data = text.encode("utf-8")
        self.pack_uint(len(data))
        padding = (4 - len(data) % 4) % 4
        self._parts.append(data + b"\x00" * padding)
        return self

    def result(self) -> bytes:
        """The encoded bytes."""
        return b"".join(self._parts)


class XdrDecoder:
    """Consumes XDR-encoded fields."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._data):
            raise XdrError(
                f"truncated XDR data at offset {self._offset} "
                f"(need {count} bytes of {len(self._data)})"
            )
        chunk = self._data[self._offset : self._offset + count]
        self._offset += count
        return chunk

    def unpack_uint(self) -> int:
        """Consume a big-endian 32-bit unsigned integer."""
        return struct.unpack(">I", self._take(4))[0]

    def unpack_string(self) -> str:
        """Consume an XDR counted string."""
        length = self.unpack_uint()
        if length > len(self._data):
            raise XdrError(f"implausible string length {length}")
        data = self._take(length)
        padding = (4 - length % 4) % 4
        self._take(padding)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"bad UTF-8 in string: {exc}") from None
        if "\0" in text:
            # XML 1.0 excludes the character: an agent that kept it
            # would serve replies no gmetad can parse
            raise XdrError("U+0000 in string")
        return text

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset


# -- short form: builtin metrics by id ------------------------------------
#
# Real gmond sends each builtin metric as (message id, binary value):
# the name, type, units, slope, tmax and dmax are compiled into every
# agent, so ~30 metrics cost ~12-16 bytes each instead of ~100.  This is
# what keeps a 128-node cluster under the 56 Kbps envelope.

from repro.metrics.catalog import BUILTIN_METRICS, MetricDef  # noqa: E402

_BUILTIN_BY_INDEX: Tuple[MetricDef, ...] = tuple(BUILTIN_METRICS)
_INDEX_BY_NAME = {m.name: i for i, m in enumerate(_BUILTIN_BY_INDEX)}


def _pack_typed_value(encoder: XdrEncoder, value, mtype: MetricType) -> None:
    if mtype is MetricType.STRING:
        encoder.pack_string(str(value))
    elif mtype is MetricType.FLOAT:
        encoder._parts.append(struct.pack(">f", float(value)))
    elif mtype is MetricType.DOUBLE:
        encoder._parts.append(struct.pack(">d", float(value)))
    else:  # integral types travel as signed 64-bit for range safety
        encoder._parts.append(struct.pack(">q", int(value)))


def _unpack_typed_value(decoder: XdrDecoder, mtype: MetricType):
    if mtype is MetricType.STRING:
        return decoder.unpack_string()
    if mtype is MetricType.FLOAT:
        return struct.unpack(">f", decoder._take(4))[0]
    if mtype is MetricType.DOUBLE:
        return struct.unpack(">d", decoder._take(8))[0]
    return struct.unpack(">q", decoder._take(8))[0]


def encode_metric(sample: MetricSample) -> bytes:
    """Serialize one sample: short form for builtins, long for the rest.

    A sample only qualifies for the short form when its metadata matches
    the compiled-in definition -- a builtin *name* republished with
    different units or lifetime (e.g. via gmetric) must travel long-form
    so receivers see the sender's metadata.
    """
    index = _INDEX_BY_NAME.get(sample.name)
    if index is not None and sample.source == "gmond":
        mdef = _BUILTIN_BY_INDEX[index]
        if mdef.mtype is sample.mtype:
            encoder = XdrEncoder()
            encoder.pack_uint(SHORT_MAGIC)
            encoder.pack_uint(index)
            _pack_typed_value(encoder, sample.value, sample.mtype)
            return encoder.result()
    return _encode_metric_long(sample)


def _decode_metric_short(decoder: XdrDecoder, received_at: float) -> MetricSample:
    index = decoder.unpack_uint()
    if index >= len(_BUILTIN_BY_INDEX):
        raise XdrError(f"unknown builtin metric id {index}")
    mdef = _BUILTIN_BY_INDEX[index]
    value = _unpack_typed_value(decoder, mdef.mtype)
    sample = MetricSample(
        name=mdef.name,
        value=value,
        mtype=mdef.mtype,
        units=mdef.units,
        source="gmond",
        tmax=mdef.tmax,
        dmax=mdef.dmax,
        reported_at=received_at,
    )
    sample.extra["slope"] = mdef.slope
    return sample


def _encode_metric_long(sample: MetricSample) -> bytes:
    encoder = XdrEncoder()
    encoder.pack_uint(MAGIC)
    encoder.pack_string(sample.mtype.value)
    encoder.pack_string(sample.name)
    encoder.pack_string(sample.wire_value())
    encoder.pack_string(sample.units)
    encoder.pack_uint(_SLOPE_CODE.get(sample.extra.get("slope", Slope.BOTH), 3))
    encoder.pack_uint(int(sample.tmax))
    encoder.pack_uint(int(sample.dmax))
    encoder.pack_string(sample.source)
    return encoder.result()


def decode_metric(data: bytes, received_at: float = 0.0) -> MetricSample:
    """Parse datagram bytes back into a sample.  Raises XdrError on junk."""
    decoder = XdrDecoder(data)
    magic = decoder.unpack_uint()
    if magic == SHORT_MAGIC:
        return _decode_metric_short(decoder, received_at)
    if magic != MAGIC:
        raise XdrError(f"bad magic 0x{magic:08x}")
    type_text = decoder.unpack_string()
    try:
        mtype = MetricType.parse(type_text)
    except ValueError as exc:
        raise XdrError(str(exc)) from None
    name = decoder.unpack_string()
    if not name:
        raise XdrError("empty metric name")
    raw_value = decoder.unpack_string()
    units = decoder.unpack_string()
    slope_code = decoder.unpack_uint()
    tmax = decoder.unpack_uint()
    dmax = decoder.unpack_uint()
    source = decoder.unpack_string()
    try:
        value = coerce_value(raw_value, mtype)
    except ValueError as exc:
        raise XdrError(str(exc)) from None
    sample = MetricSample(
        name=name,
        value=value,
        mtype=mtype,
        units=units,
        source=source,
        tmax=float(tmax),
        dmax=float(dmax),
        reported_at=received_at,
    )
    sample.extra["slope"] = _SLOPE_FROM_CODE.get(slope_code, Slope.BOTH)
    return sample


def roundtrip_size(sample: MetricSample) -> int:
    """Datagram size in bytes for one sample (for traffic accounting)."""
    return len(encode_metric(sample))
