"""Serialize the element model to Ganglia XML text.

The writer produces the exact byte stream a gmond/gmetad would put on a
TCP connection; payload sizes (``len()`` of the result) drive both the
simulated transfer times and the CPU cost accounting, so the output is
deliberately compact -- single-space separated attributes, no pretty
indentation beyond newlines (matching the real daemons' output shape).
"""

from __future__ import annotations

from typing import List

from repro.wire.escape import escape_attr
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    GridElement,
    HostElement,
    MetricElement,
    MetricSummary,
    SummaryInfo,
)


def _fmt_num(value: float) -> str:
    """Compact numeric attribute rendering (ints without decimal point).

    Negative zero is normalized to ``"0"``: incremental accumulators can
    leave a tiny negative residue (or an exact ``-0.0``) in a value whose
    mathematical total is zero, and every numeric attribute -- SUM, TN,
    TMAX, DMAX, REPORTED, LOCALTIME -- funnels through here, so this is
    the single choke point guaranteeing ``"-0"`` never reaches the wire.
    """
    i = int(value)
    if i == value:
        return str(i)  # int(-0.0) == -0.0, so exact -0.0 renders "0"
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


#: The XML declaration every Ganglia document starts with.
XML_PROLOG = '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'


def start_tag(name: str, attrs: List[tuple], close: bool = False) -> str:
    """One opening (or self-closing) tag with escaped attributes."""
    pieces = [f"<{name}"]
    for key, value in attrs:
        pieces.append(f' {key}="{escape_attr(str(value))}"')
    pieces.append("/>\n" if close else ">\n")
    return "".join(pieces)


class XmlWriter:
    """Accumulates XML text; one instance per serialization."""

    def __init__(self) -> None:
        self._parts: List[str] = []

    def raw(self, text: str) -> None:
        """Append literal text (prolog, comments)."""
        self._parts.append(text)

    def open_tag(self, name: str, attrs: List[tuple], close: bool = False) -> None:
        """Append an opening (or self-closing) tag with attributes."""
        self._parts.append(start_tag(name, attrs, close))

    def close_tag(self, name: str) -> None:
        """Append a closing tag."""
        self._parts.append(f"</{name}>\n")

    def result(self) -> str:
        """The accumulated XML text."""
        return "".join(self._parts)

    # -- element writers ---------------------------------------------------

    def metric(self, m: MetricElement) -> None:
        # hand-rolled f-string: this is the serialization hot path (one
        # call per metric per host per poll cycle across the federation)
        e = escape_attr
        units = f' UNITS="{e(m.units)}"' if m.units else ""
        self._parts.append(
            f'<METRIC NAME="{e(m.name)}" VAL="{e(m.val)}"'
            f' TYPE="{m.mtype.value}"{units}'
            f' TN="{_fmt_num(m.tn)}" TMAX="{_fmt_num(m.tmax)}"'
            f' DMAX="{_fmt_num(m.dmax)}" SLOPE="{m.slope.value}"'
            f' SOURCE="{e(m.source)}"/>\n'
        )

    def metric_summary(self, s: MetricSummary) -> None:
        """Write one METRICS additive-reduction element."""
        attrs = [
            ("NAME", s.name),
            ("SUM", _fmt_num(s.total)),
            ("NUM", str(s.num)),
            ("TYPE", s.mtype.value),
        ]
        if s.units:
            attrs.append(("UNITS", s.units))
        attrs.append(("SLOPE", s.slope.value))
        attrs.append(("SOURCE", s.source))
        self.open_tag("METRICS", attrs, close=True)

    def summary_info(self, info: SummaryInfo) -> None:
        """Write the HOSTS element plus every METRICS reduction."""
        self.open_tag(
            "HOSTS",
            [("UP", str(info.hosts_up)), ("DOWN", str(info.hosts_down))],
            close=True,
        )
        for name in sorted(info.metrics):
            self.metric_summary(info.metrics[name])

    def host(self, h: HostElement) -> None:
        """Write a HOST element with its METRIC children."""
        attrs = [("NAME", h.name)]
        if h.ip:
            attrs.append(("IP", h.ip))
        attrs.extend(
            [
                ("REPORTED", _fmt_num(h.reported)),
                ("TN", _fmt_num(h.tn)),
                ("TMAX", _fmt_num(h.tmax)),
                ("DMAX", _fmt_num(h.dmax)),
            ]
        )
        if not h.metrics:
            self.open_tag("HOST", attrs, close=True)
            return
        self.open_tag("HOST", attrs)
        metrics = h.metrics
        for name in sorted(metrics):
            self.metric(metrics[name])
        self.close_tag("HOST")

    def cluster(self, c: ClusterElement, summary_only: bool = False) -> None:
        """Write a CLUSTER element, full or summary form."""
        attrs = [("NAME", c.name)]
        if c.owner:
            attrs.append(("OWNER", c.owner))
        attrs.append(("LOCALTIME", _fmt_num(c.localtime)))
        if c.url:
            attrs.append(("URL", c.url))
        self.open_tag("CLUSTER", attrs)
        if summary_only or c.is_summary:
            if c.summary is None:
                raise ValueError(
                    f"cluster {c.name!r} has no summary to serialize"
                )
            self.summary_info(c.summary)
        else:
            for name in sorted(c.hosts):
                self.host(c.hosts[name])
        self.close_tag("CLUSTER")

    def grid(self, g: GridElement, summary_only: bool = False) -> None:
        """Write a GRID element, full or summary form."""
        attrs = [("NAME", g.name), ("AUTHORITY", g.authority)]
        if g.localtime:
            attrs.append(("LOCALTIME", _fmt_num(g.localtime)))
        self.open_tag("GRID", attrs)
        if summary_only or g.is_summary:
            if g.summary is None:
                raise ValueError(f"grid {g.name!r} has no summary to serialize")
            self.summary_info(g.summary)
        else:
            for name in sorted(g.clusters):
                self.cluster(g.clusters[name])
            for name in sorted(g.grids):
                self.grid(g.grids[name])
        self.close_tag("GRID")

    def document(self, doc: GangliaDocument) -> None:
        """Write a complete GANGLIA_XML document."""
        self.raw(XML_PROLOG)
        self.open_tag("GANGLIA_XML", [("VERSION", doc.version), ("SOURCE", doc.source)])
        for name in sorted(doc.clusters):
            self.cluster(doc.clusters[name])
        for name in sorted(doc.grids):
            self.grid(doc.grids[name])
        self.close_tag("GANGLIA_XML")


def write_document(doc: GangliaDocument) -> str:
    """Serialize a complete document; the common entry point."""
    writer = XmlWriter()
    writer.document(doc)
    return writer.result()


def write_fragment(element) -> str:
    """Serialize a single grid/cluster/host/metric element (query replies)."""
    writer = XmlWriter()
    if isinstance(element, GridElement):
        writer.grid(element)
    elif isinstance(element, ClusterElement):
        writer.cluster(element)
    elif isinstance(element, HostElement):
        writer.host(element)
    elif isinstance(element, MetricElement):
        writer.metric(element)
    elif isinstance(element, SummaryInfo):
        writer.summary_info(element)
    elif isinstance(element, GangliaDocument):
        writer.document(element)
    else:
        raise TypeError(f"cannot serialize {type(element).__name__}")
    return writer.result()
