"""Streaming SAX-style parser specialized to the Ganglia DTD.

The paper's web frontend uses PHP's SAX parser and its cost is
proportional to the XML size; gmetad likewise re-parses each source every
polling interval ("incoming XML must be parsed", §2.3.1).  This parser
is the reproduction of that component: a single forward scan that emits
``start_element``/``end_element`` events.  Ganglia XML has no text nodes,
namespaces or CDATA, so the scan is a tight loop over tags only.

Two consumers exist:

- :class:`TreeBuilder` -- builds the :mod:`repro.wire.model` element tree
  (what gmetad's background parser does);
- :class:`CountingHandler` -- counts events without building anything
  (what the frontend cost model uses to weigh parse effort).

:func:`parse_columnar` fills the structure-of-arrays layout of
:mod:`repro.columnar` for full-form cluster documents by one of two
routes: its bulk lane cuts the whole document with C-level scans, or
the tree parser takes it whole (validation on, or any span the lane
declines) and :func:`~repro.columnar.layout.columns_from_cluster`
converts each cluster.  GRID and summary-form documents raise
:class:`ColumnarFallback` carrying the tree document.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType
from repro.wire import dtd
from repro.wire.escape import unescape_attr
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    GridElement,
    HostElement,
    MetricElement,
    MetricSummary,
    SummaryInfo,
)


class ParseError(ValueError):
    """Malformed Ganglia XML."""

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            message = f"{message} (at byte {position})"
        super().__init__(message)
        self.position = position


class SaxHandler(Protocol):
    """Event consumer interface."""

    def start_element(self, name: str, attrs: Dict[str, str]) -> None: ...

    def end_element(self, name: str) -> None: ...


_TAG_RE = re.compile(r"<([^<>]*)>")
_ATTR_RE = re.compile(r'([A-Za-z_][\w.:-]*)\s*=\s*"([^"]*)"')
_NAME_RE = re.compile(r"[A-Za-z_][\w.:-]*")

class GangliaParser:
    """One-pass event parser.

    ``validate=True`` checks every element against the DTD containment
    and attribute rules; experiments that only care about throughput can
    disable it.
    """

    def __init__(self, validate: bool = True) -> None:
        self.validate = validate

    def parse(self, text: str, handler: SaxHandler) -> int:
        """Feed ``text`` through ``handler``; returns the event count.

        The loop is the gmetad hot path (megabytes per polling cycle at
        large cluster sizes), so the strict well-formedness checks --
        no text between tags, no junk between attributes, valid element
        names -- only run with ``validate=True``; structural errors
        (mismatched/unclosed tags, missing root) are always caught.

        A handler's ``KeyError`` -- a required attribute is absent --
        surfaces as a :class:`ParseError` like any other malformation.
        So does U+0000 anywhere in ``text``: XML 1.0 (§2.2) excludes the
        character, and the columns end each VAL in it.
        """
        nul = text.find("\0")
        if nul >= 0:
            raise ParseError("U+0000 in the document", nul)
        validate = self.validate
        stack: List[str] = []
        events = 0
        seen_root = False
        pos = 0
        start_element = handler.start_element
        end_element = handler.end_element
        attr_findall = _ATTR_RE.findall
        for match in _TAG_RE.finditer(text):
            if validate:
                # Anything between tags must be whitespace (no text nodes).
                gap = text[pos : match.start()]
                if gap and not gap.isspace():
                    raise ParseError(
                        f"unexpected text content {gap.strip()[:40]!r}", pos
                    )
                pos = match.end()
            body = match.group(1).strip()
            if not body:
                raise ParseError("empty tag", match.start())
            head = body[0]
            # prolog, comments, doctype
            if head == "?" or head == "!":
                continue
            if head == "/":
                name = body[1:].strip()
                if not stack:
                    raise ParseError(f"unmatched </{name}>", match.start())
                expected = stack.pop()
                if name != expected:
                    raise ParseError(
                        f"mismatched close tag </{name}>, expected </{expected}>",
                        match.start(),
                    )
                end_element(name)
                events += 1
                continue
            self_closing = body.endswith("/")
            if self_closing:
                body = body[:-1].rstrip()
            space = body.find(" ")
            if space < 0:
                name, attr_text = body, ""
            else:
                name, attr_text = body[:space], body[space:]
            attrs: Dict[str, str]
            if validate:
                name_match = _NAME_RE.match(name)
                if name_match is None or name_match.end() != len(name):
                    raise ParseError(f"bad tag {body[:40]!r}", match.start())
                attrs = {}
                consumed = 0
                for am in _ATTR_RE.finditer(attr_text):
                    attrs[am.group(1)] = unescape_attr(am.group(2))
                    consumed = am.end()
                if attr_text[consumed:].strip():
                    raise ParseError(
                        f"malformed attributes in <{name}>: "
                        f"{attr_text[consumed:].strip()[:40]!r}",
                        match.start(),
                    )
            else:
                attrs = {
                    k: (unescape_attr(v) if "&" in v else v)
                    for k, v in attr_findall(attr_text)
                }
            if not stack:
                if seen_root:
                    raise ParseError(
                        f"content after document element: <{name}>",
                        match.start(),
                    )
                seen_root = True
                parent = None
            else:
                parent = stack[-1]
            if validate:
                try:
                    dtd.check_element(name, attrs, parent)
                except dtd.DtdError as exc:
                    raise ParseError(str(exc), match.start()) from None
            try:
                start_element(name, attrs)
            except KeyError as exc:
                raise ParseError(
                    f"<{name}> missing attribute {exc}", match.start()
                ) from None
            events += 1
            if self_closing:
                end_element(name)
                events += 1
                continue
            stack.append(name)
        if validate:
            tail = text[pos:]
            if tail and not tail.isspace():
                raise ParseError(f"trailing content {tail.strip()[:40]!r}", pos)
        if stack:
            raise ParseError(f"unclosed element <{stack[-1]}>", len(text))
        if not seen_root:
            raise ParseError("no document element found")
        return events


def _opt_float(attrs: Dict[str, str], key: str, default: float = 0.0) -> float:
    raw = attrs.get(key)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"bad numeric attribute {key}={raw!r}") from None


#: enum lookup tables -- Enum.__call__ is too slow for the METRIC fast path
_MTYPE_BY_VALUE: Dict[str, MetricType] = {m.value: m for m in MetricType}
_SLOPE_BY_VALUE: Dict[str, Slope] = {s.value: s for s in Slope}


def _opt_slope(attrs: Dict[str, str]) -> Slope:
    raw = attrs.get("SLOPE")
    if raw is None:
        return Slope.BOTH
    slope = _SLOPE_BY_VALUE.get(raw)
    if slope is None:
        raise ParseError(f"bad SLOPE {raw!r}")
    return slope


class TreeBuilder:
    """Builds a :class:`GangliaDocument` from parse events."""

    def __init__(self) -> None:
        self.document: Optional[GangliaDocument] = None
        # a root-level element's parent is this None: the context checks
        # below reject it instead of indexing an empty stack
        self._stack: List[object] = [None]

    # -- container helpers ---------------------------------------------------

    def _attach_summary_target(self) -> SummaryInfo:
        container = self._stack[-1]
        if not isinstance(container, (GridElement, ClusterElement)):
            raise ParseError("HOSTS/METRICS outside GRID or CLUSTER")
        if container.summary is None:
            container.summary = SummaryInfo()
        return container.summary

    # -- SaxHandler ---------------------------------------------------------

    def start_element(self, name: str, attrs: Dict[str, str]) -> None:
        if name == "METRIC":
            # the fast path: >95% of elements in a full-form document
            mtype = _MTYPE_BY_VALUE.get(attrs["TYPE"])
            if mtype is None:
                raise ParseError(f"unknown metric TYPE {attrs['TYPE']!r}")
            get = attrs.get
            metric = MetricElement(
                name=attrs["NAME"],
                val=attrs["VAL"],
                mtype=mtype,
                units=get("UNITS", ""),
                tn=_opt_float(attrs, "TN"),
                tmax=_opt_float(attrs, "TMAX", 60.0),
                dmax=_opt_float(attrs, "DMAX"),
                slope=_opt_slope(attrs),
                source=get("SOURCE", "gmond"),
            )
            parent = self._stack[-1]
            if not isinstance(parent, HostElement):
                raise ParseError("METRIC outside HOST")
            parent.metrics[metric.name] = metric
            self._stack.append(metric)
            return
        if name == "GANGLIA_XML":
            self.document = GangliaDocument(
                version=attrs.get("VERSION", ""), source=attrs.get("SOURCE", "")
            )
            self._stack.append(self.document)
        elif name == "GRID":
            grid = GridElement(
                name=attrs["NAME"],
                authority=attrs.get("AUTHORITY", ""),
                localtime=_opt_float(attrs, "LOCALTIME"),
            )
            parent = self._stack[-1]
            if isinstance(parent, (GangliaDocument, GridElement)):
                parent.add_grid(grid)
            else:
                raise ParseError("GRID in illegal context")
            self._stack.append(grid)
        elif name == "CLUSTER":
            cluster = ClusterElement(
                name=attrs["NAME"],
                owner=attrs.get("OWNER", ""),
                localtime=_opt_float(attrs, "LOCALTIME"),
                url=attrs.get("URL", ""),
            )
            parent = self._stack[-1]
            if isinstance(parent, (GangliaDocument, GridElement)):
                parent.add_cluster(cluster)
            else:
                raise ParseError("CLUSTER in illegal context")
            self._stack.append(cluster)
        elif name == "HOST":
            host = HostElement(
                name=attrs["NAME"],
                ip=attrs.get("IP", ""),
                reported=_opt_float(attrs, "REPORTED"),
                tn=_opt_float(attrs, "TN"),
                tmax=_opt_float(attrs, "TMAX", 20.0),
                dmax=_opt_float(attrs, "DMAX"),
                location=attrs.get("LOCATION", ""),
            )
            parent = self._stack[-1]
            if not isinstance(parent, ClusterElement):
                raise ParseError("HOST outside CLUSTER")
            parent.add_host(host)
            self._stack.append(host)
        elif name == "METRICS":
            mtype = _MTYPE_BY_VALUE.get(attrs.get("TYPE", "double"))
            if mtype is None:
                raise ParseError(f"unknown METRICS TYPE {attrs.get('TYPE')!r}")
            try:
                total = float(attrs["SUM"])
                num = int(attrs["NUM"])
            except ValueError as exc:
                raise ParseError(f"bad METRICS numbers: {exc}") from None
            summary = MetricSummary(
                name=attrs["NAME"],
                total=total,
                num=num,
                mtype=mtype,
                units=attrs.get("UNITS", ""),
                slope=_opt_slope(attrs),
                source=attrs.get("SOURCE", "gmetad"),
            )
            self._attach_summary_target().add_metric(summary)
            self._stack.append(summary)
        elif name == "HOSTS":
            info = self._attach_summary_target()
            try:
                info.hosts_up = int(attrs["UP"])
                info.hosts_down = int(attrs["DOWN"])
            except ValueError as exc:
                raise ParseError(f"bad HOSTS counts: {exc}") from None
            self._stack.append(info)
        else:
            raise ParseError(f"unknown element <{name}>")

    def end_element(self, name: str) -> None:
        self._stack.pop()


class CountingHandler:
    """Counts events and elements by type; builds nothing."""

    def __init__(self) -> None:
        self.starts = 0
        self.ends = 0
        self.by_element: Dict[str, int] = {}

    def start_element(self, name: str, attrs: Dict[str, str]) -> None:
        self.starts += 1
        self.by_element[name] = self.by_element.get(name, 0) + 1

    def end_element(self, name: str) -> None:
        self.ends += 1


def parse_document(text: str, validate: bool = True) -> GangliaDocument:
    """Parse a complete Ganglia XML document into the element model."""
    builder = TreeBuilder()
    GangliaParser(validate=validate).parse(text, builder)
    if builder.document is None:
        raise ParseError("document produced no GANGLIA_XML root")
    return builder.document


# -- columnar fast path -----------------------------------------------------


class ColumnarFallback(Exception):
    """A GRID or summary-form document: it has no hosts to hold as columns.

    ``document`` is the tree parser's document of the same text, so the
    caller ingests it without parsing twice.
    """

    def __init__(self, document: GangliaDocument) -> None:
        super().__init__("GRID or summary-form document")
        self.document = document


def _bulk_float(raws: Sequence[str], key: str, default: str) -> "np.ndarray":
    """Convert raw attribute strings; "" takes the default.

    One vectorized conversion attempt; on failure a scalar sweep finds
    the culprit and raises the same message ``_opt_float`` would have.
    (The sweep also accepts the few spellings Python's ``float`` allows
    but numpy's parser rejects, e.g. digit separators.)
    """
    import numpy as np

    if "" in raws:
        raws = [default if r == "" else r for r in raws]
    try:
        return np.asarray(raws, dtype=np.float64)
    except ValueError:
        out = np.empty(len(raws), dtype=np.float64)
        for i, raw in enumerate(raws):
            try:
                out[i] = float(raw)
            except ValueError:
                raise ParseError(
                    f"bad numeric attribute {key}={raw!r}"
                ) from None
        return out


def _host_fields(attrs: Dict[str, str]) -> tuple:
    """(NAME, IP, LOCATION, REPORTED, TN, TMAX, DMAX) of one HOST."""
    get = attrs.get
    return (
        attrs["NAME"],
        get("IP", ""),
        get("LOCATION", ""),
        _opt_float(attrs, "REPORTED"),
        _opt_float(attrs, "TN"),
        _opt_float(attrs, "TMAX", 20.0),
        _opt_float(attrs, "DMAX"),
    )


#: one METRIC row in the writer's attribute order, cut into NAME, VAL,
#: the TYPE/UNITS text, TN and the TMAX..SOURCE text.  ``[^"]*`` is the
#: fastest class to scan; the bulk lane's span checks keep ``&<>'`` out
#: of every value it takes, so the raw text is the value.
_ROW_RE = re.compile(
    r'<METRIC NAME="([^"]*)" VAL="([^"]*)" (TYPE="[^"]*"(?: UNITS="[^"]*")?)'
    r' TN="([^"]*)" (TMAX="[^"]*" DMAX="[^"]*" SLOPE="[^"]*" SOURCE="[^"]*")\s*/>'
)
_HOST_TAG_RE = re.compile(r"<HOST ([^<>]*)>")


@dataclass
class _Span:
    """One CLUSTER span the bulk lane cut, not yet interned."""

    #: CLUSTER (NAME, OWNER, LOCALTIME, URL)
    cluster: tuple
    #: one :func:`_host_fields` tuple per HOST, and its row count
    hosts: List[tuple]
    counts: List[int]
    #: distinct (NAME, decoded attributes) row shapes in first-sight
    #: order, and each row's index into them
    shapes: List[tuple]
    code: "np.ndarray"
    vals: List[str]
    tn: "np.ndarray"
    tmax: "np.ndarray"
    dmax: "np.ndarray"


def _cut(cluster: tuple, text: str, start: int, end: int) -> Optional[_Span]:
    """Cut one CLUSTER span ``text[start:end]``, or ``None`` to decline it.

    Taken only when each HOST closes once before the next opens, or
    self-closes empty; the span's ``<`` and ``>`` counts both equal
    its rows plus HOST and ``</HOST>`` tags (no other tag, no row
    outside a host, no ``<>`` in a value); it holds no ``&`` or
    ``'``; host names, and metric names per host, are unique; and
    every attribute decodes.  Rows are cut per host body: a span-wide
    ``findall`` would hold a tuple per row alive at once and drive
    the cyclic collector into full collections of the heap.
    """
    import numpy as np

    hosts = []
    vals, tns = [], []
    # per host, its rows' (NAME, TYPE.., TMAX..) texts as three tuples
    layouts = []
    counts = []
    closes = 0
    after = start
    for m in _HOST_TAG_RE.finditer(text, start, end):
        if m.start() < after:
            return None  # opened before the previous host closed
        try:
            hosts.append(_host_fields(dict(_ATTR_RE.findall(m.group(1)))))
        except (KeyError, ParseError):
            return None
        after = m.end()
        if m.group(1).rstrip().endswith("/"):
            counts.append(0)
            continue
        close = text.find("</HOST>", after, end)
        if close < 0:
            return None
        host_rows = _ROW_RE.findall(text, after, close)
        if host_rows:
            names, host_vals, heads, host_tns, tails = zip(*host_rows)
            if len(set(names)) != len(host_rows):
                return None  # a duplicate NAME overwrites in place
            vals.extend(host_vals)
            tns.extend(host_tns)
            layouts.append((names, heads, tails))
        counts.append(len(host_rows))
        closes += 1
        after = close + len("</HOST>")
    tags = len(vals) + len(hosts) + closes
    if (
        text.count("<", start, end) != tags
        or text.count(">", start, end) != tags
        or text.find("&", start, end) >= 0
        or text.find("'", start, end) >= 0
        or len({h[0] for h in hosts}) != len(hosts)
    ):
        return None
    # distinct (NAME, TYPE.., TMAX..) texts in first-sight order:
    # interning along them allocates ids as the tree route does.  A
    # host laid out like the one before it reuses that host's codes.
    distinct: Dict[tuple, int] = {}
    codes = []
    last = None
    for layout in layouts:
        if layout != last:
            code = np.fromiter(
                (distinct.setdefault(t, len(distinct)) for t in zip(*layout)),
                np.intp, len(layout[0]),
            )
            last = layout
        codes.append(code)
    shapes = []
    for name, head, tail in distinct:
        attrs = dict(_ATTR_RE.findall(f"{head} {tail}"))
        if attrs["TYPE"] not in _MTYPE_BY_VALUE:
            return None
        if attrs["SLOPE"] not in _SLOPE_BY_VALUE:
            return None
        shapes.append((name, attrs))
    try:
        tn = _bulk_float(tns, "TN", "0")
        tmax = _bulk_float([a["TMAX"] for _, a in shapes], "TMAX", "60")
        dmax = _bulk_float([a["DMAX"] for _, a in shapes], "DMAX", "0")
    except ParseError:
        return None
    code = np.concatenate(codes) if codes else np.empty(0, np.intp)
    return _Span(cluster, hosts, counts, shapes, code, vals, tn, tmax[code], dmax[code])


def _cut_document(text: str) -> Tuple[Optional[tuple], int]:
    """The bulk route: cut the GANGLIA_XML envelope and every CLUSTER span.

    Returns ``((VERSION, SOURCE, spans), 0)`` when the document is a
    root holding only CLUSTER elements (and prolog, comments, doctype,
    between-tag text -- what the tree parser skips without validation)
    and every span is cut; otherwise ``None`` and the ``<METRIC `` tags
    the row pattern missed in the spans left uncut.  Any tag it does not
    expect declines the document whole: the tree route owns odd shapes.
    """
    root: Optional[Dict[str, str]] = None
    closed = False
    spans: Optional[List[_Span]] = []
    names = set()
    misses = 0
    pos = 0
    search = _TAG_RE.search
    while (match := search(text, pos)) is not None:
        pos = match.end()
        body = match.group(1).strip()
        if body[:1] in ("?", "!"):
            continue
        name, _, attr_text = body.partition(" ")
        if name == "CLUSTER" and root is not None and not closed and body[-1] != "/":
            end = text.find("</CLUSTER>", pos)
            if end < 0:
                return None, misses
            span = None
            if spans is not None:
                attrs = _decoded_attrs(attr_text)
                try:
                    cluster = (attrs["NAME"], attrs.get("OWNER", ""),
                               _opt_float(attrs, "LOCALTIME"), attrs.get("URL", ""))
                except (KeyError, ParseError):
                    cluster = None
                if cluster is not None and cluster[0] not in names:
                    names.add(cluster[0])
                    span = _cut(cluster, text, pos, end)
            if span is None:
                misses += text.count("<METRIC ", pos, end) - len(
                    _ROW_RE.findall(text, pos, end)
                )
                spans = None
            else:
                spans.append(span)
            pos = end + len("</CLUSTER>")
        elif name == "GANGLIA_XML" and root is None and body[-1] != "/":
            root = _decoded_attrs(attr_text)
        elif body == "/GANGLIA_XML" and root is not None and not closed:
            closed = True
        else:
            spans = None
    if spans is None or not closed:
        return None, misses
    return (root.get("VERSION", ""), root.get("SOURCE", ""), spans), 0


def _decoded_attrs(attr_text: str) -> Dict[str, str]:
    """One tag's attributes as the non-validating parse reads them."""
    return {
        k: (unescape_attr(v) if "&" in v else v)
        for k, v in _ATTR_RE.findall(attr_text)
    }


def _span_columns(span: _Span, pool: "InternPool") -> "ColumnarCluster":
    """Intern one cut span's shapes into ``pool`` and build its columns."""
    import numpy as np

    from repro.columnar.layout import ColumnarCluster, TextColumn

    ids = []
    for name, attrs in span.shapes:
        # the tree route's order (columns_from_cluster): TYPE, SLOPE,
        # NAME, UNITS, SOURCE
        tid, sid = pool.mtype_id(attrs["TYPE"]), pool.slope_id(attrs["SLOPE"])
        ids.append((pool.intern(name), tid, pool.intern(attrs.get("UNITS", "")),
                    sid, pool.intern(attrs["SOURCE"]), pool.is_numeric_id(tid)))
    table = np.array(ids, dtype=np.int32).reshape(-1, 6).T
    code = span.code
    numeric = table[5][code].astype(bool)
    n = len(code)
    values = np.full(n, np.nan, dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    idx = np.flatnonzero(numeric)
    if idx.size:
        vals = span.vals
        sub = vals if idx.size == n else [vals[i] for i in idx.tolist()]
        try:
            values[idx] = np.asarray(sub, dtype=np.float64)
            valid[idx] = True
        except ValueError:
            # a malformed VAL from a broken reporter: locate it the
            # scalar way -- the row stays, excluded from summaries
            for i in idx:
                try:
                    values[i] = float(vals[i])
                except ValueError:
                    continue
                valid[i] = True
    host_columns = list(zip(*span.hosts)) or [()] * 7
    host_floats = [np.asarray(c, dtype=np.float64) for c in host_columns[3:]]
    counts = span.counts
    name, owner, localtime, url = span.cluster
    return ColumnarCluster(
        name=name,
        owner=owner,
        localtime=localtime,
        url=url,
        host_names=list(host_columns[0]),
        host_ip=list(host_columns[1]),
        host_location=list(host_columns[2]),
        host_reported=host_floats[0],
        host_tn=host_floats[1],
        host_tmax=host_floats[2],
        host_dmax=host_floats[3],
        host_row_start=np.asarray(
            list(itertools.accumulate(counts, initial=0)), dtype=np.int64
        ),
        row_host=np.repeat(np.arange(len(counts), dtype=np.int32), counts),
        name_ids=table[0][code],
        type_ids=table[1][code],
        units_ids=table[2][code],
        slope_ids=table[3][code],
        source_ids=table[4][code],
        values=values,
        numeric=numeric,
        valid=valid,
        metric_tn=span.tn,
        metric_tmax=span.tmax,
        metric_dmax=span.dmax,
        vals_raw=TextColumn.pack(span.vals),
        pool=pool,
    )


def parse_columnar(
    text: str,
    pool: Optional["InternPool"] = None,
    validate: bool = True,
) -> "ColumnarDocument":
    """Parse full-form cluster XML straight into columnar layout.

    Two routes, one result.  Without validation the bulk route
    (:func:`_cut_document`) cuts the envelope and every CLUSTER span
    with C-level scans; only once it has cut them all does the pool
    grow, and ``fast_lane_hits`` counts every row.  Anything else -- a
    span or envelope it declines, or validation on -- goes whole
    through :func:`parse_document`, and each cluster through
    :func:`columns_from_cluster` into the same pool, interning in the
    same order: the tree parser owns every error and every odd shape
    (duplicate HOST or METRIC names: last subtree wins, first position
    kept).  Raises :class:`ColumnarFallback`, carrying the tree
    document, for GRID or summary-form documents.
    """
    from repro.columnar.layout import (
        ColumnarDocument,
        InternPool,
        columns_from_cluster,
    )

    if pool is None:
        pool = InternPool()
    misses = 0
    # U+0000 is the tree parser's error to raise
    if not validate and "\0" not in text:
        cut, misses = _cut_document(text)
        if cut is not None:
            version, source, spans = cut
            clusters = [_span_columns(span, pool) for span in spans]
            return ColumnarDocument(
                version, source, clusters,
                fast_lane_hits=sum(c.row_count for c in clusters),
            )
    document = parse_document(text, validate)
    if document.grids or any(c.is_summary for c in document.clusters.values()):
        raise ColumnarFallback(document)
    return ColumnarDocument(
        document.version,
        document.source,
        [columns_from_cluster(c, pool) for c in document.clusters.values()],
        fast_lane_misses=misses,
    )


# -- corruption-tolerant salvage ------------------------------------------

#: A complete <HOST ...> ... </HOST> subtree.  HOST elements never nest
#: in the Ganglia DTD, so non-greedy matching up to the first close tag
#: is exact on well-formed spans; a span containing corruption junk will
#: fail its probe parse below and be dropped.
_HOST_SPAN_RE = re.compile(r"<HOST\b.*?</HOST\s*>", re.DOTALL)
_HOST_OPEN_RE = re.compile(r"<HOST\b")
_CLUSTER_OPEN_RE = re.compile(r"<CLUSTER\b([^<>]*?)/?\s*>")


@dataclass(frozen=True)
class SalvageResult:
    """What :func:`salvage_document` pulled out of a damaged payload.

    ``document`` is ``None`` when nothing usable survived (the caller
    should fall back to quarantine on last-good state).
    """

    document: Optional[GangliaDocument]
    hosts_salvaged: int
    hosts_dropped: int


def _probe_host_span(span: str) -> bool:
    """Whether one HOST span parses cleanly in isolation."""
    probe = (
        '<GANGLIA_XML VERSION="x" SOURCE="x"><CLUSTER NAME="x">'
        + span
        + "</CLUSTER></GANGLIA_XML>"
    )
    try:
        parse_document(probe, validate=False)
    except ParseError:
        return False
    return True


def salvage_document(text: str, cluster_hint: str = "") -> SalvageResult:
    """Recover complete ``<HOST>`` subtrees from corrupt/truncated XML.

    The full document failed to parse; rather than discard the whole
    poll, extract every HOST span that is individually well-formed and
    rebuild a minimal cluster document around them.  Cluster attributes
    (NAME, LOCALTIME, OWNER...) are recovered from the damaged text when
    the opening CLUSTER tag survived; ``cluster_hint`` names the cluster
    otherwise.  Damage between hosts costs nothing; damage inside a host
    drops only that host.
    """
    good = [
        span for span in _HOST_SPAN_RE.findall(text) if _probe_host_span(span)
    ]
    total = len(_HOST_OPEN_RE.findall(text))
    dropped = max(0, total - len(good))
    if not good:
        return SalvageResult(None, 0, dropped)

    cluster_pieces: List[str] = []
    has_name = False
    cluster_match = _CLUSTER_OPEN_RE.search(text)
    if cluster_match is not None:
        # attribute values re-embed verbatim: they are still in their
        # escaped on-the-wire form
        for key, value in _ATTR_RE.findall(cluster_match.group(1)):
            if key == "NAME":
                has_name = True
            cluster_pieces.append(f'{key}="{value}"')
    if not has_name:
        cluster_pieces.insert(0, f'NAME="{cluster_hint or "salvaged"}"')

    rebuilt = (
        '<GANGLIA_XML VERSION="2.5.x" SOURCE="salvage"><CLUSTER '
        + " ".join(cluster_pieces)
        + ">"
        + "".join(good)
        + "</CLUSTER></GANGLIA_XML>"
    )
    try:
        document = parse_document(rebuilt, validate=False)
    except ParseError:
        # recovered cluster attributes were themselves poisoned
        return SalvageResult(None, 0, max(dropped, total))
    return SalvageResult(document, len(good), dropped)
