"""Streaming SAX-style parser specialized to the Ganglia DTD.

The paper's web frontend uses PHP's SAX parser and its cost is
proportional to the XML size; gmetad likewise re-parses each source every
polling interval ("incoming XML must be parsed", §2.3.1).  This parser
is the reproduction of that component: a single forward scan that emits
``start_element``/``end_element`` events.  Ganglia XML has no text nodes,
namespaces or CDATA, so the scan is a tight loop over tags only.

Three consumers exist:

- :class:`TreeBuilder` -- builds the :mod:`repro.wire.model` element tree
  (what gmetad's background parser does);
- :class:`ColumnarBuilder` -- fills the structure-of-arrays layout of
  :mod:`repro.columnar` directly, skipping the DOM (the ingest fast
  path; full-form cluster documents only, anything else raises
  :class:`ColumnarFallback` and the caller re-parses with the tree);
- :class:`CountingHandler` -- counts events without building anything
  (what the frontend cost model uses to weigh parse effort).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence

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

        Without validation, a handler's ``bulk_cluster(text, start,
        end)`` is offered each CLUSTER's span up to its first
        ``</CLUSTER>``: an event count means it took the span, and the
        scan resumes after the close tag; ``None`` leaves it to the loop.
        """
        validate = self.validate
        stack: List[str] = []
        events = 0
        seen_root = False
        pos = 0
        start_element = handler.start_element
        end_element = handler.end_element
        attr_findall = _ATTR_RE.findall
        # the columnar builder's per-cluster lane (never under validation:
        # the DTD/gap checks need this loop)
        bulk_cluster = None if validate else getattr(handler, "bulk_cluster", None)
        resume = 0
        while True:
            for match in _TAG_RE.finditer(text, resume):
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
                start_element(name, attrs)
                events += 1
                if self_closing:
                    end_element(name)
                    events += 1
                    continue
                stack.append(name)
                if bulk_cluster is not None and name == "CLUSTER":
                    close = text.find("</CLUSTER>", match.end())
                    taken = (
                        bulk_cluster(text, match.end(), close) if close >= 0 else None
                    )
                    if taken is not None:
                        end_element(stack.pop())
                        events += taken + 1
                        resume = close + len("</CLUSTER>")
                        break
            else:
                break
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
        self._stack: List[object] = []

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
    """Document shape the columnar builder doesn't handle.

    Raised for grids, summary elements, duplicate host/cluster names and
    other rarities; the caller re-parses with :class:`TreeBuilder`,
    whose behavior on these inputs is the contract.  Costs one wasted
    partial scan, changes nothing observable.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# context markers for ColumnarBuilder's element stack
_CTX_DOC = 0
_CTX_CLUSTER = 1
_CTX_HOST = 2
_CTX_METRIC = 3


class _ClusterAccumulator:
    """Per-cluster append lists (or the bulk lane's finished arrays),
    bulk-converted at ``</CLUSTER>``."""

    __slots__ = (
        "name",
        "owner",
        "localtime",
        "url",
        "hosts",
        "starts",
        "row_host",
        "name_ids",
        "type_ids",
        "units_ids",
        "slope_ids",
        "source_ids",
        "numeric",
        "vals_raw",
        "tn_raw",
        "tmax_raw",
        "dmax_raw",
        "metric_index",
        "host_ordinal",
    )

    def __init__(self, name: str, owner: str, localtime: float, url: str):
        self.name = name
        self.owner = owner
        self.localtime = localtime
        self.url = url
        #: one :func:`_host_fields` tuple per HOST
        self.hosts: List[tuple] = []
        self.starts: List[int] = [0]
        self.row_host: List[int] = []
        self.name_ids: List[int] = []
        self.type_ids: List[int] = []
        self.units_ids: List[int] = []
        self.slope_ids: List[int] = []
        self.source_ids: List[int] = []
        self.numeric: List[bool] = []
        self.vals_raw: List[str] = []
        self.tn_raw: List[Optional[str]] = []
        self.tmax_raw: List[Optional[str]] = []
        self.dmax_raw: List[Optional[str]] = []
        #: metric name -> row, for the current host (dict-assignment dedup)
        self.metric_index: Dict[str, int] = {}
        self.host_ordinal = -1


def _bulk_float(
    raws: Sequence[Optional[str]], key: str, default: str
) -> "np.ndarray":
    """Convert raw attribute strings; None/"" take the default.

    One vectorized conversion attempt; on failure a scalar sweep finds
    the culprit and raises the same message ``_opt_float`` would have.
    (The sweep also accepts the few spellings Python's ``float`` allows
    but numpy's parser rejects, e.g. digit separators.)  An array -- the
    bulk lane converts before the accumulator sees it -- passes through.
    """
    import numpy as np

    if isinstance(raws, np.ndarray):
        return raws
    if None in raws or "" in raws:
        raws = [default if (r is None or r == "") else r for r in raws]
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


class ColumnarBuilder:
    """Builds a :class:`~repro.columnar.layout.ColumnarDocument`.

    Two lanes fill the same per-cluster accumulator.  The bulk lane
    (:meth:`bulk_cluster`) cuts a whole CLUSTER span with C-level scans
    and decodes each distinct static text once; whatever it declines
    goes through the generic per-tag loop (:meth:`start_element`), which
    appends to plain Python lists and resolves strings through the
    shared :class:`InternPool`.  Numeric attribute conversion is one
    vectorized pass per cluster either way.  Error parity with
    :class:`TreeBuilder` on common malformations (unknown element, bad
    TYPE/SLOPE, METRIC outside HOST, bad numerics) is preserved
    message-for-message; structurally odd documents raise
    :class:`ColumnarFallback` instead so the tree path's behavior --
    whatever it is -- remains the single source of truth.
    """

    def __init__(self, pool: Optional["InternPool"] = None) -> None:
        from repro.columnar.layout import InternPool

        self.pool = pool if pool is not None else InternPool()
        self.document: Optional["ColumnarDocument"] = None
        self._version = ""
        self._source = ""
        self._clusters: List["ColumnarCluster"] = []
        self._cluster_names: set = set()
        self._host_names: set = set()
        self._ctx: List[int] = []
        self._cur: Optional[_ClusterAccumulator] = None
        #: ``<METRIC `` tags in declined spans the row pattern missed: a
        #: drift from the writer's (and binary codec's) attribute order
        self.fast_lane_misses = 0
        #: METRIC rows installed by the bulk lane; zero under validation
        self.fast_lane_hits = 0

    # -- bulk lane -----------------------------------------------------------

    def bulk_cluster(self, text: str, start: int, end: int) -> Optional[int]:
        """Fill the open cluster from ``text[start:end]``: the span's event
        count, or ``None`` (nothing touched) to leave it to the generic
        loop, which then owns every error message."""
        taken = self._cut(text, start, end)
        if taken is None:
            self.fast_lane_misses += text.count("<METRIC ", start, end) - sum(
                1 for _ in _ROW_RE.finditer(text, start, end)
            )
        return taken

    def _cut(self, text: str, start: int, end: int) -> Optional[int]:
        """The bulk lane proper: ``None`` unless the whole span is taken.

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
        rows = names, vals, heads, tns, tails = [], [], [], [], []
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
                host_columns = list(zip(*host_rows))
                if len(set(host_columns[0])) != len(host_rows):
                    return None  # a duplicate NAME overwrites in place
                for column, values in zip(rows, host_columns):
                    column.extend(values)
            counts.append(len(host_rows))
            closes += 1
            after = close + len("</HOST>")
        n = len(names)
        tags = n + len(hosts) + closes
        host_names = {h[0] for h in hosts}
        if (
            text.count("<", start, end) != tags
            or text.count(">", start, end) != tags
            or text.find("&", start, end) >= 0
            or text.find("'", start, end) >= 0
            or len(host_names) != len(hosts)
        ):
            return None
        # distinct (NAME, TYPE.., TMAX..) texts in first-sight order:
        # interning along them allocates ids as the generic loop would
        distinct = {t: i for i, t in enumerate(dict.fromkeys(zip(names, heads, tails)))}
        decoded = []
        for name, head, tail in distinct:
            attrs = dict(_ATTR_RE.findall(f"{head} {tail}"))
            if attrs["TYPE"] not in _MTYPE_BY_VALUE:
                return None
            if attrs["SLOPE"] not in _SLOPE_BY_VALUE:
                return None
            decoded.append((name, attrs))
        try:
            tn = _bulk_float(tns, "TN", "0")
            tmax = _bulk_float([a["TMAX"] for _, a in decoded], "TMAX", "60")
            dmax = _bulk_float([a["DMAX"] for _, a in decoded], "DMAX", "0")
        except ParseError:
            return None
        # every check passed: only now may the pool grow
        pool = self.pool
        ids = []
        for name, attrs in decoded:
            # the generic loop's order: TYPE, SLOPE, NAME, UNITS, SOURCE
            tid, sid = pool.mtype_id(attrs["TYPE"]), pool.slope_id(attrs["SLOPE"])
            ids.append((pool.intern(name), tid, pool.intern(attrs.get("UNITS", "")),
                        sid, pool.intern(attrs["SOURCE"]), pool.is_numeric_id(tid)))
        code = np.fromiter(
            map(distinct.__getitem__, zip(names, heads, tails)), np.intp, n
        )
        cur = self._cur
        cur.hosts = hosts
        cur.starts = list(itertools.accumulate(counts, initial=0))
        cur.row_host = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        table = np.array(ids, dtype=np.int32).reshape(-1, 6).T
        cur.name_ids, cur.type_ids, cur.units_ids, cur.slope_ids, cur.source_ids = (
            column[code] for column in table[:5]
        )
        cur.numeric = table[5][code].astype(bool)
        cur.vals_raw = vals
        cur.tn_raw = tn
        cur.tmax_raw = tmax[code]
        cur.dmax_raw = dmax[code]
        self._host_names = host_names
        self.fast_lane_hits += n
        return 2 * (n + len(hosts))

    # -- SaxHandler ---------------------------------------------------------

    def start_element(self, name: str, attrs: Dict[str, str]) -> None:
        ctx = self._ctx
        if name == "METRIC":
            # the fast path: >95% of elements in a full-form document
            if not ctx:
                raise ColumnarFallback("METRIC at document root")
            if ctx[-1] != _CTX_HOST:
                raise ParseError("METRIC outside HOST")
            cur = self._cur
            pool = self.pool
            tid = pool.mtype_id(attrs["TYPE"])
            if tid is None:
                raise ParseError(f"unknown metric TYPE {attrs['TYPE']!r}")
            get = attrs.get
            raw_slope = get("SLOPE")
            if raw_slope is None:
                sid = pool.both_slope_id
            else:
                sid = pool.slope_id(raw_slope)
                if sid is None:
                    raise ParseError(f"bad SLOPE {raw_slope!r}")
            mname = attrs["NAME"]
            val = attrs["VAL"]
            row = cur.metric_index.get(mname)
            if row is None:
                # first sighting on this host: append a fresh row
                cur.metric_index[mname] = len(cur.name_ids)
                cur.row_host.append(cur.host_ordinal)
                cur.name_ids.append(pool.intern(mname))
                cur.type_ids.append(tid)
                cur.units_ids.append(pool.intern(get("UNITS", "")))
                cur.slope_ids.append(sid)
                cur.source_ids.append(pool.intern(get("SOURCE", "gmond")))
                cur.numeric.append(pool.is_numeric_id(tid))
                cur.vals_raw.append(val)
                cur.tn_raw.append(get("TN"))
                cur.tmax_raw.append(get("TMAX"))
                cur.dmax_raw.append(get("DMAX"))
            else:
                # duplicate NAME: dict assignment replaces the element at
                # its first position -- overwrite the row in place
                cur.type_ids[row] = tid
                cur.units_ids[row] = pool.intern(get("UNITS", ""))
                cur.slope_ids[row] = sid
                cur.source_ids[row] = pool.intern(get("SOURCE", "gmond"))
                cur.numeric[row] = pool.is_numeric_id(tid)
                cur.vals_raw[row] = val
                cur.tn_raw[row] = get("TN")
                cur.tmax_raw[row] = get("TMAX")
                cur.dmax_raw[row] = get("DMAX")
            ctx.append(_CTX_METRIC)
            return
        if name == "HOST":
            if not ctx:
                raise ColumnarFallback("HOST at document root")
            if ctx[-1] != _CTX_CLUSTER:
                raise ParseError("HOST outside CLUSTER")
            hname = attrs["NAME"]
            if hname in self._host_names:
                # add_host would *replace* the earlier subtree; rare
                # enough to punt to the tree's exact merge semantics
                raise ColumnarFallback(f"duplicate HOST {hname!r}")
            self._host_names.add(hname)
            cur = self._cur
            cur.hosts.append(_host_fields(attrs))
            cur.host_ordinal += 1
            cur.metric_index = {}
            ctx.append(_CTX_HOST)
            return
        if name == "CLUSTER":
            if not ctx:
                raise ColumnarFallback("CLUSTER at document root")
            if ctx[-1] != _CTX_DOC:
                raise ParseError("CLUSTER in illegal context")
            cname = attrs["NAME"]
            if cname in self._cluster_names:
                raise ColumnarFallback(f"duplicate CLUSTER {cname!r}")
            self._cluster_names.add(cname)
            self._host_names = set()
            get = attrs.get
            self._cur = _ClusterAccumulator(
                name=cname,
                owner=get("OWNER", ""),
                localtime=_opt_float(attrs, "LOCALTIME"),
                url=get("URL", ""),
            )
            ctx.append(_CTX_CLUSTER)
            return
        if name == "GANGLIA_XML":
            if ctx:
                raise ColumnarFallback("nested GANGLIA_XML")
            self._version = attrs.get("VERSION", "")
            self._source = attrs.get("SOURCE", "")
            ctx.append(_CTX_DOC)
            return
        if name in ("GRID", "HOSTS", "METRICS"):
            # summary/grid shapes stay on the DOM path
            raise ColumnarFallback(f"<{name}> element")
        raise ParseError(f"unknown element <{name}>")

    def end_element(self, name: str) -> None:
        self._ctx.pop()
        if name == "HOST":
            cur = self._cur
            cur.starts.append(len(cur.name_ids))
        elif name == "CLUSTER":
            self._clusters.append(self._finalize_cluster())
            self._cur = None
        elif name == "GANGLIA_XML":
            from repro.columnar.layout import ColumnarDocument

            self.document = ColumnarDocument(
                version=self._version,
                source=self._source,
                clusters=self._clusters,
            )

    # -- bulk conversion -----------------------------------------------------

    def _finalize_cluster(self) -> "ColumnarCluster":
        import numpy as np

        from repro.columnar.layout import ColumnarCluster

        cur = self._cur
        n = len(cur.name_ids)
        host_columns = list(zip(*cur.hosts)) or [()] * 7
        host_floats = [np.asarray(c, dtype=np.float64) for c in host_columns[3:]]
        numeric = np.asarray(cur.numeric, dtype=bool)
        values = np.full(n, np.nan, dtype=np.float64)
        valid = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(numeric)
        if idx.size:
            vals_raw = cur.vals_raw
            sub = vals_raw if idx.size == n else [vals_raw[i] for i in idx.tolist()]
            try:
                values[idx] = np.asarray(sub, dtype=np.float64)
                valid[idx] = True
            except ValueError:
                # a malformed VAL from a broken reporter: locate it the
                # scalar way -- the row stays, excluded from summaries
                for i in idx:
                    try:
                        values[i] = float(cur.vals_raw[i])
                    except ValueError:
                        continue
                    valid[i] = True
        return ColumnarCluster(
            name=cur.name,
            owner=cur.owner,
            localtime=cur.localtime,
            url=cur.url,
            host_names=list(host_columns[0]),
            host_ip=list(host_columns[1]),
            host_location=list(host_columns[2]),
            host_reported=host_floats[0],
            host_tn=host_floats[1],
            host_tmax=host_floats[2],
            host_dmax=host_floats[3],
            host_row_start=np.asarray(cur.starts, dtype=np.int64),
            row_host=np.asarray(cur.row_host, dtype=np.int32),
            name_ids=np.asarray(cur.name_ids, dtype=np.int32),
            type_ids=np.asarray(cur.type_ids, dtype=np.int32),
            units_ids=np.asarray(cur.units_ids, dtype=np.int32),
            slope_ids=np.asarray(cur.slope_ids, dtype=np.int32),
            source_ids=np.asarray(cur.source_ids, dtype=np.int32),
            values=values,
            numeric=numeric,
            valid=valid,
            metric_tn=_bulk_float(cur.tn_raw, "TN", "0"),
            metric_tmax=_bulk_float(cur.tmax_raw, "TMAX", "60"),
            metric_dmax=_bulk_float(cur.dmax_raw, "DMAX", "0"),
            vals_raw=cur.vals_raw,
            pool=self.pool,
        )


def parse_columnar(
    text: str,
    pool: Optional["InternPool"] = None,
    validate: bool = True,
) -> "ColumnarDocument":
    """Parse full-form cluster XML straight into columnar layout.

    Raises :class:`ColumnarFallback` for shapes the columnar builder
    does not model (grids, summaries, duplicates, missing required
    attributes); the caller re-parses with :func:`parse_document`.
    """
    builder = ColumnarBuilder(pool)
    parser = GangliaParser(validate=validate)
    try:
        parser.parse(text, builder)
    except KeyError as exc:
        # a required attribute is missing; the tree path's KeyError (or
        # the DTD's ParseError) is the behavior contract -- defer to it
        raise ColumnarFallback(f"missing attribute {exc}") from None
    if builder.document is None:
        raise ParseError("document produced no GANGLIA_XML root")
    builder.document.fast_lane_misses = builder.fast_lane_misses
    builder.document.fast_lane_hits = builder.fast_lane_hits
    return builder.document


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
