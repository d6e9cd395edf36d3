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

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol

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

#: The exact METRIC shape our writer (and gmond) emits: fixed attribute
#: order, self-closing, no entity escapes in the free-text values (the
#: ``[^"&]`` classes punt escaped text to the generic path, which
#: unescapes).  Handlers exposing ``fast_metric`` get the captured
#: groups directly -- no per-attribute findall, no dict build -- on the
#: >95% of elements this matches; anything else falls through to the
#: ordinary ``start_element`` machinery unchanged.
_METRIC_FAST_RE = re.compile(
    r'METRIC NAME="([^"&]*)" VAL="([^"&]*)" TYPE="([^"&]*)"'
    r'(?: UNITS="([^"&]*)")? TN="([^"&]*)" TMAX="([^"&]*)"'
    r' DMAX="([^"&]*)" SLOPE="([^"&]*)" SOURCE="([^"&]*)"\s*/\Z'
)


class GangliaParser:
    """One-pass event parser.

    ``validate=True`` checks every element against the DTD containment
    and attribute rules; experiments that only care about throughput can
    disable it.
    """

    def __init__(self, validate: bool = True) -> None:
        self.validate = validate
        #: METRIC elements that missed the ``_METRIC_FAST_RE`` lane and
        #: fell through to the generic path.  The fallback is correct
        #: but silent -- a writer attribute-order drift would quietly
        #: turn the whole parse O(slow), and the binary codec shares the
        #: same canonical-order assumption -- so consumers surface this.
        self.fast_lane_misses = 0
        #: METRIC elements the fast lane took.  Zero when the lane is
        #: off outright (``validate=True`` or a handler without
        #: ``fast_metric``), which a miss count alone cannot show.
        self.fast_lane_hits = 0

    def parse(self, text: str, handler: SaxHandler) -> int:
        """Feed ``text`` through ``handler``; returns the event count.

        The loop is the gmetad hot path (megabytes per polling cycle at
        large cluster sizes), so the strict well-formedness checks --
        no text between tags, no junk between attributes, valid element
        names -- only run with ``validate=True``; structural errors
        (mismatched/unclosed tags, missing root) are always caught.
        """
        validate = self.validate
        stack: List[str] = []
        events = 0
        seen_root = False
        pos = 0
        start_element = handler.start_element
        end_element = handler.end_element
        attr_findall = _ATTR_RE.findall
        # the columnar builder's dict-free METRIC lane (never under
        # validation: the DTD/gap checks need the generic path)
        fast_metric = None if validate else getattr(handler, "fast_metric", None)
        metric_fast_match = _METRIC_FAST_RE.match
        hits = 0
        for match in _TAG_RE.finditer(text):
            if fast_metric is not None and stack:
                fm = metric_fast_match(match.group(1))
                if fm is not None:
                    fast_metric(*fm.groups())
                    events += 2  # start + end of a self-closing element
                    hits += 1
                    continue
                if match.group(1).startswith("METRIC "):
                    # a real METRIC the fast lane could not take
                    # ("METRICS " has no trailing space after "METRIC")
                    self.fast_lane_misses += 1
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
                        f"content after document element: <{name}>", match.start()
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
            else:
                stack.append(name)
        self.fast_lane_hits += hits
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
    """Per-cluster append lists, bulk-converted at ``</CLUSTER>``."""

    __slots__ = (
        "name",
        "owner",
        "localtime",
        "url",
        "host_names",
        "host_ip",
        "host_location",
        "host_reported",
        "host_tn",
        "host_tmax",
        "host_dmax",
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
        self.host_names: List[str] = []
        self.host_ip: List[str] = []
        self.host_location: List[str] = []
        self.host_reported: List[float] = []
        self.host_tn: List[float] = []
        self.host_tmax: List[float] = []
        self.host_dmax: List[float] = []
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
    raws: List[Optional[str]], key: str, default: str
) -> "np.ndarray":
    """Convert raw attribute strings; None/"" take the default.

    One vectorized conversion attempt; on failure a scalar sweep finds
    the culprit and raises the same message ``_opt_float`` would have.
    (The sweep also accepts the few spellings Python's ``float`` allows
    but numpy's parser rejects, e.g. digit separators.)
    """
    import numpy as np

    norm = [default if (r is None or r == "") else r for r in raws]
    try:
        return np.asarray(norm, dtype=np.float64)
    except ValueError:
        out = np.empty(len(norm), dtype=np.float64)
        for i, raw in enumerate(norm):
            try:
                out[i] = float(raw)
            except ValueError:
                raise ParseError(
                    f"bad numeric attribute {key}={raw!r}"
                ) from None
        return out


class ColumnarBuilder:
    """Builds a :class:`~repro.columnar.layout.ColumnarDocument`.

    The METRIC hot path appends to plain Python lists and resolves
    strings through the shared :class:`InternPool`; numeric attribute
    conversion is deferred to one vectorized pass per cluster.  Error
    parity with :class:`TreeBuilder` on common malformations (unknown
    element, bad TYPE/SLOPE, METRIC outside HOST, bad numerics) is
    preserved message-for-message; structurally odd documents raise
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

    # -- SaxHandler ---------------------------------------------------------

    def fast_metric(
        self,
        mname: str,
        val: str,
        mtype: str,
        units: Optional[str],
        tn: str,
        tmax: str,
        dmax: str,
        slope: str,
        source: str,
    ) -> None:
        """Dict-free twin of the METRIC branch of :meth:`start_element`.

        Receives the capture groups of ``_METRIC_FAST_RE`` -- the fixed
        writer attribute order, already known self-closing -- so the per
        -element dict build and lookups vanish.  Context checks, intern
        semantics, dedup-in-place and error messages are identical to
        the generic branch (pinned by the parser differential tests).
        """
        ctx = self._ctx
        if ctx[-1] != _CTX_HOST:
            raise ParseError("METRIC outside HOST")
        pool = self.pool
        tid = pool.mtype_id(mtype)
        if tid is None:
            raise ParseError(f"unknown metric TYPE {mtype!r}")
        sid = pool.slope_id(slope)
        if sid is None:
            raise ParseError(f"bad SLOPE {slope!r}")
        cur = self._cur
        row = cur.metric_index.get(mname)
        if row is None:
            cur.metric_index[mname] = len(cur.name_ids)
            cur.row_host.append(cur.host_ordinal)
            cur.name_ids.append(pool.intern(mname))
            cur.type_ids.append(tid)
            cur.units_ids.append(pool.intern(units or ""))
            cur.slope_ids.append(sid)
            cur.source_ids.append(pool.intern(source))
            cur.numeric.append(pool.is_numeric_id(tid))
            cur.vals_raw.append(val)
            cur.tn_raw.append(tn)
            cur.tmax_raw.append(tmax)
            cur.dmax_raw.append(dmax)
        else:
            cur.type_ids[row] = tid
            cur.units_ids[row] = pool.intern(units or "")
            cur.slope_ids[row] = sid
            cur.source_ids[row] = pool.intern(source)
            cur.numeric[row] = pool.is_numeric_id(tid)
            cur.vals_raw[row] = val
            cur.tn_raw[row] = tn
            cur.tmax_raw[row] = tmax
            cur.dmax_raw[row] = dmax

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
            get = attrs.get
            cur.host_names.append(hname)
            cur.host_ip.append(get("IP", ""))
            cur.host_location.append(get("LOCATION", ""))
            cur.host_reported.append(_opt_float(attrs, "REPORTED"))
            cur.host_tn.append(_opt_float(attrs, "TN"))
            cur.host_tmax.append(_opt_float(attrs, "TMAX", 20.0))
            cur.host_dmax.append(_opt_float(attrs, "DMAX"))
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
        numeric = np.asarray(cur.numeric, dtype=bool)
        values = np.full(n, np.nan, dtype=np.float64)
        valid = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(numeric)
        if idx.size:
            sub = [cur.vals_raw[i] for i in idx]
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
            host_names=cur.host_names,
            host_ip=cur.host_ip,
            host_location=cur.host_location,
            host_reported=np.asarray(cur.host_reported, dtype=np.float64),
            host_tn=np.asarray(cur.host_tn, dtype=np.float64),
            host_tmax=np.asarray(cur.host_tmax, dtype=np.float64),
            host_dmax=np.asarray(cur.host_dmax, dtype=np.float64),
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
    builder.document.fast_lane_misses = parser.fast_lane_misses
    builder.document.fast_lane_hits = parser.fast_lane_hits
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
