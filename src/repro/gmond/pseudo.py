"""Pseudo-gmond: the paper's controlled workload emulator.

"All experiments employ gmon emulators called pseudo-gmond to generate
controlled Ganglia XML datasets for the monitoring tree.  These agents
behave identically to a cluster's gmon daemons, except their metric
values are chosen randomly.  Their XML output conforms to the Ganglia
DTD, and therefore requires the same processing effort by the gmeta
system under study." (§3)

The emulator holds its cluster as one :class:`ColumnarCluster` (host
``i`` owns rows ``i*D .. i*D+D-1``, one per metric definition) and
re-randomizes the volatile values in place every ``refresh_interval`` of
simulated time (matching a real cluster's churn between gmetad polls).
A reply is rendered from the columns on request, at most once per
content generation: XML through the gmetad's own row templates, a GBF1
frame by encoding the columns.  Service latency is a small constant
regardless of cluster size -- the paper notes "care was taken to ensure
the gmon cluster simulators had similar query latencies for all sizes"
so that gmond-side effects stay out of the gmetad measurements.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.columnar.layout import (
    ColumnarCluster,
    ColumnarDocument,
    InternPool,
    TextColumn,
)
from repro.metrics.catalog import STRING_DEFAULTS, MetricDef, builtin_catalog
from repro.metrics.types import MetricType, format_value
from repro.net.address import Address, stable_octet
from repro.net.fabric import Fabric
from repro.net.tcp import Response, TcpNetwork
from repro.serve.render import HostRenderer, render_cluster
from repro.sim.engine import Engine
from repro.wire.binfmt import (
    CODEC_BINARY,
    BinaryFrame,
    encode_cluster_document,
    split_accept,
)
from repro.wire.conditional import (
    NotModified,
    TaggedXml,
    next_epoch,
    split_generation,
)


class PseudoGmond:
    """Serves DTD-conformant cluster XML with random values over TCP."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        name: str,
        num_hosts: int,
        rng: random.Random,
        refresh_interval: float = 15.0,
        metric_defs: Optional[Sequence[MetricDef]] = None,
        service_seconds: float = 0.002,
        server_host: Optional[str] = None,
        binary_capable: bool = True,
    ) -> None:
        if num_hosts <= 0:
            raise ValueError("num_hosts must be positive")
        self.engine = engine
        self.name = name
        self.num_hosts = num_hosts
        self.refresh_interval = refresh_interval
        self.service_seconds = service_seconds
        self._rng = rng
        self._defs: List[MetricDef] = (
            list(metric_defs) if metric_defs is not None else builtin_catalog()
        )
        #: volatile metric name -> (row offset within a host, definition)
        self._offsets = {
            d.name: (j, d) for j, d in enumerate(self._defs) if not d.is_constant
        }
        self.server_host = server_host or f"pgmond-{name}"
        if not fabric.has_host(self.server_host):
            fabric.add_host(self.server_host, cluster=name)
        self._down: Set[int] = set()
        self._last_alive: Dict[int, float] = {}
        self._cols = self._build_columns(InternPool())
        self._renderer = HostRenderer(self._cols.pool)
        self._built_at = float("-inf")
        #: a gmond that predates the binary codec: ignores ``accept=``
        #: and always answers XML (the mixed-fleet test lever)
        self.binary_capable = binary_capable
        #: (content generation, reply) per format, rendered on request
        self._xml: tuple = (-1, None)
        self._frame: tuple = (-1, None)
        self.binary_served = 0
        #: content generation: epoch scopes the counter to this emulator
        #: instance so a restarted emulator never falsely matches
        self._epoch = next_epoch(f"pgmond-{name}")
        self._gen = 0
        self.requests = 0
        self.refreshes = 0
        self.mutations = 0
        self.not_modified_served = 0
        tcp.listen(Address.gmond(self.server_host), self._serve)

    # -- construction --------------------------------------------------------

    def _draw(self, mdef: MetricDef) -> str:
        if mdef.mtype is MetricType.STRING:
            return STRING_DEFAULTS.get(mdef.name, f"str{self._rng.randrange(10)}")
        lo, hi = mdef.value_range
        value = self._rng.uniform(lo, hi)
        if mdef.mtype.is_integral:
            return str(int(value))
        return format_value(value, mdef.mtype)

    def _build_columns(self, pool: InternPool) -> ColumnarCluster:
        """Every host with every metric, values drawn host by host.

        The vocabulary is interned in the first host's row order, the
        order a frame's string table lists it in.
        """
        defs, hosts = self._defs, self.num_hosts

        def tile(per_def, dtype):
            return np.tile(np.array(per_def, dtype=dtype), hosts)

        ids = [
            (pool.intern(d.name), pool.id_for_mtype(d.mtype), pool.intern(d.units),
             pool.id_for_slope(d.slope), pool.intern("gmond"))
            for d in defs
        ]
        name_ids, type_ids, units_ids, slope_ids, source_ids = (
            tile([row[k] for row in ids], np.int32) for k in range(5)
        )
        vals = [self._draw(d) for _ in range(hosts) for d in defs]
        numeric = tile([d.mtype.is_numeric for d in defs], bool)
        values = np.full(len(vals), np.nan)
        values[numeric] = [float(t) for t, n in zip(vals, numeric) if n]
        subnet = stable_octet(self.name, 200)
        return ColumnarCluster(
            name=self.name,
            owner="pseudo",
            localtime=0.0,
            url="",
            host_names=[f"{self.name}-0-{i}" for i in range(hosts)],
            host_ip=[f"10.{subnet}.{i // 250}.{i % 250 + 1}" for i in range(hosts)],
            host_location=[""] * hosts,
            host_reported=np.zeros(hosts),
            host_tn=np.zeros(hosts),
            host_tmax=np.full(hosts, 20.0),
            host_dmax=np.zeros(hosts),
            host_row_start=np.arange(hosts + 1, dtype=np.int64) * len(defs),
            row_host=np.repeat(np.arange(hosts, dtype=np.int32), len(defs)),
            name_ids=name_ids,
            type_ids=type_ids,
            units_ids=units_ids,
            slope_ids=slope_ids,
            source_ids=source_ids,
            values=values,
            numeric=numeric,
            valid=numeric.copy(),  # every drawn number parses
            metric_tn=np.zeros(len(vals)),
            metric_tmax=tile([d.tmax for d in defs], np.float64),
            metric_dmax=tile([d.dmax for d in defs], np.float64),
            vals_raw=TextColumn.pack(vals),
            pool=pool,
        )

    # -- host up/down control (used by the fault injector) --------------------

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.num_hosts):
            raise IndexError(f"host index {index} out of range")

    def set_host_down(self, index: int, down: bool = True) -> None:
        """Silence (or revive) the ``index``-th simulated host."""
        self._check_index(index)
        if down:
            self._last_alive.setdefault(index, self.engine.now)
            self._down.add(index)
        else:
            self._down.discard(index)
            self._last_alive.pop(index, None)
        self._built_at = float("-inf")  # re-draw every host on the next request

    @property
    def down_hosts(self) -> Set[int]:
        return set(self._down)

    # -- churn -------------------------------------------------------------

    def _write_rows(self, rows: List[int], texts: List[str], tns: List[float]) -> None:
        """Store new raw VALs (``rows`` ascending) and TNs; numeric values
        are read back from the text, as a parse of the served reply
        would read them."""
        cols = self._cols
        at = np.asarray(rows, dtype=np.int64)
        cols.vals_raw = cols.vals_raw.with_rows(at, texts)
        cols.metric_tn[at] = tns
        numeric = cols.numeric[at]
        cols.values[at[numeric]] = [
            float(t) for t in compress(texts, numeric.tolist())
        ]
        cols._up_cache = None

    def _redraw(self, indices: Iterable[int], now: float) -> None:
        """Re-randomize (or age, if down) the hosts ``indices``, in order."""
        cols, rng, width = self._cols, self._rng, len(self._defs)
        rows: List[int] = []
        texts: List[str] = []
        tns: List[float] = []
        for i in indices:
            if i in self._down:
                # A dead host reports nothing: TN keeps growing.
                silent_since = self._last_alive.get(i, now)
                cols.host_tn[i] = max(0.0, now - silent_since)
                cols.host_reported[i] = silent_since
                continue
            cols.host_tn[i] = tn = rng.uniform(0.0, 10.0)
            cols.host_reported[i] = now - tn
            for j, mdef in self._offsets.values():
                rows.append(i * width + j)
                texts.append(self._draw(mdef))
                tns.append(rng.uniform(0.0, mdef.collect_every))
        self._write_rows(rows, texts, tns)

    def _tick(self, at: float) -> None:
        """Re-draw every host when a refresh is due (or was forced)."""
        if at - self._built_at >= self.refresh_interval:
            self.refreshes += 1
            self._redraw(range(self.num_hosts), at)
            self._cols.localtime = at
            self._built_at = at
            self._gen += 1  # every host re-drew: content changed

    def mutate(
        self,
        fraction: Optional[float] = None,
        hosts: Optional[Sequence[int]] = None,
        now: Optional[float] = None,
    ) -> int:
        """Re-randomize a subset of hosts (the churn driver's knob).

        Pass either ``fraction`` (0..1 of the cluster, sampled with the
        emulator's own RNG) or an explicit list of host indices.  A
        mutation of zero hosts changes nothing -- the cached replies and
        the content generation stay put, so conditional pollers keep
        getting NOT-MODIFIED.  Returns the number of hosts touched.
        """
        at = self.engine.now if now is None else now
        if hosts is None:
            if fraction is None:
                raise ValueError("pass fraction or hosts")
            k = int(round(fraction * self.num_hosts))
            indices = sorted(self._rng.sample(range(self.num_hosts), k)) if k else []
        else:
            indices = sorted(set(hosts))
        if not indices:
            return 0
        self._tick(at)
        for i in indices:
            self._check_index(i)
        self._redraw(indices, at)
        self._cols.localtime = at
        self._gen += 1
        self.mutations += 1
        return len(indices)

    def set_metric_values(
        self,
        updates: Dict[int, Dict[str, float]],
        now: Optional[float] = None,
    ) -> int:
        """Pin named metric values on selected hosts (the scripted driver).

        ``updates`` maps host index -> {metric name: value}.  Unlike
        :meth:`mutate`, touched values are *chosen*, not drawn -- the
        lever fault-replay schedules use to script ramps and step
        changes while everything else about the wire document (format,
        generation tokens) behaves exactly like organic churn.  Touched
        hosts report fresh (``TN=0``).  Returns hosts touched.
        """
        at = self.engine.now if now is None else now
        if not updates:
            return 0
        self._tick(at)
        width = len(self._defs)
        rows: List[int] = []
        texts: List[str] = []
        for index, metrics in sorted(updates.items()):
            self._check_index(index)
            for metric_name, value in metrics.items():
                if metric_name not in self._offsets:
                    raise KeyError(
                        f"{metric_name!r} is not a volatile metric of {self.name}"
                    )
                j, mdef = self._offsets[metric_name]
                rows.append(index * width + j)
                if mdef.mtype.is_integral:
                    texts.append(str(int(value)))
                else:
                    texts.append(format_value(float(value), mdef.mtype))
        # every update checked: write them all, in row order
        cols = self._cols
        order = sorted(range(len(rows)), key=rows.__getitem__)
        self._write_rows(
            [rows[k] for k in order], [texts[k] for k in order], [0.0] * len(rows)
        )
        cols.host_tn[list(updates)] = 0.0
        cols.host_reported[list(updates)] = at
        cols.localtime = at
        self._gen += 1
        self.mutations += 1
        return len(updates)

    # -- serving -----------------------------------------------------------

    @property
    def generation(self) -> str:
        """The opaque content-generation token served right now."""
        return f"{self._epoch}:{self._gen}"

    def current_xml(self, now: Optional[float] = None) -> str:
        """The XML the emulator would serve right now (refreshing if due)."""
        self._tick(self.engine.now if now is None else now)
        if self._xml[0] != self._gen:
            self._xml = (self._gen, (
                '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'
                '<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">\n'
                f"{render_cluster(self._cols, self._renderer)}</GANGLIA_XML>\n"
            ))
        return self._xml[1]

    def current_frame(self, now: Optional[float] = None) -> bytes:
        """The binary frame the emulator would serve right now.

        Encoded once per content generation from the same columns the
        XML is rendered from, so a binary poller and an XML poller
        asking at the same instant install identical state.
        """
        self._tick(self.engine.now if now is None else now)
        if self._frame[0] != self._gen:
            document = ColumnarDocument("2.5.4", "gmond", [self._cols])
            self._frame = (self._gen, encode_cluster_document(document))
        return self._frame[1]

    def _serve(self, client: str, request: object) -> Response:
        self.requests += 1
        base, presented = split_generation(str(request))
        base, accept = split_accept(base)
        self._tick(self.engine.now)  # refresh BEFORE comparing generations
        current = self.generation
        if presented == current:
            self.not_modified_served += 1
            payload = NotModified(generation=current, localtime=self._cols.localtime)
        elif self.binary_capable and accept == CODEC_BINARY:
            self.binary_served += 1
            tag = None if presented is None else current
            payload = BinaryFrame(self.current_frame(), generation=tag)
        elif presented is not None:
            payload = TaggedXml(self.current_xml(), current)
        else:
            payload = self.current_xml()
        return Response(payload, service_seconds=self.service_seconds)

    @property
    def address(self) -> Address:
        return Address.gmond(self.server_host)
