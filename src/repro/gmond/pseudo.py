"""Pseudo-gmond: the paper's controlled workload emulator.

"All experiments employ gmon emulators called pseudo-gmond to generate
controlled Ganglia XML datasets for the monitoring tree.  These agents
behave identically to a cluster's gmon daemons, except their metric
values are chosen randomly.  Their XML output conforms to the Ganglia
DTD, and therefore requires the same processing effort by the gmeta
system under study." (§3)

The emulator keeps a full cluster element tree and re-randomizes the
volatile metric values every ``refresh_interval`` of simulated time
(matching a real cluster's churn between gmetad polls), re-serializing
lazily on the first request after a refresh boundary.  Service latency
is a small constant regardless of cluster size -- the paper notes "care
was taken to ensure the gmon cluster simulators had similar query
latencies for all sizes" so that gmond-side effects stay out of the
gmetad measurements.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

from repro.metrics.catalog import STRING_DEFAULTS, MetricDef, builtin_catalog
from repro.metrics.types import MetricType, format_value
from repro.net.address import Address, stable_octet
from repro.net.fabric import Fabric
from repro.net.tcp import Response, TcpNetwork
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
from repro.wire.model import ClusterElement, HostElement, MetricElement
from repro.wire.writer import XmlWriter, _fmt_num


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
        self.server_host = server_host or f"pgmond-{name}"
        if not fabric.has_host(self.server_host):
            fabric.add_host(self.server_host, cluster=name)
        self._down: Set[int] = set()
        self._last_alive: Dict[int, float] = {}
        self._cluster = self._build_skeleton()
        self._volatile: List[tuple[HostElement, List[tuple[MetricElement, MetricDef]]]] = [
            (
                host,
                [
                    (host.metrics[d.name], d)
                    for d in self._defs
                    if not d.is_constant
                ],
            )
            for host in self._cluster.hosts.values()
        ]
        self._cached_xml: Optional[str] = None
        self._built_at = float("-inf")
        #: a gmond that predates the binary codec: ignores ``accept=``
        #: and always answers XML (the mixed-fleet test lever)
        self.binary_capable = binary_capable
        #: per-generation encoded binary frame + the instance-local
        #: intern pool feeding it (lazy: XML-only fleets never build one)
        self._pool = None
        self._cached_frame: Optional[bytes] = None
        self._frame_gen = -1
        self.binary_served = 0
        #: per-host serialized fragments; an entry is dropped whenever
        #: its host's values move, so a k-host mutation re-renders k
        #: fragments and memcpys the other H-k
        self._host_frags: Dict[str, str] = {}
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

    def _build_skeleton(self) -> ClusterElement:
        cluster = ClusterElement(name=self.name, owner="pseudo", localtime=0.0)
        subnet = stable_octet(self.name, 200)
        for i in range(self.num_hosts):
            host = HostElement(
                name=f"{self.name}-0-{i}",
                ip=f"10.{subnet}.{i // 250}.{i % 250 + 1}",
                reported=0.0,
                tn=0.0,
                tmax=20.0,
            )
            for mdef in self._defs:
                host.add_metric(
                    MetricElement(
                        name=mdef.name,
                        val=self._draw(mdef),
                        mtype=mdef.mtype,
                        units=mdef.units,
                        tn=0.0,
                        tmax=mdef.tmax,
                        dmax=mdef.dmax,
                        slope=mdef.slope,
                    )
                )
            cluster.add_host(host)
        return cluster

    # -- host up/down control (used by the fault injector) --------------------

    def set_host_down(self, index: int, down: bool = True) -> None:
        """Silence (or revive) the ``index``-th simulated host."""
        if not (0 <= index < self.num_hosts):
            raise IndexError(f"host index {index} out of range")
        if down:
            self._last_alive.setdefault(index, self.engine.now)
            self._down.add(index)
        else:
            self._down.discard(index)
            self._last_alive.pop(index, None)
        self._built_at = float("-inf")  # force re-serialize

    @property
    def down_hosts(self) -> Set[int]:
        return set(self._down)

    # -- serving -----------------------------------------------------------

    def _update_host(self, index: int, now: float) -> None:
        """Re-randomize (or age, if down) one host; drops its fragment."""
        host, volatiles = self._volatile[index]
        if index in self._down:
            # A dead host reports nothing: TN keeps growing.
            silent_since = self._last_alive.get(index, now)
            host.tn = max(0.0, now - silent_since)
            host.reported = silent_since
        else:
            host.tn = self._rng.uniform(0.0, 10.0)
            host.reported = now - host.tn
            for element, mdef in volatiles:
                element.val = self._draw(mdef)
                element.tn = self._rng.uniform(0.0, mdef.collect_every)
        self._host_frags.pop(host.name, None)

    def _assemble(self) -> str:
        """Serialize the cluster document, splicing memoized host fragments.

        Byte-identical to ``write_document`` on an equivalent document
        (the memoization test pins this); only hosts whose fragment was
        invalidated are re-rendered.
        """
        w = XmlWriter()
        w.raw('<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n')
        w.open_tag("GANGLIA_XML", [("VERSION", "2.5.4"), ("SOURCE", "gmond")])
        c = self._cluster
        attrs = [("NAME", c.name)]
        if c.owner:
            attrs.append(("OWNER", c.owner))
        attrs.append(("LOCALTIME", _fmt_num(c.localtime)))
        if c.url:
            attrs.append(("URL", c.url))
        w.open_tag("CLUSTER", attrs)
        for name in sorted(c.hosts):
            frag = self._host_frags.get(name)
            if frag is None:
                sub = XmlWriter()
                sub.host(c.hosts[name])
                frag = sub.result()
                self._host_frags[name] = frag
            w.raw(frag)
        w.close_tag("CLUSTER")
        w.close_tag("GANGLIA_XML")
        return w.result()

    def _refresh(self, now: float) -> None:
        self.refreshes += 1
        self._cluster.localtime = now
        for i in range(self.num_hosts):
            self._update_host(i, now)
        self._cached_xml = self._assemble()
        self._built_at = now
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
        mutation of zero hosts changes nothing -- the cached XML and the
        content generation stay put, so conditional pollers keep getting
        NOT-MODIFIED.  Returns the number of hosts touched.
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
        # make sure the skeleton is built before partial invalidation
        self.current_xml(at)
        for i in indices:
            if not (0 <= i < self.num_hosts):
                raise IndexError(f"host index {i} out of range")
            self._update_host(i, at)
        self._cluster.localtime = at
        self._cached_xml = self._assemble()
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
        generation tokens, fragment memoization) behaves exactly like
        organic churn.  Touched hosts report fresh (``TN=0``); untouched
        hosts keep their memoized fragments.  Returns hosts touched.
        """
        at = self.engine.now if now is None else now
        if not updates:
            return 0
        # make sure the skeleton is built before partial invalidation
        self.current_xml(at)
        for index, metrics in sorted(updates.items()):
            if not (0 <= index < self.num_hosts):
                raise IndexError(f"host index {index} out of range")
            host, volatiles = self._volatile[index]
            named = {element.name: (element, mdef) for element, mdef in volatiles}
            host.tn = 0.0
            host.reported = at
            for metric_name, value in metrics.items():
                if metric_name not in named:
                    raise KeyError(
                        f"{metric_name!r} is not a volatile metric of {self.name}"
                    )
                element, mdef = named[metric_name]
                if mdef.mtype.is_integral:
                    element.val = str(int(value))
                else:
                    element.val = format_value(float(value), mdef.mtype)
                element.tn = 0.0
            self._host_frags.pop(host.name, None)
        self._cluster.localtime = at
        self._cached_xml = self._assemble()
        self._gen += 1
        self.mutations += 1
        return len(updates)

    @property
    def generation(self) -> str:
        """The opaque content-generation token served right now."""
        return f"{self._epoch}:{self._gen}"

    def current_xml(self, now: Optional[float] = None) -> str:
        """The XML the emulator would serve right now (refreshing if due)."""
        at = self.engine.now if now is None else now
        if at - self._built_at >= self.refresh_interval or self._cached_xml is None:
            self._refresh(at)
        return self._cached_xml

    def current_frame(self, now: Optional[float] = None) -> bytes:
        """The binary frame the emulator would serve right now.

        Encoded once per content generation from the same cluster tree
        the XML serializer reads, so a binary poller and an XML poller
        asking at the same instant install identical state.
        """
        self.current_xml(now)  # refresh on the same schedule as XML
        if self._cached_frame is None or self._frame_gen != self._gen:
            from repro.columnar.layout import (
                ColumnarDocument,
                InternPool,
                columns_from_cluster,
            )

            if self._pool is None:
                self._pool = InternPool()
            doc = ColumnarDocument(
                version="2.5.4",
                source="gmond",
                clusters=[columns_from_cluster(self._cluster, self._pool)],
            )
            self._cached_frame = encode_cluster_document(doc)
            self._frame_gen = self._gen
        return self._cached_frame

    def _serve(self, client: str, request: object) -> Response:
        self.requests += 1
        base, presented = split_generation(str(request))
        base, accept = split_accept(base)
        xml = self.current_xml()  # refresh BEFORE comparing generations
        wants_binary = self.binary_capable and accept == CODEC_BINARY
        if presented is not None:
            current = self.generation
            if presented == current:
                self.not_modified_served += 1
                return Response(
                    NotModified(
                        generation=current,
                        localtime=self._cluster.localtime,
                    ),
                    service_seconds=self.service_seconds,
                )
            if wants_binary:
                self.binary_served += 1
                return Response(
                    BinaryFrame(self.current_frame(), generation=current),
                    service_seconds=self.service_seconds,
                )
            return Response(
                TaggedXml(xml, current), service_seconds=self.service_seconds
            )
        if wants_binary:
            self.binary_served += 1
            return Response(
                BinaryFrame(self.current_frame()),
                service_seconds=self.service_seconds,
            )
        return Response(xml, service_seconds=self.service_seconds)

    @property
    def address(self) -> Address:
        return Address.gmond(self.server_host)
