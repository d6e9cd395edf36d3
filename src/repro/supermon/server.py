"""The ``supermon`` aggregation server.

"A supermon server collects this data by serially connecting to each
mon server" -- one TCP connection per registered member per sweep, one
at a time.  Members must be registered explicitly (a priori knowledge);
a brand-new node is invisible until someone registers it, in contrast
to gmond's soft-state auto-discovery.

The composed output is itself an S-expression embedding each member's
report verbatim, so supermons stack into trees exactly like gmetads:
a higher supermon registers lower supermons as members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.net.tcp import Response, TcpNetwork, TcpTimeout
from repro.sim.engine import Engine, PeriodicTask
from repro.supermon.sexpr import SList, Symbol, write_sexpr

#: TCP port supermon listens on.
SUPERMON_PORT = 2710


@dataclass
class SweepResult:
    """Statistics for one serial collection pass."""

    started_at: float
    finished_at: float = 0.0
    connections: int = 0
    successes: int = 0
    failures: int = 0
    bytes_received: int = 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class SupermonServer:
    """Serially sweeps registered members; serves the composed report."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        host: str,
        members: Optional[List[Address]] = None,
        interval: float = 15.0,
        timeout: float = 4.0,
        service_seconds: float = 0.001,
    ) -> None:
        self.engine = engine
        self.tcp = tcp
        self.host = host
        self.members: List[Address] = list(members or [])
        self.interval = interval
        self.timeout = timeout
        self.service_seconds = service_seconds
        if not fabric.has_host(host):
            fabric.add_host(host)
        tcp.listen(Address(host, SUPERMON_PORT), self._serve)
        self._task: Optional[PeriodicTask] = None
        self._sweeping = False
        self._latest_report = write_sexpr(
            SList([Symbol("supermon"), SList([Symbol("name"), host])])
        )
        self.sweeps: List[SweepResult] = []
        self.requests_served = 0

    @property
    def address(self) -> Address:
        return Address(self.host, SUPERMON_PORT)

    # -- registration (the a-priori-knowledge requirement) --------------------

    def register(self, address: Address) -> None:
        """Explicitly add a member; there is no auto-discovery."""
        if address in self.members:
            raise ValueError(f"{address} already registered")
        self.members.append(address)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SupermonServer":
        """Arm the periodic sweep task."""
        if self._task is not None:
            raise RuntimeError("supermon already started")
        self._task = self.engine.every(
            self.interval, self.sweep, initial_delay=self.interval
        )
        return self

    def stop(self) -> None:
        """Stop sweeping."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- the serial sweep ----------------------------------------------------

    def sweep(self) -> Optional[SweepResult]:
        """Start one serial collection pass (no-op if one is running)."""
        if self._sweeping:
            return None
        self._sweeping = True
        result = SweepResult(started_at=self.engine.now)
        self.sweeps.append(result)
        payloads: List[str] = []
        self._next_member(0, payloads, result)
        return result

    def _next_member(
        self, index: int, payloads: List[str], result: SweepResult
    ) -> None:
        if index >= len(self.members):
            self._finish_sweep(payloads, result)
            return
        address = self.members[index]
        result.connections += 1

        def on_response(payload: object, rtt: float) -> None:
            text = str(payload)
            result.successes += 1
            result.bytes_received += len(text)
            payloads.append(text)
            self._next_member(index + 1, payloads, result)

        def on_timeout(error: TcpTimeout) -> None:
            result.failures += 1
            self._next_member(index + 1, payloads, result)

        # strictly serial: the next connection opens only after this one
        # completes or times out
        self.tcp.request(
            self.host,
            address,
            "#",  # mon/supermon ignore the request body
            on_response=on_response,
            timeout=self.timeout,
            on_timeout=on_timeout,
        )

    def _finish_sweep(self, payloads: List[str], result: SweepResult) -> None:
        result.finished_at = self.engine.now
        self._sweeping = False
        header = (
            f'(supermon (name "{self.host}") (time {self.engine.now:.3f}) '
        )
        self._latest_report = header + " ".join(payloads) + ")"

    # -- serving -----------------------------------------------------------

    @property
    def latest_report(self) -> str:
        """The composed report from the last completed sweep."""
        return self._latest_report

    def last_sweep(self) -> Optional[SweepResult]:
        """The most recent completed sweep, or None."""
        for sweep in reversed(self.sweeps):
            if sweep.finished_at > 0:
                return sweep
        return None

    def _serve(self, client: str, request: object) -> Response:
        self.requests_served += 1
        return Response(self._latest_report, service_seconds=self.service_seconds)
