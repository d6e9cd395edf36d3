"""Simulated TCP request/response streams ("XML over TCP", Fig. 1).

Gmetad talks to gmond agents and to child gmetads by opening a TCP
connection and reading an XML stream; viewers do the same against gmetad.
The model here is a single request/response exchange:

1. connect: one round trip ``2 * latency`` (SYN / SYN-ACK),
2. request transfer: usually tiny (a query line),
3. server service time: returned by the handler (CPU time the server
   charged while producing the response),
4. response transfer: ``latency + size / bandwidth``.

Failures surface exactly as they do to the real gmetad: a connection to
an unreachable or dead host produces **no response**, and the client's
timeout fires -- "Remote failures are handled identically to link
failures, and are detected with TCP timeouts" (§2.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.net.address import Address
from repro.net.fabric import Fabric, GrayConditions, LinkSpec
from repro.sim.engine import Engine, Event


class TcpTimeout(Exception):
    """Raised/reported when a request sees no response within the timeout.

    Carries the diagnostic context a caller needs to react without
    keeping its own bookkeeping: the target :class:`Address` that never
    answered, the client host that asked, and the timeout that elapsed.
    The poller's fail-over and the pub-sub reconnect logic both key off
    ``address``.
    """

    def __init__(
        self, address: Address, timeout: float, client: Optional[str] = None
    ) -> None:
        who = f" (from {client})" if client else ""
        super().__init__(
            f"timeout after {timeout}s connecting to {address}{who}"
        )
        self.address = address
        self.timeout = timeout
        self.client = client


@dataclass
class Response:
    """What a server handler returns.

    ``payload`` is the response object (Ganglia XML text in practice:
    a string, or an object with ``size_bytes`` and a lazily built
    ``xml``, such as a gmetad's reply chunk list);
    ``service_seconds`` is how long the server took to produce it, which
    delays the response delivery (the paper's query-latency experiments
    measure exactly this path).
    """

    payload: object
    service_seconds: float = 0.0

    @property
    def size_bytes(self) -> int:
        payload = self.payload
        if isinstance(payload, (str, bytes)):
            return max(1, len(payload))
        declared = getattr(payload, "size_bytes", None)
        if isinstance(declared, int) and declared > 0:
            return declared  # structured payloads model their own wire size
        return 64  # small structured control message


class DeferredResponse:
    """A handler's promise to answer later (proxying servers).

    The TCP model calls handlers synchronously inside the server-side
    event, which is fine for gmetad (service time is *charged*, not
    waited out) but impossible for a proxy that must itself issue a
    simulated request before it can answer.  A handler may return a
    ``DeferredResponse`` instead of a :class:`Response`; the connection
    then stays open until :meth:`resolve` supplies the real response, at
    which point delivery proceeds exactly as if the handler had returned
    it directly -- gray conditions are re-read at resolution time, and a
    client whose timeout already fired sees nothing.
    """

    def __init__(self) -> None:
        self.resolved = False
        self._callback: Optional[Callable[["Response"], None]] = None
        self._pending: Optional["Response"] = None

    def resolve(self, response: object) -> None:
        """Supply the response; exactly once per deferred."""
        if self.resolved:
            raise RuntimeError("deferred response already resolved")
        self.resolved = True
        if not isinstance(response, Response):
            response = Response(response)
        if self._callback is None:
            self._pending = response  # resolved before the network bound us
        else:
            self._callback(response)

    def _bind(self, callback: Callable[["Response"], None]) -> None:
        self._callback = callback
        if self._pending is not None:
            pending, self._pending = self._pending, None
            callback(pending)


#: Server handler: (client_host, request) -> Response
Handler = Callable[[str, object], Response]
#: Client success callback: (payload, rtt_seconds)
OnResponse = Callable[[object, float], None]
#: Client failure callback: (error,)
OnTimeout = Callable[[TcpTimeout], None]


class TcpServer:
    """A listening endpoint bound to an :class:`Address`."""

    def __init__(self, address: Address, handler: Handler) -> None:
        self.address = address
        self.handler = handler
        self.requests_served = 0


#: What corruption looks like on the wire: a close tag nothing opened.
#: The Ganglia parser rejects a mismatched close even with validation
#: off, so a corrupted payload is *detected*, never silently ingested.
_CORRUPTION_JUNK = "</CORRUPTED>"


class TcpNetwork:
    """Connection broker between simulated hosts.

    ``rng`` drives the gray-condition coin flips (corruption,
    truncation, latency spikes).  It is only consulted on links the
    fabric marks gray, so runs without gray conditions draw nothing and
    stay byte-identical to a network built without an rng at all.
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._engine = engine
        self._fabric = fabric
        self._rng = rng if rng is not None else random.Random(0x47524159)
        self._servers: Dict[Address, TcpServer] = {}
        # statistics
        self.requests_sent = 0
        self.responses_delivered = 0
        self.timeouts = 0
        self.corrupted_responses = 0
        self.truncated_responses = 0
        self.spiked_responses = 0

    # -- server side -------------------------------------------------------

    def listen(self, address: Address, handler: Handler) -> TcpServer:
        """Bind a handler to an address; one listener per address."""
        if address in self._servers:
            raise ValueError(f"address {address} already has a listener")
        if not self._fabric.has_host(address.host):
            raise KeyError(f"cannot listen on unknown host {address.host!r}")
        server = TcpServer(address, handler)
        self._servers[address] = server
        return server

    def close(self, address: Address) -> None:
        """Stop listening on an address (idempotent)."""
        self._servers.pop(address, None)

    def is_listening(self, address: Address) -> bool:
        """True if something is bound to the address."""
        return address in self._servers

    # -- client side -------------------------------------------------------

    def request(
        self,
        client: str,
        address: Address,
        payload: object,
        on_response: OnResponse,
        timeout: float = 10.0,
        on_timeout: Optional[OnTimeout] = None,
        request_size: int = 64,
    ) -> None:
        """Open a connection, send ``payload``, await the response.

        Exactly one of ``on_response`` / ``on_timeout`` fires.  The
        reachability check happens twice -- at connect time and when the
        response would be delivered -- so a partition or crash occurring
        *during* the exchange also manifests as a timeout.
        """
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.requests_sent += 1
        start = self._engine.now

        timed_out = {"flag": False}

        def fire_timeout() -> None:
            timed_out["flag"] = True
            self.timeouts += 1
            if on_timeout is not None:
                on_timeout(TcpTimeout(address, timeout, client))

        timeout_event: Event = self._engine.call_later(timeout, fire_timeout)

        server = self._servers.get(address)
        if server is None or not self._fabric.reachable(client, address.host):
            # Nothing will ever answer; the timeout stands.
            return

        link = self._fabric.link(client, address.host)
        gray = self._fabric.gray(client, address.host)
        # connect handshake (1 RTT) + request transfer
        arrive_delay = 2.0 * link.latency + self._transfer(
            link, request_size, gray
        )

        def at_server() -> None:
            if timed_out["flag"]:
                return
            # Server host may have died while the request was in flight.
            if self._servers.get(address) is not server:
                return
            if not self._fabric.reachable(client, address.host):
                return
            server.requests_served += 1
            result = server.handler(client, payload)
            if isinstance(result, DeferredResponse):
                result._bind(finish)  # answer comes later; stream stays open
                return
            finish(result)

        def finish(response: object) -> None:
            if timed_out["flag"]:
                return  # client gave up while the proxy was working
            if self._servers.get(address) is not server:
                return  # server restarted/closed before it could answer
            if not isinstance(response, Response):
                response = Response(response)
            # re-read: conditions may have changed while the request flew
            gray_now = self._fabric.gray(client, address.host)
            spike_extra = 0.0
            if gray_now is not None:
                response, spike_extra = self._degrade_response(
                    gray_now, response
                )
            back_delay = (
                response.service_seconds
                + self._transfer(link, response.size_bytes, gray_now)
                + spike_extra
            )
            self._engine.call_later(back_delay, deliver, response)

        def deliver(response: Response) -> None:
            if timed_out["flag"]:
                return
            if not self._fabric.reachable(address.host, client):
                return
            timeout_event.cancel()
            self.responses_delivered += 1
            on_response(response.payload, self._engine.now - start)

        self._engine.call_later(arrive_delay, at_server)

    # -- gray-condition mechanics ------------------------------------------

    @staticmethod
    def _transfer(
        link: LinkSpec, size_bytes: int, gray: Optional[GrayConditions]
    ) -> float:
        """One-way transfer time, honoring any bandwidth degradation.

        With no gray conditions this is exactly ``link.transfer_time``
        (same floats, same arithmetic), so clean runs are unchanged.
        """
        if gray is None or gray.bandwidth_factor == 1.0:
            return link.transfer_time(size_bytes)
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        return link.latency + size_bytes / (
            link.bandwidth * gray.bandwidth_factor
        )

    def _degrade_response(
        self, gray: GrayConditions, response: Response
    ) -> Tuple[Response, float]:
        """Apply gray conditions to one response.

        Returns the (possibly mangled) response plus any extra latency
        from a spike.  Draw order is fixed -- spike, corrupt, truncate --
        so a seeded rng replays the same damage for the same schedule.
        """
        rng = self._rng
        spike_extra = 0.0
        if gray.spike_probability > 0.0 and gray.spike_seconds > 0.0:
            if rng.random() < gray.spike_probability:
                spike_extra = gray.spike_seconds
                self.spiked_responses += 1
        if gray.corrupt_probability > 0.0 and (
            rng.random() < gray.corrupt_probability
        ):
            self.corrupted_responses += 1
            response = Response(
                self._mangle(response.payload, truncate=False),
                response.service_seconds,
            )
        elif gray.truncate_probability > 0.0 and (
            rng.random() < gray.truncate_probability
        ):
            self.truncated_responses += 1
            response = Response(
                self._mangle(response.payload, truncate=True),
                response.service_seconds,
            )
        return response, spike_extra

    def _mangle(self, payload: object, truncate: bool) -> object:
        """Damage a payload the way a broken stream would.

        Text payloads come back as a plain string: a mangled tagged
        payload loses its generation token (the token was part of the
        bytes), so a client can never present a stale token as if the
        corrupt body were the content it names.  A payload carrying
        its text as ``xml`` -- :class:`~repro.wire.conditional.TaggedXml`,
        or a gmetad's :class:`~repro.wire.reply.XmlReply` chunk list,
        bare or tagged -- is damaged through that text, so a chunk
        reply takes exactly the draws and the damage its joined string
        would.  Binary payloads (raw
        bytes, or frame objects carrying a bytes ``data`` attribute)
        get their bytes flipped or cut, again with any generation token
        stripped -- the frame CRC turns either into a clean decode
        error.  Structured control messages (NOT-MODIFIED and friends)
        arrive as unparseable junk.
        """
        raw = self._binary_of(payload)
        if raw is not None:
            damaged = self._mangle_bytes(raw, truncate)
            if isinstance(payload, (bytes, bytearray)):
                return damaged
            return type(payload)(damaged)  # frame object, token dropped
        text: Optional[str] = None
        if isinstance(payload, str):
            text = payload
        else:
            tagged = getattr(payload, "xml", None)
            if isinstance(tagged, str):
                text = tagged
        if text is None:
            return _CORRUPTION_JUNK
        if truncate:
            keep = max(1, int(len(text) * self._rng.uniform(0.1, 0.9)))
            return text[:keep]
        junk = _CORRUPTION_JUNK
        if len(text) <= len(junk):
            return junk
        pos = self._rng.randrange(0, len(text) - len(junk))
        return text[:pos] + junk + text[pos + len(junk):]

    @staticmethod
    def _binary_of(payload: object) -> Optional[bytes]:
        """The wire bytes of a binary payload, or None for text forms."""
        if isinstance(payload, (bytes, bytearray)):
            return bytes(payload)
        data = getattr(payload, "data", None)
        if isinstance(data, (bytes, bytearray)):
            return bytes(data)
        return None

    def _mangle_bytes(self, raw: bytes, truncate: bool) -> bytes:
        """Bit-flip or truncate a byte string (never empty)."""
        if truncate:
            keep = max(1, int(len(raw) * self._rng.uniform(0.1, 0.9)))
            return raw[:keep]
        damaged = bytearray(raw)
        if not damaged:
            return raw
        pos = self._rng.randrange(0, len(damaged))
        damaged[pos] ^= 1 << self._rng.randrange(0, 8)
        return bytes(damaged)
