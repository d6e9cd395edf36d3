"""Network addresses for the simulated fabric.

An :class:`Address` is a ``(host, port)`` pair.  Host names are plain
strings (``"meteor-0-0"``, ``"gmeta.sdsc"``); ports are integers.  Ganglia
convention: gmond serves cluster XML on 8649, gmetad serves federation
XML (and queries) on 8651.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import derive_seed

#: Port on which every gmond agent serves its cluster's full XML state.
GMOND_XML_PORT = 8649
#: Port on which gmetad serves federation XML and path queries.
GMETAD_XML_PORT = 8651
#: Port on which a gmetad's pub-sub broker accepts subscriptions.
GMETAD_PUBSUB_PORT = 8652


def stable_octet(name: str, modulus: int) -> int:
    """An address octet in ``[0, modulus)`` derived from ``name``.

    Stable across processes, unlike the built-in ``hash()``, which
    Python salts per process: the same seed must give the same bytes.
    """
    return derive_seed(0, f"ip:{name}") % modulus


@dataclass(frozen=True, order=True)
class Address:
    """Immutable ``(host, port)`` endpoint identifier."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("host must be a non-empty string")
        if not (0 < self.port < 65536):
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def gmond(cls, host: str) -> "Address":
        """The gmond XML server endpoint on ``host``."""
        return cls(host, GMOND_XML_PORT)

    @classmethod
    def gmetad(cls, host: str) -> "Address":
        """The gmetad XML/query endpoint on ``host``."""
        return cls(host, GMETAD_XML_PORT)

    @classmethod
    def pubsub(cls, host: str) -> "Address":
        """The pub-sub broker endpoint on ``host``."""
        return cls(host, GMETAD_PUBSUB_PORT)
