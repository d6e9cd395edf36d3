"""Conditional-poll wire protocol: content generations and NOT-MODIFIED.

The paper's gmetad re-downloads and re-parses every child's full XML
every polling interval even when nothing changed -- the dominant cost of
the §4 throughput limits.  This module adds an HTTP-304-style handshake
on top of the existing "XML over TCP" exchange:

- every server that can answer conditionally owns a **generation
  token**, an opaque string that changes whenever the bytes it would
  serve (for a given request) may have changed;
- a poller appends ``ifgen=<token>`` to its request (``with_generation``);
- an unchanged server answers with a tiny :class:`NotModified` payload
  instead of the XML stream, and the poller skips transfer, parse and
  ingest entirely;
- a changed server answers with a :class:`TaggedXml` payload -- the
  ordinary XML plus the fresh token the poller should present next time.
  A gmetad's XML rides in it as the reply's chunk list
  (:mod:`repro.wire.reply`), joined only when the poller reads it.

Tokens are **opaque and per-server-instance**: each server embeds a
unique epoch (``next_epoch``) so that a poller failing over to a
redundant endpoint, or a restarted daemon, can never produce a false
NOT-MODIFIED match -- a token minted by one server never equals a token
minted by another.

A :class:`NotModified` reply carries the ``localtime`` the server would
have stamped on its report so the poller can keep freshness metadata
current without a transfer (the same touch-up HTTP 304 performs on the
cached response's ``Date`` header).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.wire.reply import XmlReply

#: Query-string parameter carrying the poller's last-seen generation.
GENERATION_PARAM = "ifgen"

#: Sentinel token a poller sends before it has seen any generation.  It
#: never matches a real token, so the first conditional poll always gets
#: a full (tagged) response.
NO_GENERATION = "-"

#: Wire size (bytes) we model for a NOT-MODIFIED response.
NOT_MODIFIED_BYTES = 48

#: Extra bytes a tagged XML response carries over the plain stream (the
#: generation header).
GENERATION_TAG_BYTES = 32

_TOKEN_RE = re.compile(r"^[\w.:/-]+$")

_epoch_counter = itertools.count(1)


def next_epoch(name: str) -> str:
    """A process-unique epoch for one server instance.

    Deterministic for reproducible simulations (a plain counter), unique
    across every conditional server created in the process -- including
    a restarted daemon on the same host, which gets a fresh epoch and
    thereby invalidates all tokens it minted before the restart.
    """
    safe = re.sub(r"[^\w.-]", "_", name) or "srv"
    return f"{safe}.{next(_epoch_counter)}"


def with_generation(request: str, token: str = NO_GENERATION) -> str:
    """Append the ``ifgen`` parameter to a query string."""
    if not _TOKEN_RE.match(token):
        raise ValueError(f"bad generation token {token!r}")
    separator = "&" if "?" in request else "?"
    return f"{request}{separator}{GENERATION_PARAM}={token}"


def split_generation(request: str) -> Tuple[str, Optional[str]]:
    """Strip the ``ifgen`` parameter; returns ``(base_request, token)``.

    ``token`` is None when the request was unconditional (the common
    viewer path); the base request is returned byte-identical to what an
    unconditional poller would have sent, so the query engine never sees
    the protocol extension.
    """
    if "?" not in request:
        return request, None
    path, _, query_string = request.partition("?")
    kept = []
    token: Optional[str] = None
    for param in query_string.split("&"):
        key, _, value = param.partition("=")
        if key == GENERATION_PARAM:
            token = value or NO_GENERATION
        elif param:
            kept.append(param)
    if token is None:
        return request, None
    base = path + ("?" + "&".join(kept) if kept else "")
    return base, token


@dataclass(frozen=True)
class NotModified:
    """Tiny control reply: "your copy is current".

    ``localtime`` is the (already second-rounded) report timestamp the
    server would have emitted, letting the poller patch freshness
    metadata on its cached subtree.
    """

    generation: str
    localtime: float = 0.0
    size_bytes: int = field(default=NOT_MODIFIED_BYTES, compare=False)

    def __str__(self) -> str:
        return (
            f'<NOT_MODIFIED GEN="{self.generation}"'
            f' LOCALTIME="{self.localtime:.0f}"/>'
        )


@dataclass(frozen=True)
class TaggedXml:
    """A full XML response plus the generation token it corresponds to.

    ``body`` is the XML text, or a daemon's
    :class:`~repro.wire.reply.XmlReply` chunk list: its size is known
    without a join, and :attr:`xml` joins it only when read.
    """

    body: Union[str, XmlReply]
    generation: str

    @property
    def xml(self) -> str:
        """The XML text (a chunk-list body joins on first read)."""
        body = self.body
        return body if isinstance(body, str) else body.xml

    def __str__(self) -> str:
        return self.xml

    @property
    def size_bytes(self) -> int:
        body = self.body
        size = len(body) if isinstance(body, str) else body.size_bytes
        return size + GENERATION_TAG_BYTES
