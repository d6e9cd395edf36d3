"""XML replies as chunk lists: text the daemon already holds, unjoined.

A gmetad reply is mostly text the daemon keeps anyway: the envelope
tags, each source's memoized fragment, a fragment arena's CLUSTER open
tag and per-host fragments.  Joining them into one string copies every
byte, and on the wire path nobody may ever read that string -- a
viewer fleet only counts the reply's size.  So a reply is built as the
list of those strings (:class:`XmlReply`) and crosses the TCP model as
a payload with a ``size_bytes`` and a lazily joined ``xml``, the same
face :class:`~repro.wire.conditional.TaggedXml` and
:class:`~repro.wire.binfmt.BinaryFrame` present.  Text is built only
where something reads it: a poller that parses, the gray-fault
mangler, or a direct ``serve_query`` caller.

A held fragment is a :class:`Chunks`: its strings and their total
length, so splicing it into a reply costs one list extend, not a pass
over its parts.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple


class Chunks(NamedTuple):
    """Strings that join to one XML fragment, and their total length."""

    parts: Tuple[str, ...]
    size: int

    @classmethod
    def of(cls, text: str) -> "Chunks":
        """One string as a one-part fragment."""
        return cls((text,), len(text))

    def text(self) -> str:
        """The joined fragment (a one-part fragment is its string)."""
        return "".join(self.parts)


class XmlReply:
    """One XML reply held as the strings that join to its text.

    Built with :meth:`add` and :meth:`splice`; ``size_bytes`` is the
    text's length, kept as parts arrive.  The first read of :attr:`xml`
    joins the parts, keeps the text, drops the parts and calls
    ``on_join`` with the joined length (the serving daemon counts the
    characters its wire replies cost to join).
    """

    __slots__ = ("_parts", "size_bytes", "on_join", "_xml")

    def __init__(self) -> None:
        self._parts: List[str] = []
        self.size_bytes = 0
        self.on_join: Optional[Callable[[int], None]] = None
        self._xml: Optional[str] = None

    def add(self, text: str) -> None:
        """Append one string."""
        self._parts.append(text)
        self.size_bytes += len(text)

    def splice(self, chunks: Chunks) -> None:
        """Append a held fragment's strings."""
        self._parts.extend(chunks.parts)
        self.size_bytes += chunks.size

    @property
    def xml(self) -> str:
        """The reply's text, joined on first read."""
        text = self._xml
        if text is None:
            text = self._xml = "".join(self._parts)
            self._parts = []
            if self.on_join is not None:
                self.on_join(len(text))
        return text

    def __str__(self) -> str:
        return self.xml
