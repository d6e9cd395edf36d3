"""A reply missing a required attribute is a parse error, not a crash.

Without validation the tree builder indexes required attributes
directly.  Its ``KeyError`` (and an ``IndexError`` for a non-root
element at the root) would escape ``GmetadBase._on_data``, which
neither the poller nor the engine catches, so one bad reply would stop
the whole simulation.  Both parsers raise :class:`ParseError` for it
instead, and a gmetad handles it like any other malformed payload: the
source is marked failed, or salvaged around the damaged host with the
resilience layer on.
"""

import re
from types import SimpleNamespace

import pytest

from repro.core.gmetad import Gmetad
from repro.core.resilience import ResilienceConfig
from repro.core.tree import GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.parser import ParseError, parse_columnar, parse_document

#: one of every element whose builder reads a required attribute
EVERY_ELEMENT = (
    '<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">'
    '<GRID NAME="g" AUTHORITY="http://g/">'
    '<HOSTS UP="1" DOWN="0"/>'
    '<METRICS NAME="load_one" SUM="1.5" NUM="1"/>'
    '<CLUSTER NAME="c" LOCALTIME="1">'
    '<HOST NAME="h" REPORTED="1" TN="1">'
    '<METRIC NAME="load_one" VAL="1.5" TYPE="float"/>'
    "</HOST></CLUSTER></GRID></GANGLIA_XML>"
)

REQUIRED = [
    ("GRID", "NAME"),
    ("HOSTS", "UP"),
    ("HOSTS", "DOWN"),
    ("METRICS", "NAME"),
    ("METRICS", "SUM"),
    ("METRICS", "NUM"),
    ("CLUSTER", "NAME"),
    ("HOST", "NAME"),
    ("METRIC", "NAME"),
    ("METRIC", "VAL"),
    ("METRIC", "TYPE"),
]


def without(text, element, attribute):
    """``text`` with ``attribute`` dropped from the first ``element`` tag."""
    tag = re.search(rf"<{element} [^>]*>", text)
    trimmed = re.sub(rf' {attribute}="[^"]*"', "", tag.group(0), count=1)
    assert trimmed != tag.group(0)
    return text[: tag.start()] + trimmed + text[tag.end():]


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("element,attribute", REQUIRED)
def test_missing_attribute_is_a_parse_error(element, attribute, validate):
    text = without(EVERY_ELEMENT, element, attribute)
    with pytest.raises(ParseError) as tree_err:
        parse_document(text, validate)
    if not validate:
        assert f"<{element}> missing attribute '{attribute}'" in str(tree_err.value)
    with pytest.raises(ParseError) as col_err:
        parse_columnar(text, validate=validate)
    assert str(col_err.value) == str(tree_err.value)


@pytest.mark.parametrize("element", ["GRID", "CLUSTER", "HOST", "METRIC", "HOSTS"])
def test_element_at_the_root_is_a_parse_error(element):
    text = re.search(rf"<{element} [^>]*>", EVERY_ELEMENT).group(0)
    if not text.endswith("/>"):
        text += f"</{element}>"
    for validate in (False, True):
        with pytest.raises(ParseError):
            parse_document(text, validate)
        with pytest.raises(ParseError):
            parse_columnar(text, validate=validate)


def build_leaf(columnar, resilience, hosts=6):
    """One gmetad polling one pseudo-gmond whose every reply loses the
    NAME of the first METRIC of host 2."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", hosts, RngRegistry(7).stream("pg"),
        refresh_interval=15.0,
    )
    damaged_host = pseudo.current_xml().split("<HOST ")[3].split('"')[1]
    clean_xml = pseudo.current_xml

    def current_xml(now=None):
        text = clean_xml(now)
        at = text.index(f'<HOST NAME="{damaged_host}"')
        metric = text.index("<METRIC NAME=", at)
        return text[:metric] + "<METRIC " + text[text.index("VAL=", metric):]

    pseudo.current_xml = current_xml
    config = GmetadConfig(
        name="leaf", host="gmeta-leaf", archive_mode="account",
        columnar=columnar, resilience=resilience,
    )
    config.add_source("meteor", [pseudo.address])
    gmetad = Gmetad(engine, fabric, tcp, config)
    gmetad.start()
    return SimpleNamespace(engine=engine, gmetad=gmetad, damaged=damaged_host)


@pytest.mark.parametrize("columnar", [False, True], ids=["tree", "columnar"])
def test_reply_missing_an_attribute_marks_the_source_failed(columnar):
    world = build_leaf(columnar, resilience=None)
    world.engine.run_for(95.0)  # a poll every 15 s; none may stop the engine
    assert world.engine.now == 95.0
    assert world.gmetad.parse_errors >= 5
    assert world.gmetad.polls_ingested == 0
    snapshot = world.gmetad.datastore.source("meteor")
    assert snapshot is None or not snapshot.up


@pytest.mark.parametrize("columnar", [False, True], ids=["tree", "columnar"])
def test_salvage_drops_only_the_host_missing_an_attribute(columnar):
    world = build_leaf(columnar, resilience=ResilienceConfig())
    world.engine.run_for(20.0)  # the first poll, with no last-good state
    assert world.gmetad.polls_salvaged >= 1
    snapshot = world.gmetad.datastore.source("meteor")
    assert snapshot.up and snapshot.quarantined
    assert snapshot.salvaged_hosts == 5
    assert "(1 dropped)" in snapshot.last_error
    assert world.damaged not in snapshot.columns.host_names
    assert len(snapshot.columns.host_names) == 5
    world.engine.run_for(75.0)  # and it keeps running
    assert world.engine.now == 95.0
    assert world.gmetad.polls_salvaged >= 5
