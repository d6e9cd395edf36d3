"""Binary wire codec vs columnar XML: bytes on the wire and decode cost.

Federation links carry the same cluster state over and over -- §3.1's
monitoring tree moves megabytes of XML per poll interval at the sizes
the paper sweeps.  ``binary_wire`` replaces that XML with
:mod:`repro.wire.binfmt` frames: an interned string table plus typed
column buffers inside a CRC'd envelope, serialized straight from the
columnar ingest representation.  This sweep measures both sides of that
trade at 100/1000/10000 hosts:

- **wire bytes**: one poll document as XML vs as a frame (each arm's
  honest transport size -- the frame is deflated only when that wins);
- **decode cost**: wall-clock to rebuild the columnar document from
  each form, against the *fast* baseline (``parse_columnar`` with the
  regex fast lane, not the DOM tree builder);
- **encode cost**: wall-clock to frame the parsed columns, and to
  re-frame the columns decoded from a frame -- the gmetad arena's case,
  which serves ``bin1`` views of what it ingested.

Acceptance (asserted below): frames are >= 8x smaller at every size and
decode >= 3x faster at 1000 hosts, while ``decode_to_xml`` reproduces
the original document byte-for-byte.  The sweep lands in
``BENCH_wirecodec.json`` at the repo root and a table in
``benchmarks/out/wirecodec.txt``.  A CI-sized spot check runs as
``pytest benchmarks/test_wirecodec.py -m smoke``.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.columnar import InternPool
from repro.gmond.pseudo import PseudoGmond
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire import binfmt
from repro.wire.parser import parse_columnar

SIZES = (100, 1000, 10000)
#: measured repetitions per size (plus one warmup each arm)
REPS = {100: 20, 1000: 5, 10000: 2}

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_wirecodec.json"


def cluster_xml(hosts: int) -> str:
    """One pseudo-gmond poll document at the given cluster size."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(14)
    pseudo = PseudoGmond(
        engine, fabric, tcp, "sweep", num_hosts=hosts, rng=rngs.stream("pg")
    )
    return pseudo.current_xml()


@dataclass
class Run:
    """One cluster-size measurement, both codec arms."""

    xml_bytes: int
    frame_bytes: int
    parse_seconds: float    # columnar XML fast lane, per document
    decode_seconds: float   # binary frame decode, per document
    encode_seconds: float   # binary frame encode, per document
    reencode_seconds: float  # encode of the frame's decoded columns
    roundtrip_identical: bool

    @property
    def compression(self) -> float:
        return self.xml_bytes / self.frame_bytes

    @property
    def decode_speedup(self) -> float:
        return self.parse_seconds / self.decode_seconds


def measure_size(hosts: int, reps: int) -> Run:
    xml = cluster_xml(hosts)
    cdoc = parse_columnar(xml, pool=InternPool(), validate=False)
    frame = binfmt.encode_cluster_document(cdoc)

    # warm pools: the ingest path keeps one intern pool per daemon, so
    # the steady state being measured has the vocabulary already interned
    parse_pool = InternPool()
    parse_columnar(xml, pool=parse_pool, validate=False)
    decode_pool = InternPool()
    _, decoded = binfmt.decode_document(frame, decode_pool)
    binfmt.encode_cluster_document(cdoc)
    binfmt.encode_cluster_document(decoded)

    start = time.perf_counter()
    for _ in range(reps):
        parse_columnar(xml, pool=parse_pool, validate=False)
    parse_seconds = (time.perf_counter() - start) / reps

    start = time.perf_counter()
    for _ in range(reps):
        binfmt.decode_document(frame, decode_pool)
    decode_seconds = (time.perf_counter() - start) / reps

    start = time.perf_counter()
    for _ in range(reps):
        binfmt.encode_cluster_document(cdoc)
    encode_seconds = (time.perf_counter() - start) / reps

    start = time.perf_counter()
    for _ in range(reps):
        binfmt.encode_cluster_document(decoded)
    reencode_seconds = (time.perf_counter() - start) / reps

    return Run(
        xml_bytes=len(xml.encode()),
        frame_bytes=len(frame),
        parse_seconds=parse_seconds,
        decode_seconds=decode_seconds,
        encode_seconds=encode_seconds,
        reencode_seconds=reencode_seconds,
        roundtrip_identical=(
            binfmt.decode_to_xml(frame, InternPool()) == xml
        ),
    )


@pytest.fixture(scope="module")
def sweep() -> Dict[int, Run]:
    return {hosts: measure_size(hosts, REPS[hosts]) for hosts in SIZES}


def render(sweep: Dict[int, Run]) -> str:
    lines = [
        "Binary wire codec vs columnar XML fast lane, one poll document",
        "",
        f"{'hosts':>6} {'xml MB':>7} {'frame MB':>9} {'ratio':>6} "
        f"{'parse':>8} {'decode':>8} {'speedup':>8} {'encode':>8} "
        f"{'re-enc':>8}",
    ]
    for hosts in SIZES:
        run = sweep[hosts]
        lines.append(
            f"{hosts:>6} {run.xml_bytes / 1e6:>6.2f} "
            f"{run.frame_bytes / 1e6:>8.3f} {run.compression:>5.1f}x "
            f"{run.parse_seconds * 1e3:>6.1f}ms "
            f"{run.decode_seconds * 1e3:>6.1f}ms "
            f"{run.decode_speedup:>7.1f}x "
            f"{run.encode_seconds * 1e3:>6.1f}ms "
            f"{run.reencode_seconds * 1e3:>6.1f}ms"
        )
    lines.append("")
    lines.append("encode: frame the parsed columns; re-enc: frame the columns")
    lines.append("decoded from a frame (what a gmetad arena serves as bin1)")
    return "\n".join(lines)


def sweep_json(sweep: Dict[int, Run]) -> dict:
    rows = []
    for hosts in SIZES:
        run = sweep[hosts]
        rows.append(
            {
                "hosts": hosts,
                "xml_bytes": run.xml_bytes,
                "frame_bytes": run.frame_bytes,
                "compression": round(run.compression, 2),
                "xml_parse_seconds": round(run.parse_seconds, 5),
                "frame_decode_seconds": round(run.decode_seconds, 5),
                "decode_speedup": round(run.decode_speedup, 2),
                "frame_encode_seconds": round(run.encode_seconds, 5),
                "frame_reencode_decoded_seconds": round(run.reencode_seconds, 5),
                "roundtrip_identical": run.roundtrip_identical,
            }
        )
    return {
        "benchmark": "wirecodec",
        "baseline": "parse_columnar fast lane (validate=False, warm pool)",
        "reps": dict(REPS),
        "rows": rows,
    }


def test_wirecodec_report(sweep, save_report, bench_env):
    """Regenerates the sweep table and the committed JSON artifact."""
    save_report("wirecodec", render(sweep))
    payload = {**sweep_json(sweep), "environment": bench_env}
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {JSON_PATH}]")


def test_frames_are_8x_smaller_at_every_size(sweep):
    """The acceptance bar on wire bytes, plus exact reproduction."""
    for hosts, run in sweep.items():
        assert run.compression >= 8.0, (
            f"{hosts} hosts: only {run.compression:.1f}x "
            f"({run.xml_bytes} -> {run.frame_bytes} bytes)"
        )
        assert run.roundtrip_identical, hosts


def test_decode_3x_faster_at_1000_hosts(sweep):
    """The acceptance bar on decode cost, against the *fast* XML lane
    (the regex fast path the columnar ingest already runs), not the
    DOM baseline."""
    run = sweep[1000]
    assert run.decode_speedup >= 3.0, (
        f"only {run.decode_speedup:.1f}x ({run.parse_seconds * 1e3:.1f}ms "
        f"vs {run.decode_seconds * 1e3:.1f}ms)"
    )


def test_advantage_holds_at_scale(sweep):
    """Both wins must survive the 10000-host document (no collapse as
    the column buffers dominate the string table)."""
    run = sweep[10000]
    assert run.compression >= 8.0
    assert run.decode_speedup >= 3.0


@pytest.mark.smoke
def test_smoke_small_scale(save_report):
    """CI-sized spot check (<10s): the codec wins and round-trips at
    100 hosts."""
    run = measure_size(100, reps=5)
    save_report("wirecodec_smoke", render_smoke(run))
    assert run.compression >= 8.0
    assert run.decode_seconds < run.parse_seconds
    assert run.roundtrip_identical


def render_smoke(run: Run) -> str:
    return (
        "wirecodec smoke @ 100 hosts: "
        f"xml {run.xml_bytes}B -> frame {run.frame_bytes}B "
        f"({run.compression:.1f}x), decode {run.decode_speedup:.1f}x "
        f"faster, roundtrip_identical={run.roundtrip_identical}"
    )
