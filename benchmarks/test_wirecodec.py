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
  bulk lane, not the DOM tree builder);
- **encode cost**: wall-clock to frame the parsed columns, and to
  re-frame the columns decoded from a frame -- the gmetad arena's case,
  which serves ``bin1`` views of what it ingested.

Each arm is timed per repetition and reported as min / median / max;
ratios use medians.  Acceptance (asserted below): frames are >= 8x
smaller at every size and decode >= 3x faster at 1000 hosts, while
``decode_to_xml`` reproduces the original document byte-for-byte.
The sweep lands in
``BENCH_wirecodec.json`` at the repo root and a table in
``benchmarks/out/wirecodec.txt``.  A CI-sized spot check runs as
``pytest benchmarks/test_wirecodec.py -m smoke``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict

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
#: measured repetitions per size (plus one warmup each arm); five at
#: 10 000 hosts, so the median there is not one noisy pair's mean
REPS = {100: 20, 1000: 5, 10000: 5}

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
class Timing:
    """Per-document seconds over the measured repetitions of one arm."""

    min: float
    median: float
    max: float

    @classmethod
    def of(cls, fn: Callable[[], object], reps: int) -> "Timing":
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return cls(min(samples), statistics.median(samples), max(samples))

    def as_json(self) -> dict:
        return {k: round(v, 5) for k, v in vars(self).items()}


@dataclass
class Run:
    """One cluster-size measurement, both codec arms."""

    xml_bytes: int
    frame_bytes: int
    parse: Timing     # columnar XML parse (bulk lane)
    decode: Timing    # binary frame decode
    encode: Timing    # binary frame encode
    reencode: Timing  # encode of the frame's decoded columns
    roundtrip_identical: bool

    @property
    def compression(self) -> float:
        return self.xml_bytes / self.frame_bytes

    @property
    def decode_speedup(self) -> float:
        return self.parse.median / self.decode.median


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

    return Run(
        xml_bytes=len(xml.encode()),
        frame_bytes=len(frame),
        parse=Timing.of(
            lambda: parse_columnar(xml, pool=parse_pool, validate=False), reps
        ),
        decode=Timing.of(lambda: binfmt.decode_document(frame, decode_pool), reps),
        encode=Timing.of(lambda: binfmt.encode_cluster_document(cdoc), reps),
        reencode=Timing.of(lambda: binfmt.encode_cluster_document(decoded), reps),
        roundtrip_identical=(
            binfmt.decode_to_xml(frame, InternPool()) == xml
        ),
    )


@pytest.fixture(scope="module")
def sweep() -> Dict[int, Run]:
    return {hosts: measure_size(hosts, REPS[hosts]) for hosts in SIZES}


def render(sweep: Dict[int, Run]) -> str:
    lines = [
        "Binary wire codec vs columnar XML parse, one poll document",
        "(per-document median over the reps; [min-max] beside parse and encode)",
        "",
        f"{'hosts':>6} {'reps':>4} {'xml MB':>7} {'frame MB':>9} {'ratio':>6} "
        f"{'parse':>8} {'[min-max]':>13} {'decode':>8} {'speedup':>8} "
        f"{'encode':>8} {'[min-max]':>13} {'re-enc':>8}",
    ]

    def spread(t: Timing) -> str:
        return f"[{t.min * 1e3:.0f}-{t.max * 1e3:.0f}]"

    for hosts in SIZES:
        run = sweep[hosts]
        lines.append(
            f"{hosts:>6} {REPS[hosts]:>4} {run.xml_bytes / 1e6:>6.2f} "
            f"{run.frame_bytes / 1e6:>8.3f} {run.compression:>5.1f}x "
            f"{run.parse.median * 1e3:>6.1f}ms {spread(run.parse):>13} "
            f"{run.decode.median * 1e3:>6.1f}ms "
            f"{run.decode_speedup:>7.1f}x "
            f"{run.encode.median * 1e3:>6.1f}ms {spread(run.encode):>13} "
            f"{run.reencode.median * 1e3:>6.1f}ms"
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
                "xml_parse_seconds": run.parse.as_json(),
                "frame_decode_seconds": run.decode.as_json(),
                "decode_speedup": round(run.decode_speedup, 2),
                "frame_encode_seconds": run.encode.as_json(),
                "frame_reencode_decoded_seconds": run.reencode.as_json(),
                "roundtrip_identical": run.roundtrip_identical,
            }
        )
    return {
        "benchmark": "wirecodec",
        "baseline": "parse_columnar bulk lane (validate=False, warm pool)",
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
    (the bulk lane the columnar ingest already runs), not the
    DOM baseline."""
    run = sweep[1000]
    assert run.decode_speedup >= 3.0, (
        f"only {run.decode_speedup:.1f}x ({run.parse.median * 1e3:.1f}ms "
        f"vs {run.decode.median * 1e3:.1f}ms)"
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
    assert run.decode.median < run.parse.median
    assert run.roundtrip_identical


def render_smoke(run: Run) -> str:
    return (
        "wirecodec smoke @ 100 hosts: "
        f"xml {run.xml_bytes}B -> frame {run.frame_bytes}B "
        f"({run.compression:.1f}x), decode {run.decode_speedup:.1f}x "
        f"faster, roundtrip_identical={run.roundtrip_identical}"
    )
