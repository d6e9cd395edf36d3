"""Tests for the XDR wire encoding of gmond datagrams."""

import pytest

from repro.gmond import xdr
from repro.gmond.agent import MetricMessage
from repro.metrics.catalog import Slope
from repro.metrics.types import MetricSample, MetricType


def sample(**kwargs):
    defaults = dict(
        name="load_one",
        value=0.89,
        mtype=MetricType.FLOAT,
        units="",
        source="gmond",
        tmax=70.0,
        dmax=0.0,
    )
    defaults.update(kwargs)
    return MetricSample(**defaults)


class TestXdrPrimitives:
    def test_uint_round_trip(self):
        encoder = xdr.XdrEncoder().pack_uint(0).pack_uint(2**32 - 1)
        decoder = xdr.XdrDecoder(encoder.result())
        assert decoder.unpack_uint() == 0
        assert decoder.unpack_uint() == 2**32 - 1

    def test_uint_out_of_range(self):
        with pytest.raises(xdr.XdrError):
            xdr.XdrEncoder().pack_uint(-1)
        with pytest.raises(xdr.XdrError):
            xdr.XdrEncoder().pack_uint(2**32)

    @pytest.mark.parametrize("text", ["", "a", "ab", "abc", "abcd", "héllo"])
    def test_string_round_trip_and_padding(self, text):
        data = xdr.XdrEncoder().pack_string(text).result()
        assert len(data) % 4 == 0  # XDR 4-byte alignment
        assert xdr.XdrDecoder(data).unpack_string() == text

    def test_truncated_data_detected(self):
        data = xdr.XdrEncoder().pack_string("hello").result()
        with pytest.raises(xdr.XdrError):
            xdr.XdrDecoder(data[:-3]).unpack_string()

    def test_implausible_length_detected(self):
        with pytest.raises(xdr.XdrError):
            xdr.XdrDecoder(b"\xff\xff\xff\xff").unpack_string()


class TestMetricEncoding:
    def test_round_trip_float(self):
        original = sample()
        decoded = xdr.decode_metric(xdr.encode_metric(original), received_at=5.0)
        assert decoded.name == "load_one"
        assert decoded.value == pytest.approx(0.89)
        assert decoded.mtype is MetricType.FLOAT
        assert decoded.tmax == 70.0
        assert decoded.reported_at == 5.0

    def test_round_trip_string_metric(self):
        original = sample(name="os_name", value="Linux", mtype=MetricType.STRING)
        decoded = xdr.decode_metric(xdr.encode_metric(original))
        assert decoded.value == "Linux"
        assert decoded.mtype is MetricType.STRING

    def test_round_trip_integral(self):
        original = sample(name="cpu_num", value=2, mtype=MetricType.UINT16,
                          units="CPUs")
        decoded = xdr.decode_metric(xdr.encode_metric(original))
        assert decoded.value == 2
        assert decoded.units == "CPUs"

    def test_slope_carried_long_form(self):
        # a non-builtin name forces the long form, which carries slope
        original = sample(name="custom_metric", source="gmetric")
        original.extra["slope"] = Slope.POSITIVE
        decoded = xdr.decode_metric(xdr.encode_metric(original))
        assert decoded.extra["slope"] is Slope.POSITIVE

    def test_builtin_short_form_restores_catalog_metadata(self):
        from repro.metrics.catalog import metric_def

        original = sample()  # load_one from gmond -> short form
        data = xdr.encode_metric(original)
        assert len(data) == 12  # magic + id + float32
        decoded = xdr.decode_metric(data)
        mdef = metric_def("load_one")
        assert decoded.tmax == mdef.tmax
        assert decoded.extra["slope"] is mdef.slope

    def test_builtin_name_from_gmetric_uses_long_form(self):
        """Republishing a builtin name with custom metadata must carry
        that metadata on the wire, not inherit the catalog's."""
        original = sample(source="gmetric", units="weird", dmax=99.0)
        decoded = xdr.decode_metric(xdr.encode_metric(original))
        assert decoded.units == "weird"
        assert decoded.dmax == 99.0

    def test_source_carried(self):
        decoded = xdr.decode_metric(
            xdr.encode_metric(sample(source="gmetric"))
        )
        assert decoded.source == "gmetric"

    def test_bad_magic_rejected(self):
        data = bytearray(xdr.encode_metric(sample()))
        data[0] ^= 0xFF
        with pytest.raises(xdr.XdrError):
            xdr.decode_metric(bytes(data))

    def test_truncated_message_rejected(self):
        data = xdr.encode_metric(sample())
        with pytest.raises(xdr.XdrError):
            xdr.decode_metric(data[: len(data) // 2])

    def test_bad_type_rejected(self):
        encoder = xdr.XdrEncoder()
        encoder.pack_uint(xdr.MAGIC)
        encoder.pack_string("quaternion")
        encoder.pack_string("m")
        with pytest.raises(xdr.XdrError):
            xdr.decode_metric(encoder.result())

    def test_empty_name_rejected(self):
        original = sample()
        data = xdr.encode_metric(original)
        # rebuild with an empty name
        encoder = xdr.XdrEncoder()
        encoder.pack_uint(xdr.MAGIC)
        encoder.pack_string("float")
        encoder.pack_string("")
        encoder.pack_string("1.0")
        encoder.pack_string("")
        encoder.pack_uint(3).pack_uint(60).pack_uint(0)
        encoder.pack_string("gmond")
        with pytest.raises(xdr.XdrError):
            xdr.decode_metric(encoder.result())

    def test_datagram_sizes_realistic(self):
        """Builtins are ~12-24 bytes (id + binary value); user-defined
        long-form datagrams are ~60-120 bytes."""
        assert 8 < xdr.roundtrip_size(sample()) < 32
        user = sample(name="app_queue", source="gmetric", units="jobs")
        assert 40 < xdr.roundtrip_size(user) < 120


class TestMetricMessage:
    def test_logical_round_trip(self):
        message = MetricMessage("h1", "10.0.0.1", sample())
        decoded = MetricMessage.from_bytes(
            message.to_bytes(), "h1", "10.0.0.1", received_at=9.0
        )
        assert decoded.host == "h1"
        assert decoded.sample.name == "load_one"
        assert decoded.sample.reported_at == 9.0

    def test_size_bytes_is_encoded_length(self):
        message = MetricMessage("h1", "ip", sample())
        assert message.size_bytes == len(message.to_bytes())


class TestJunkResilience:
    def test_agents_ignore_junk_datagrams(self, engine, fabric, tcp, rngs):
        from repro.gmond.cluster import SimulatedCluster

        cluster = SimulatedCluster.build(
            engine, fabric, tcp, rngs, name="m", num_hosts=2
        )
        cluster.start()
        engine.run_for(5.0)
        # inject garbage onto the channel from a member host
        cluster.channel.send("m-0-0", b"\x00\x01garbage", 11)
        cluster.channel.send("m-0-0", 12345, 4)  # not even bytes
        engine.run_for(2.0)
        agent = cluster.agents[1]
        assert agent.decode_errors >= 2
        # and the cluster is still healthy
        assert agent.state.host_count() == 2

    def test_agents_drop_a_string_holding_nul(self, engine, fabric, tcp, rngs):
        """One datagram whose STRING value holds U+0000 would otherwise
        sit in soft state until DMAX, and every reply meanwhile would
        fail to parse (XML 1.0 excludes the character)."""
        from repro.gmond.cluster import SimulatedCluster
        from repro.net.address import Address
        from repro.wire.parser import parse_document

        cluster = SimulatedCluster.build(
            engine, fabric, tcp, rngs, name="m", num_hosts=2
        )
        cluster.start()
        engine.run_for(5.0)
        data = xdr.encode_metric(
            sample(name="kv", value="a\0b", mtype=MetricType.STRING)
        )
        with pytest.raises(xdr.XdrError, match="U\\+0000"):
            xdr.decode_metric(data, received_at=5.0)
        agent = cluster.agents[1]
        errors = agent.decode_errors
        cluster.channel.send("m-0-0", data, len(data))
        engine.run_for(2.0)
        assert agent.decode_errors == errors + 1
        got = {}
        tcp.request(
            "m-0-0", Address.gmond("m-0-1"), "",
            lambda payload, rtt: got.update(xml=payload),
        )
        engine.run_for(1.0)
        host = parse_document(got["xml"]).clusters["m"].hosts["m-0-0"]
        assert "kv" not in host.metrics
