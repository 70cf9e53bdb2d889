"""Tests for LmonpStream over simulated pipes, incl. session security."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.lmonp import (
    FeToBe,
    FeToMw,
    LmonpMessage,
    LmonpStream,
    MsgClass,
    ProtocolError,
    security_token,
)
from tests.conftest import run_gen


@pytest.fixture
def pipe(sim):
    cluster = Cluster(sim, ClusterSpec(n_compute=2, seed=6))
    return cluster.network.pipe("a", "b")


class TestStream:
    def test_send_recv_roundtrip(self, sim, pipe):
        tok = security_token("session-1")
        a = LmonpStream(pipe.a, tok, "a")
        b = LmonpStream(pipe.b, tok, "b")
        got = {}

        def left(sim):
            a.send(LmonpMessage(MsgClass.FE_BE, FeToBe.HANDSHAKE,
                                num_tasks=4, lmon_payload=b"info"))
            yield sim.timeout(0)

        def right(sim):
            msg = yield from b.recv()
            got["msg"] = msg

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()
        assert got["msg"].msg_type is FeToBe.HANDSHAKE
        assert got["msg"].num_tasks == 4
        assert got["msg"].lmon_payload == b"info"
        assert got["msg"].sec_chk == tok

    def test_cross_session_traffic_rejected(self, sim, pipe):
        """The security check: messages from another session are refused."""
        a = LmonpStream(pipe.a, security_token("session-1"), "a")
        b = LmonpStream(pipe.b, security_token("session-2"), "b")

        def left(sim):
            a.send(LmonpMessage(MsgClass.FE_BE, FeToBe.USRDATA))
            yield sim.timeout(0)

        def right(sim):
            with pytest.raises(ProtocolError, match="security"):
                yield from b.recv()

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()

    def test_expect_wrong_type_raises(self, sim, pipe):
        tok = security_token("s")
        a = LmonpStream(pipe.a, tok, "a")
        b = LmonpStream(pipe.b, tok, "b")

        def left(sim):
            a.send(LmonpMessage(MsgClass.FE_BE, FeToBe.USRDATA))
            yield sim.timeout(0)

        def right(sim):
            with pytest.raises(ProtocolError, match="expected"):
                yield from b.expect(FeToBe.READY)

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()

    @pytest.mark.parametrize("sent_class, expected_type", [
        (MsgClass.FE_BE, FeToMw.USRDATA),
        (MsgClass.FE_MW, FeToBe.USRDATA),
    ])
    def test_expect_wrong_class_raises(self, sim, pipe, sent_class,
                                       expected_type):
        """FE_BE and FE_MW share type code 4 (USRDATA): the code alone
        must not let one class's message pass for the other's."""
        tok = security_token("s")
        a = LmonpStream(pipe.a, tok, "a")
        b = LmonpStream(pipe.b, tok, "b")
        outcome = {}

        def left(sim):
            a.send(LmonpMessage(sent_class, int(expected_type)))
            yield sim.timeout(0)

        def right(sim):
            try:
                yield from b.expect(expected_type)
            except ProtocolError as exc:
                outcome["error"] = str(exc)

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()
        assert sent_class.name in outcome.get("error", "")

    def test_non_bytes_traffic_rejected(self, sim, pipe):
        tok = security_token("s")
        b = LmonpStream(pipe.b, tok, "b")

        def left(sim):
            pipe.a.send({"not": "bytes"})
            yield sim.timeout(0)

        def right(sim):
            with pytest.raises(ProtocolError, match="non-LMONP"):
                yield from b.recv()

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()

    def test_counters_and_bytes(self, sim, pipe):
        tok = security_token("s")
        a = LmonpStream(pipe.a, tok, "a")
        b = LmonpStream(pipe.b, tok, "b")

        def left(sim):
            for _ in range(3):
                a.send(LmonpMessage(MsgClass.FE_BE, FeToBe.USRDATA,
                                    usr_payload=b"x" * 100))
            yield sim.timeout(0)

        def right(sim):
            for _ in range(3):
                yield from b.recv()

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()
        assert a.sent == 3
        assert b.received == 3
        assert a.bytes_sent == 3 * (16 + 100)

    def test_transfer_time_scales_with_payload(self, sim, pipe):
        """LMONP message size drives simulated delivery time (Region C)."""
        tok = security_token("s")
        a = LmonpStream(pipe.a, tok, "a")
        b = LmonpStream(pipe.b, tok, "b")
        arrivals = []

        def left(sim):
            a.send(LmonpMessage(MsgClass.FE_BE, FeToBe.PROCTAB,
                                lmon_payload=b"x" * 10_000_000))
            yield sim.timeout(0)

        def right(sim):
            yield from b.recv()
            arrivals.append(sim.now)

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()
        assert arrivals[0] > 0.008  # ~10 MB at ~1 GB/s
