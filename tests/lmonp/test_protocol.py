"""Tests for the LMONP wire protocol: header, messages, framing."""

import hashlib

import pytest

from repro.lmonp import (
    FeToBe,
    FeToEngine,
    FeToMw,
    FrameDecoder,
    HEADER_SIZE,
    LmonpMessage,
    MsgClass,
    ProtocolError,
    security_token,
    unpack_header,
)
from repro.lmonp.header import pack_header


class TestHeader:
    def test_header_is_16_bytes(self):
        assert HEADER_SIZE == 16
        data = pack_header(1, 2, 3, 4, 5, 6)
        assert len(data) == 16

    def test_roundtrip(self):
        data = pack_header(3, 4095, 0xBEEF, 1024, 77, 88)
        assert unpack_header(data) == (3, 4095, 0xBEEF, 1024, 77, 88)

    def test_msg_class_is_3_bits(self):
        with pytest.raises(ValueError):
            pack_header(8, 0, 0, 0, 0, 0)
        pack_header(7, 0, 0, 0, 0, 0)  # max ok

    def test_msg_type_is_13_bits(self):
        with pytest.raises(ValueError):
            pack_header(0, 1 << 13, 0, 0, 0, 0)
        pack_header(0, (1 << 13) - 1, 0, 0, 0, 0)

    def test_sec_chk_is_16_bits(self):
        with pytest.raises(ValueError):
            pack_header(0, 0, 1 << 16, 0, 0, 0)

    def test_short_header_rejected(self):
        with pytest.raises(ValueError):
            unpack_header(b"\x00" * 15)

    def test_three_classes_in_use(self):
        assert {MsgClass.FE_ENGINE, MsgClass.FE_BE, MsgClass.FE_MW} <= set(MsgClass)
        assert MsgClass.MW_MW in set(MsgClass)  # reserved pair exists


class TestMessage:
    def test_encode_decode_roundtrip(self):
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.PROCTAB, num_tasks=512,
                           sec_chk=0x1234, lmon_payload=b"table-bytes",
                           usr_payload=b"tool-data")
        decoded = LmonpMessage.decode(msg.encode())
        assert decoded == msg

    def test_large_proctab_message_roundtrip(self):
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.PROCTAB, num_tasks=1024,
                           lmon_payload=b"x" * 4096, usr_payload=b"y" * 512)
        assert LmonpMessage.decode(msg.encode()) == msg

    def test_empty_payloads(self):
        msg = LmonpMessage(MsgClass.FE_MW, FeToMw.READY)
        decoded = LmonpMessage.decode(msg.encode())
        assert decoded.lmon_payload == b""
        assert decoded.usr_payload == b""

    def test_wire_size(self):
        msg = LmonpMessage(MsgClass.FE_ENGINE, FeToEngine.PROCTAB,
                           lmon_payload=b"abc", usr_payload=b"defg")
        assert msg.wire_size() == HEADER_SIZE + 3 + 4
        assert len(msg.encode()) == msg.wire_size()

    def test_payload_sections_independent(self):
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.USRDATA,
                           lmon_payload=b"AAAA", usr_payload=b"BB")
        d = LmonpMessage.decode(msg.encode())
        assert d.lmon_payload == b"AAAA"
        assert d.usr_payload == b"BB"

    def test_truncated_raises(self):
        data = LmonpMessage(MsgClass.FE_BE, FeToBe.PROCTAB,
                            lmon_payload=b"x" * 100).encode()
        with pytest.raises(ProtocolError, match="truncated"):
            LmonpMessage.decode(data[:50])

    def test_unknown_class_raises(self):
        data = pack_header(7, 1, 0, 0, 0, 0)
        with pytest.raises(ProtocolError, match="unknown msg class"):
            LmonpMessage.decode(data)

    def test_type_decoded_as_enum(self):
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.READY)
        decoded = LmonpMessage.decode(msg.encode())
        assert decoded.msg_type is FeToBe.READY

    def test_json_payload_helpers(self):
        payload = LmonpMessage.json_payload({"b": 2, "a": [1, 2]})
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.HANDSHAKE,
                           lmon_payload=payload)
        assert msg.lmon_json() == {"a": [1, 2], "b": 2}

    def test_lmon_json_empty_is_none(self):
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.READY)
        assert msg.lmon_json() is None


class TestSecurity:
    def test_token_is_16_bit(self):
        for key in ("a", "session-1", "x" * 100):
            assert 0 <= security_token(key) <= 0xFFFF

    def test_token_deterministic(self):
        assert security_token("k") == security_token("k")

    @pytest.mark.parametrize("key", ["", "k", "session-1", "x" * 100,
                                     "clé-ü/ß", "\U0001f512"])
    def test_token_is_the_first_two_bytes_of_sha256(self, key):
        digest = hashlib.sha256(key.encode()).digest()
        assert security_token(key) == int.from_bytes(digest[:2], "big")

    def test_verify_mismatch_raises(self):
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.READY, sec_chk=5)
        with pytest.raises(ProtocolError, match="security"):
            msg.verify(6)
        msg.verify(5)  # match passes

    def test_with_sec_stamps(self):
        msg = LmonpMessage(MsgClass.FE_BE, FeToBe.READY)
        stamped = msg.with_sec(0xABCD)
        assert stamped.sec_chk == 0xABCD
        assert stamped.msg_type == msg.msg_type


class TestFrameDecoder:
    def _msgs(self):
        return [
            LmonpMessage(MsgClass.FE_BE, FeToBe.HANDSHAKE,
                         lmon_payload=b"hello"),
            LmonpMessage(MsgClass.FE_ENGINE, FeToEngine.PROCTAB,
                         num_tasks=3, lmon_payload=b"x" * 50,
                         usr_payload=b"y" * 7),
            LmonpMessage(MsgClass.FE_MW, FeToMw.READY),
        ]

    def test_single_feed(self):
        dec = FrameDecoder()
        stream = b"".join(m.encode() for m in self._msgs())
        out = dec.feed(stream)
        assert out == self._msgs()
        assert dec.pending_bytes == 0

    def test_byte_at_a_time(self):
        dec = FrameDecoder()
        stream = b"".join(m.encode() for m in self._msgs())
        out = []
        for i in range(len(stream)):
            out.extend(dec.feed(stream[i:i + 1]))
        assert out == self._msgs()

    def test_64_messages_in_97_byte_chunks(self):
        msgs = [LmonpMessage(MsgClass.FE_BE, FeToBe.USRDATA,
                             usr_payload=bytes([i % 256]) * (i * 7 % 300))
                for i in range(64)]
        stream = b"".join(m.encode() for m in msgs)
        dec = FrameDecoder()
        out = []
        for i in range(0, len(stream), 97):
            out.extend(dec.feed(stream[i:i + 97]))
        assert out == msgs

    def test_split_inside_header(self):
        dec = FrameDecoder()
        data = self._msgs()[1].encode()
        assert dec.feed(data[:7]) == []
        assert dec.feed(data[7:]) == [self._msgs()[1]]

    def test_partial_leaves_pending(self):
        dec = FrameDecoder()
        data = self._msgs()[1].encode()
        dec.feed(data[:-1])
        assert dec.pending_bytes == len(data) - 1
