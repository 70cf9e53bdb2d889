"""LMONP framing and transport.

Two layers:

* :class:`FrameDecoder` -- a pure incremental parser turning an arbitrary
  sequence of byte chunks into complete :class:`LmonpMessage` objects. This
  is what would sit on a real TCP socket; property tests feed it adversarial
  chunkings.
* :class:`LmonpStream` -- a session-scoped endpoint over a simulated
  :class:`~repro.cluster.network.PipeEnd`: encodes on send (the pipe's
  latency model sees real byte counts) and verifies the session security
  token on receive.
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, Optional

from repro.lmonp.header import HEADER_SIZE, type_enum_for, unpack_header
from repro.lmonp.messages import LmonpMessage, ProtocolError

__all__ = ["FrameDecoder", "LmonpStream"]


class FrameDecoder:
    """Incremental LMONP frame reassembly from arbitrary byte chunks."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[LmonpMessage]:
        """Add bytes; return all messages completed by this chunk."""
        self._buf += chunk
        out: list[LmonpMessage] = []
        while True:
            msg = self._try_extract()
            if msg is None:
                return out
            out.append(msg)

    def _try_extract(self) -> Optional[LmonpMessage]:
        if len(self._buf) < HEADER_SIZE:
            return None
        _, _, _, _, lmon_len, usr_len = unpack_header(bytes(self._buf[:HEADER_SIZE]))
        total = HEADER_SIZE + lmon_len + usr_len
        if len(self._buf) < total:
            return None
        frame = bytes(self._buf[:total])
        del self._buf[:total]
        return LmonpMessage.decode(frame)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete message."""
        return len(self._buf)


class LmonpStream:
    """A message-granular LMONP endpoint bound to a session security token.

    ``send`` stamps the session's token into the header and ships encoded
    bytes through the pipe (delivery time reflects the real message size);
    ``recv`` decodes and verifies the token, raising
    :class:`~repro.lmonp.messages.ProtocolError` on cross-session traffic.
    """

    def __init__(self, pipe_end, sec_token: int, name: str = ""):
        self._end = pipe_end
        self.sec_token = sec_token
        self.name = name
        self.sent = 0
        self.received = 0
        self.bytes_sent = 0

    def send(self, msg: LmonpMessage):
        """Send one message (returns the pipe's delivery event)."""
        stamped = msg.with_sec(self.sec_token)
        data = stamped.encode()
        self.sent += 1
        self.bytes_sent += len(data)
        return self._end.send(data)

    def recv(self) -> Generator[Any, Any, LmonpMessage]:
        """Receive and verify the next message (generator; yields sim events)."""
        data = yield self._end.recv()
        if not isinstance(data, (bytes, bytearray)):
            raise ProtocolError(f"non-LMONP traffic on {self.name!r}: {data!r}")
        msg = LmonpMessage.decode(bytes(data))
        msg.verify(self.sec_token)
        self.received += 1
        return msg

    def expect(self, msg_type) -> Generator[Any, Any, LmonpMessage]:
        """Receive one message and require the given type, a member of
        one message class's type enum: classes share type codes (FE_BE
        and FE_MW both number USRDATA 4), so the class must match too."""
        msg = yield from self.recv()
        if (type_enum_for(msg.msg_class) is not type(msg_type)
                or msg.msg_type != msg_type):
            raise ProtocolError(
                f"{self.name}: expected {msg_type!r}, got "
                f"{msg.msg_class.name} {msg.msg_type!r}")
        return msg
