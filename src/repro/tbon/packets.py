"""TBON packets and streams."""

from __future__ import annotations

from typing import Any

from repro.cluster.network import message_size

__all__ = ["Packet"]


class Packet:
    """One TBON protocol unit.

    ``stream_id`` selects the stream (and thus the filter applied at
    internal positions); ``wave`` sequences upstream reductions so that an
    internal node knows which child contributions belong together;
    ``payload`` must be JSON-able (prefix trees ship as dicts) and is not
    mutated once packed: the wire size is computed once, at construction.

    A packet is an immutable value: it compares, hashes and prints by its
    four fields (the cached size is not part of its value), and assigning
    or deleting a field raises ``AttributeError``. It is slotted, and
    deliberately not a ``tuple``: :func:`message_size` sizes a tuple as a
    sequence of elements, while a packet is one unit of
    :meth:`wire_size` bytes wherever it travels.
    """

    __slots__ = ("stream_id", "wave", "payload", "direction", "_size")

    #: the only legal routing directions: reductions flow up, broadcasts down
    DIRECTIONS = ("up", "down")

    #: framing bytes per packet (stream id + wave + direction + length);
    #: shared with the analytic model's hop-time term
    HEADER_BYTES = 24

    def __init__(self, stream_id: int, wave: int, payload: Any,
                 direction: str = "up"):
        if direction not in Packet.DIRECTIONS:
            raise ValueError(
                f"packet direction must be one of {Packet.DIRECTIONS}, "
                f"got {direction!r}")
        _set_stream_id(self, stream_id)
        _set_wave(self, wave)
        _set_payload(self, payload)
        _set_direction(self, direction)
        _set_size(self, Packet.HEADER_BYTES + message_size(payload))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign {name!r}: packets are "
                             f"immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: packets are "
                             f"immutable")

    def _value(self) -> tuple:
        return (self.stream_id, self.wave, self.payload, self.direction)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        return (f"Packet(stream_id={self.stream_id!r}, wave={self.wave!r}, "
                f"payload={self.payload!r}, direction={self.direction!r})")

    def wire_size(self) -> int:
        return self._size


# the slots' own setters: the constructor's way past ``__setattr__``
_set_stream_id = Packet.stream_id.__set__
_set_wave = Packet.wave.__set__
_set_payload = Packet.payload.__set__
_set_direction = Packet.direction.__set__
_set_size = Packet._size.__set__
