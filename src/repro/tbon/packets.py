"""TBON packets and streams."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.network import message_size

__all__ = ["Packet"]


@dataclass(frozen=True)
class Packet:
    """One TBON protocol unit.

    ``stream_id`` selects the stream (and thus the filter applied at
    internal positions); ``wave`` sequences upstream reductions so that an
    internal node knows which child contributions belong together;
    ``payload`` must be JSON-able (prefix trees ship as dicts) and is not
    mutated once packed: the wire size is computed once, at construction.
    """

    stream_id: int
    wave: int
    payload: Any
    direction: str = "up"  # "up" | "down"
    #: header plus payload bytes (cached; not part of the packet's value)
    _size: int = field(init=False, repr=False, compare=False)

    #: the only legal routing directions: reductions flow up, broadcasts down
    DIRECTIONS = ("up", "down")

    #: framing bytes per packet (stream id + wave + direction + length);
    #: shared with the analytic model's hop-time term
    HEADER_BYTES = 24

    def __post_init__(self):
        if self.direction not in self.DIRECTIONS:
            raise ValueError(
                f"packet direction must be one of {self.DIRECTIONS}, "
                f"got {self.direction!r}")
        object.__setattr__(self, "_size",
                           self.HEADER_BYTES + message_size(self.payload))

    def wire_size(self) -> int:
        return self._size
