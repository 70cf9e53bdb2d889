"""Cluster interconnect model: message timing, TCP connects, duplex pipes.

Messages carry real payloads (LMONP messages are actual bytes); delivery
time is ``latency + per-message overhead + size/bandwidth`` with a small
seeded jitter. A :class:`Pipe` is a pair of :class:`~repro.simx.Channel`
objects giving two endpoints ``send``/``recv`` semantics.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.simx import Channel, Event, SeededRNG, Simulator
from repro.cluster.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["SEQ_FRAMING", "Network", "Pipe", "Sized", "message_size"]

#: framing bytes ``message_size`` charges a tuple or list on top of its
#: elements
SEQ_FRAMING = 16


#: scalar types that are always sized as an opaque 64-byte control word;
#: exact types (not subclasses), so a subclass with ``wire_size`` still
#: reports its own size
_OPAQUE_SCALARS = frozenset((int, float, type(None)))


def message_size(message: Any) -> int:
    """Best-effort byte size of a message for transfer-time computation."""
    if type(message) in _OPAQUE_SCALARS:
        return 64  # opaque control word: ranks, counters, None
    if isinstance(message, (bytes, bytearray, memoryview)):
        return len(message)
    if isinstance(message, str):
        return len(message.encode())
    if isinstance(message, (tuple, list)):
        return SEQ_FRAMING + sum(message_size(m) for m in message)
    if hasattr(message, "wire_size"):
        return int(message.wire_size())
    return 64  # opaque control object


class Sized:
    """A message envelope whose byte size is computed once, at wrap time.

    Broadcast-style fan-outs send one payload object to every peer;
    without the envelope each hop re-walks the payload (``message_size``
    is recursive), which turns an O(n)-recipient broadcast of an
    O(n)-sized payload into O(n^2) wall-clock work. The envelope reports
    exactly ``message_size(payload)``, so simulated timings are
    unchanged; receivers unwrap ``.payload``.

    A sender that already knows the byte count -- a collective keeping a
    running total of the records it relays -- passes it as ``size``; it
    must equal what ``message_size`` would report for the message the
    sender stands in for.
    """

    __slots__ = ("payload", "_size")

    def __init__(self, payload: Any, size: Optional[int] = None):
        self.payload = payload
        self._size = message_size(payload) if size is None else size

    def wire_size(self) -> int:
        return self._size


class PipeEnd:
    """One endpoint of a duplex pipe."""

    def __init__(self, out_chan: Channel, in_chan: Channel, peer_name: str):
        self._out = out_chan
        self._in = in_chan
        self.peer_name = peer_name

    def send(self, message: Any) -> Event:
        """Send a message to the peer (non-blocking; returns delivery event)."""
        return self._out.send(message)

    def recv(self) -> Event:
        """Event that triggers with the next message from the peer."""
        return self._in.recv()

    def pending(self) -> int:
        return self._in.pending()


class Pipe:
    """A duplex connection between two nodes with symmetric timing."""

    def __init__(self, sim: Simulator, a_name: str, b_name: str,
                 latency_fn):
        fwd = Channel(sim, latency_fn, name=f"{a_name}->{b_name}")
        rev = Channel(sim, latency_fn, name=f"{b_name}->{a_name}")
        self.a = PipeEnd(fwd, rev, peer_name=b_name)
        self.b = PipeEnd(rev, fwd, peer_name=a_name)

    # Channel objects are intentionally shared: a's out is b's in.


class Network:
    """All-to-all interconnect with uniform latency/bandwidth.

    Atlas's 4x DDR InfiniBand presents as a flat fabric at the message sizes
    LaunchMON exchanges; a uniform model is faithful for these experiments.
    Distinct NICs/links are not contended -- launch traffic is far below
    saturation (the paper's costs are dominated by software path lengths).
    """

    def __init__(self, sim: Simulator, costs: Optional[CostModel] = None,
                 rng: Optional[SeededRNG] = None):
        self.sim = sim
        self.costs = costs or CostModel()
        self.rng = (rng or SeededRNG(0)).child("network")
        self.connects = 0
        self.messages = 0

    # -- timing ------------------------------------------------------------
    def transfer_time(self, message: Any, size: Optional[int] = None) -> float:
        """Delivery delay for one message (jittered).

        ``size`` lets a fan-out that sends one object to many peers walk
        the payload once and reuse the byte count per recipient (it must
        equal ``message_size(message)``); the jitter draw and the message
        counter still run per call, so timing behaviour is unchanged.
        """
        self.messages += 1
        if size is None:
            size = message_size(message)
        base = self.costs.transfer_time(size)
        return self.rng.jitter(base, 0.03)

    # -- connections -----------------------------------------------------------
    def connect(self, src: "Node", dst: "Node",
                ) -> Generator[Any, Any, Pipe]:
        """Establish a TCP-like duplex connection; costs a handshake."""
        self.connects += 1
        rtt = 2.0 * self.costs.net_latency
        yield self.sim.timeout(self.rng.jitter(self.costs.tcp_connect + rtt))
        return self.pipe(src.name, dst.name)

    def pipe(self, a_name: str, b_name: str) -> Pipe:
        """Create a duplex pipe without connection cost (pre-wired fabric)."""
        return Pipe(self.sim, a_name, b_name, self.transfer_time)
