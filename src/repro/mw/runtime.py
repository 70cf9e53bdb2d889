"""The LaunchMON middleware runtime (``LMON_mw_*`` equivalent).

MW init is the back ends' handshake
(:class:`~repro.be.runtime.DaemonRuntime`) over the ``FE_MW`` message
class, with the two differences called out in Section 3.4: every TBON
daemon receives the *full* RPDTAB (so it can locate the target program and
the back-end daemons), and the personality-handle table is distributed so
daemons can address each other to bootstrap their own network fabric.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.be.context import BEContext as MWContext
from repro.be.runtime import DaemonRuntime
from repro.lmonp import FeToMw, MsgClass
from repro.mpir import RPDTAB

__all__ = ["MWContext", "Middleware"]


class Middleware(DaemonRuntime):
    """Per-daemon middleware API object wrapping an ``MWContext``."""

    __slots__ = ()

    msg_class = MsgClass.FE_MW
    types = FeToMw
    stream_name = "master-mw"

    def get_personality(self) -> int:
        """This daemon's personality handle (unique, rank-like)."""
        return self.ctx.rank

    def _distribute(self, table, t1: float) -> Generator[Any, Any, bytes]:
        """Broadcast the daemon table, the full RPDTAB and the usr data."""
        ctx = self.ctx
        sim = ctx.sim
        if ctx.is_master:
            _t_connected, msg = yield from self._handshake(table)
            # unlike a back end's, the collective time includes the
            # front end's share of the handshake window (kept as two
            # terms: READY carries these float bits as JSON, so they
            # size the message)
            t2 = sim.now
            payload = yield from self.ep.broadcast(
                (list(table), msg.lmon_payload, msg.usr_payload))
            self.t_collective = (t2 - t1) + (sim.now - t2)
        else:
            payload = yield from self.ep.broadcast()
            self.t_collective = sim.now - t1
        table_all, rpdtab_bytes, usr_raw = payload
        ctx.daemon_table = [tuple(t) for t in table_all]
        ctx.rpdtab = RPDTAB.from_bytes(rpdtab_bytes)
        return usr_raw

    def stream_subscribe(self, stream):
        """Tap the merged waves flowing through this daemon's position.

        Returns a :class:`~repro.simx.Store` receiving every
        ``(wave, merged_payload)`` this position's stream router reduces
        -- a middleware daemon's live view of its subtree, without
        joining the reduction itself.
        """
        ep = self._require_overlay("stream_subscribe")
        return stream.subscribe(ep.position)

    def stream_state(self, stream) -> Any:
        """This position's running filter state (windowed aggregates)."""
        ep = self._require_overlay("stream_state")
        return stream.state_at(ep.position)
