"""The LaunchMON back-end runtime (``LMON_be_*`` equivalent).

A tool daemon body does::

    be = BackEnd(ctx)
    yield from be.init()          # wireup + handshake + proctable receipt
    ...tool work: be.gather / be.barrier / procfs reads...
    yield from be.send_usrdata(result)   # master only
    yield from be.finalize()

``init`` implements the critical-path choreography of Figure 2: the fabric
wireup (e8 -> e9), the daemon-info gather, the master's LMONP handshake with
the front end, the RPDTAB broadcast/scatter, and the final ready message
(e10). The master measures its setup and collective times and reports them
to the front end inside READY -- that is how the experiments decompose
Region A the way the paper's model does.
"""

from __future__ import annotations

import json
from typing import Any, Generator, Optional

from repro.be.context import BEContext
from repro.be.iccl import ICCLEndpoint
from repro.lmonp import FeToBe, LmonpMessage, LmonpStream, MsgClass, security_token
from repro.mpir import RPDTAB, ProcDesc

__all__ = ["BackEnd", "minimal_daemon"]


#: last (raw bytes -> decoded) usr-data pair; every daemon of one set
#: receives the *same* bytes object from the scatter, so one decode serves
#: the whole set (per-daemon decodes were an O(n^2) wall-clock term at
#: launch scale). Decoding costs no virtual time; daemons treat the init
#: usr data as read-only, so sharing the decoded object is safe.
_usr_decode_memo: Optional[tuple[bytes, Any]] = None


def _decode_usr_payload(raw: Optional[bytes]) -> Any:
    global _usr_decode_memo
    if not raw:
        return None
    memo = _usr_decode_memo
    if memo is not None and memo[0] is raw:
        return memo[1]
    decoded = json.loads(raw.decode())
    _usr_decode_memo = (raw, decoded)
    return decoded


class BackEnd:
    """Per-daemon API object wrapping a :class:`BEContext`."""

    def __init__(self, ctx: BEContext):
        self.ctx = ctx
        self.ep: ICCLEndpoint = ctx.fabric.endpoint(ctx.rank)
        self._stream: Optional[LmonpStream] = None
        self._initialized = False
        #: master-measured phase durations (seconds of virtual time)
        self.timings: dict[str, float] = {}

    # -- identity ----------------------------------------------------------
    def am_i_master(self) -> bool:
        return self.ctx.is_master

    def get_my_rank(self) -> int:
        return self.ctx.rank

    def get_size(self) -> int:
        return self.ctx.size

    def get_my_proctab(self) -> list[ProcDesc]:
        """This daemon's local task descriptors (valid after ``init``)."""
        if not self._initialized:
            raise RuntimeError("get_my_proctab before init")
        return list(self.ctx.local_entries)

    # -- initialization ------------------------------------------------------
    def init(self) -> Generator[Any, Any, None]:
        """Wire the fabric and run the handshake with the front end."""
        ctx = self.ctx
        sim = ctx.sim

        t0 = sim.now
        yield from self.ep.wireup()
        self.timings["t_setup"] = sim.now - t0

        # collective: every daemon contributes (hostname, pid)
        t1 = sim.now
        table = yield from self.ep.gather((ctx.node.name, ctx.proc.pid))

        if ctx.is_master:
            # master connects to the FE and handshakes
            pipe = yield from ctx.fabric.network.connect(ctx.node, ctx.fe_node)
            token = security_token(ctx.session_key)
            self._stream = LmonpStream(pipe.a, token, name="master-be")
            yield ctx.fe_rendezvous.put(pipe.b)
            t_collective_so_far = sim.now - t1
            hs = LmonpMessage(
                MsgClass.FE_BE, FeToBe.HANDSHAKE, num_tasks=ctx.size,
                lmon_payload=LmonpMessage.json_payload(table))
            yield self._stream.send(hs)
            # receive the RPDTAB (+ piggybacked tool data)
            msg = yield from self._stream.expect(FeToBe.PROCTAB)
            rpdtab = RPDTAB.from_bytes(msg.lmon_payload)
            ctx.usr_data_init = _decode_usr_payload(msg.usr_payload)
            # scatter each daemon its local slice (+ usr data rides along)
            t2 = sim.now
            hosts = [h for h, _pid in table]
            slices = [
                [tuple(e.__dict__.items()) for e in rpdtab.entries_on(h)]
                for h in hosts
            ]
            payload = [(s, msg.usr_payload) for s in slices]
            mine, usr_raw = yield from self.ep.scatter(payload)
            self.timings["t_collective"] = (
                t_collective_so_far + (sim.now - t2))
        else:
            mine, usr_raw = yield from self.ep.scatter()
            ctx.usr_data_init = _decode_usr_payload(usr_raw)
            self.timings["t_collective"] = sim.now - t1

        ctx.local_entries = [ProcDesc(**dict(item)) for item in mine]
        ctx.daemon_table = list(table) if table else []
        ctx.daemon_table = yield from self.ep.broadcast(ctx.daemon_table)
        self._initialized = True

    def ready(self) -> Generator[Any, Any, None]:
        """Master: send READY (e10) with measured phase times piggybacked."""
        yield from self.barrier()
        if self.ctx.is_master:
            report = {
                "t_setup": self.timings.get("t_setup", 0.0),
                "t_collective": self.timings.get("t_collective", 0.0),
            }
            msg = LmonpMessage(
                MsgClass.FE_BE, FeToBe.READY, num_tasks=self.ctx.size,
                lmon_payload=LmonpMessage.json_payload(report))
            yield self._stream.send(msg)

    # -- TBON streaming (the data plane) ----------------------------------------
    def attach_overlay(self, endpoint) -> None:
        """Bind this daemon to its TBON overlay position.

        ``endpoint`` is the :class:`~repro.tbon.OverlayEndpoint` a startup
        path (e.g. :func:`~repro.tbon.launchmon_startup`'s
        ``daemon_body``) hands the daemon; it enables the ``stream_*``
        operations below.
        """
        self._overlay_endpoint = endpoint

    def stream_open(self, spec):
        """Open (or join) a persistent stream on the attached overlay.

        Idempotent per stream id -- every daemon and the front end call
        this with the same :class:`~repro.tbon.StreamSpec` and share one
        :class:`~repro.tbon.Stream`.
        """
        ep = self._require_overlay("stream_open")
        return ep.overlay.open_stream(spec)

    def stream_publish(self, stream, wave: int, payload: Any,
                       ) -> Generator[Any, Any, None]:
        """Publish this daemon's contribution for one stream wave.

        Blocks under credit-based backpressure while the parent's stream
        inbox is saturated -- a slow subscriber slows the publishers,
        it does not overflow the tree.
        """
        ep = self._require_overlay("stream_publish")
        yield from stream.publish(ep.position, wave, payload)

    def stream_subscribe(self) -> Generator[Any, Any, Any]:
        """Wait for the next downstream (FE -> leaves) control packet.

        This listens on the overlay's *broadcast* plane (how the front
        end steers its samplers: start/stop/retarget commands pushed
        with ``OverlayEndpoint.broadcast``), NOT on a persistent
        stream's upward data path -- persistent streams carry data up
        only, so pairing this with ``stream_publish`` in a loop without
        an FE that actually broadcasts will wait forever.
        """
        ep = self._require_overlay("stream_subscribe")
        pkt = yield from ep.recv_broadcast()
        return pkt

    def _require_overlay(self, what: str):
        ep = getattr(self, "_overlay_endpoint", None)
        if ep is None:
            raise RuntimeError(
                f"{what} requires attach_overlay(endpoint) first")
        return ep

    # -- collectives (general tool use) ----------------------------------------
    def barrier(self) -> Generator[Any, Any, None]:
        yield from self.ep.barrier()

    def broadcast(self, obj: Any = None) -> Generator[Any, Any, Any]:
        result = yield from self.ep.broadcast(obj)
        return result

    def gather(self, obj: Any) -> Generator[Any, Any, Optional[list]]:
        result = yield from self.ep.gather(obj)
        return result

    def scatter(self, objs=None) -> Generator[Any, Any, Any]:
        result = yield from self.ep.scatter(objs)
        return result

    # -- user data to/from the front end -----------------------------------------
    def send_usrdata(self, obj: Any) -> Generator[Any, Any, None]:
        """Master only: ship tool data to the front end."""
        self._require_master("send_usrdata")
        msg = LmonpMessage(
            MsgClass.FE_BE, FeToBe.USRDATA,
            usr_payload=LmonpMessage.json_payload(obj))
        yield self._stream.send(msg)

    def recv_usrdata(self) -> Generator[Any, Any, Any]:
        """Master only: wait for tool data from the front end."""
        self._require_master("recv_usrdata")
        msg = yield from self._stream.expect(FeToBe.USRDATA)
        return json.loads(msg.usr_payload.decode()) if msg.usr_payload else None

    # -- teardown -------------------------------------------------------------------
    def finalize(self) -> Generator[Any, Any, None]:
        """Collective teardown; the master notifies the front end."""
        yield from self.barrier()
        if self.ctx.is_master and self._stream is not None:
            msg = LmonpMessage(MsgClass.FE_BE, FeToBe.SHUTDOWN)
            yield self._stream.send(msg)
        self.ctx.proc.exit(0)

    def _require_master(self, what: str) -> None:
        if not self.ctx.is_master:
            raise RuntimeError(
                f"{what} is a master-daemon operation (rank "
                f"{self.ctx.rank} is not the master)")
        if self._stream is None:
            raise RuntimeError(f"{what} before init")


def minimal_daemon(ctx):
    """The minimal tool daemon body: init, ready, finalize.

    Timing runs and service workloads point their
    :class:`~repro.rm.DaemonSpec` at it; the daemon's process name comes
    from the spec's ``executable``.
    """
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()
