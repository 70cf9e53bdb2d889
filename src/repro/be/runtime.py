"""The LaunchMON daemon runtime (``LMON_be_*`` and ``LMON_mw_*``).

A tool daemon body does::

    be = BackEnd(ctx)
    yield from be.init()          # wireup + handshake + proctable receipt
    ...tool work: be.gather / be.barrier / procfs reads...
    yield from be.send_usrdata(result)   # master only
    yield from be.finalize()

``init`` implements the critical-path choreography of Figure 2: the fabric
wireup (e8 -> e9), the daemon-info gather, the master's LMONP handshake with
the front end, the distribution of what the front end answered, and the
final ready message (e10). The master measures its setup and collective
times and reports them to the front end inside READY -- that is how the
experiments decompose Region A the way the paper's model does.

:class:`DaemonRuntime` is that exchange for back ends (``FE_BE``) and
middleware daemons (``FE_MW``, Section 3.4) alike.
"""

from __future__ import annotations

import json
from typing import Any, Generator, Optional

from repro.be.context import BEContext
from repro.be.iccl import ICCLEndpoint
from repro.lmonp import FeToBe, LmonpMessage, LmonpStream, MsgClass, security_token
from repro.mpir import RPDTAB, ProcDesc

__all__ = ["BackEnd", "DaemonRuntime", "minimal_daemon"]


#: last (raw bytes -> decoded) usr-data pair; every daemon of one set
#: receives the *same* bytes object from the scatter or broadcast, so one
#: decode serves the whole set (per-daemon decodes were an O(n^2)
#: wall-clock term at launch scale). Decoding costs no virtual time;
#: daemons treat the init usr data as read-only, so sharing the decoded
#: object is safe.
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


class DaemonRuntime:
    """Everything a LaunchMON daemon does but share out the handshake's
    PROCTAB (``_distribute``), over one LMONP message class and its type
    enum (``types``).

    Slotted, like its subclasses: every launched daemon owns one.
    """

    __slots__ = ("ctx", "ep", "_stream", "_initialized", "t_setup",
                 "t_collective", "_overlay_endpoint")

    msg_class: MsgClass
    types: type
    stream_name: str  # the master's LMONP stream

    def __init__(self, ctx: BEContext):
        self.ctx = ctx
        self.ep: ICCLEndpoint = ctx.fabric.endpoint(ctx.rank)
        self._stream: Optional[LmonpStream] = None
        self._initialized = False
        #: measured phase durations (seconds of virtual time); the
        #: master reports its own in READY
        self.t_setup = 0.0
        self.t_collective = 0.0
        #: the TBON position bound by :meth:`attach_overlay`
        self._overlay_endpoint = None

    # -- identity ----------------------------------------------------------
    def am_i_master(self) -> bool:
        return self.ctx.is_master

    def get_size(self) -> int:
        return self.ctx.size

    # -- initialization ------------------------------------------------------
    def init(self) -> Generator[Any, Any, None]:
        """Wire the fabric and run the handshake with the front end."""
        ctx = self.ctx
        sim = ctx.sim

        t0 = sim.now
        yield from self.ep.wireup()
        self.t_setup = sim.now - t0

        # collective: every daemon contributes (hostname, pid)
        t1 = sim.now
        table = yield from self.ep.gather((ctx.node.name, ctx.proc.pid))
        usr_raw = yield from self._distribute(table, t1)
        ctx.usr_data_init = _decode_usr_payload(usr_raw)
        self._initialized = True

    def _distribute(self, table, t1: float) -> Generator[Any, Any, bytes]:
        """Share out the PROCTAB, record ``t_collective``, and return the
        raw piggybacked usr data."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _handshake(self, table) -> Generator[Any, Any, tuple]:
        """Master: connect to the front end, send HANDSHAKE, and return
        ``(t_connected, PROCTAB message)``."""
        ctx = self.ctx
        pipe = yield from ctx.fabric.network.connect(ctx.node, ctx.fe_node)
        token = security_token(ctx.session_key)
        self._stream = LmonpStream(pipe.a, token, name=self.stream_name)
        yield ctx.fe_rendezvous.put(pipe.b)
        t_connected = ctx.sim.now
        hs = LmonpMessage(
            self.msg_class, self.types.HANDSHAKE, num_tasks=ctx.size,
            lmon_payload=LmonpMessage.json_payload(table))
        yield self._stream.send(hs)
        msg = yield from self._stream.expect(self.types.PROCTAB)
        return t_connected, msg

    def ready(self) -> Generator[Any, Any, None]:
        """Master: send READY (e10) with measured phase times piggybacked."""
        yield from self.barrier()
        if self.ctx.is_master:
            report = {"t_setup": self.t_setup,
                      "t_collective": self.t_collective}
            msg = LmonpMessage(
                self.msg_class, self.types.READY, num_tasks=self.ctx.size,
                lmon_payload=LmonpMessage.json_payload(report))
            yield self._stream.send(msg)

    # -- TBON streaming (the data plane) ----------------------------------------
    def attach_overlay(self, endpoint) -> None:
        """Bind this daemon to its TBON overlay position.

        ``endpoint`` is the :class:`~repro.tbon.OverlayEndpoint` a startup
        path (e.g. :func:`~repro.tbon.launchmon_startup`) hands the
        daemon; it enables the ``stream_*`` operations.
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

    def _require_overlay(self, what: str):
        ep = self._overlay_endpoint
        if ep is None:
            raise RuntimeError(
                f"{what} requires attach_overlay(endpoint) first")
        return ep

    # -- collectives (general tool use) ----------------------------------------
    # each hands back the endpoint's generator itself, so a daemon waiting
    # in a collective parks no frame of the runtime's
    def barrier(self) -> Generator[Any, Any, None]:
        return self.ep.barrier()

    def broadcast(self, obj: Any = None) -> Generator[Any, Any, Any]:
        return self.ep.broadcast(obj)

    def gather(self, obj: Any) -> Generator[Any, Any, Optional[list]]:
        return self.ep.gather(obj)

    def scatter(self, objs=None) -> Generator[Any, Any, Any]:
        return self.ep.scatter(objs)

    # -- user data to/from the front end -----------------------------------------
    def send_usrdata(self, obj: Any) -> Generator[Any, Any, None]:
        """Master only: ship tool data to the front end."""
        self._require_master("send_usrdata")
        msg = LmonpMessage(
            self.msg_class, self.types.USRDATA,
            usr_payload=LmonpMessage.json_payload(obj))
        yield self._stream.send(msg)

    def recv_usrdata(self) -> Generator[Any, Any, Any]:
        """Master only: wait for tool data from the front end."""
        self._require_master("recv_usrdata")
        msg = yield from self._stream.expect(self.types.USRDATA)
        return json.loads(msg.usr_payload.decode()) if msg.usr_payload else None

    # -- teardown -------------------------------------------------------------------
    def finalize(self) -> Generator[Any, Any, None]:
        """Collective teardown; the master notifies the front end."""
        yield from self.barrier()
        if self.ctx.is_master and self._stream is not None:
            yield self._stream.send(
                LmonpMessage(self.msg_class, self.types.SHUTDOWN))
        self.ctx.proc.exit(0)

    def _require_master(self, what: str) -> None:
        if not self.ctx.is_master:
            raise RuntimeError(
                f"{what} is a master-daemon operation (rank "
                f"{self.ctx.rank} is not the master)")
        if self._stream is None:
            raise RuntimeError(f"{what} before init")


class BackEnd(DaemonRuntime):
    """Per-daemon back-end API object wrapping a :class:`BEContext`."""

    __slots__ = ()

    msg_class = MsgClass.FE_BE
    types = FeToBe
    stream_name = "master-be"

    def get_my_rank(self) -> int:
        return self.ctx.rank

    def get_my_proctab(self) -> list[ProcDesc]:
        """This daemon's local task descriptors (valid after ``init``)."""
        if not self._initialized:
            raise RuntimeError("get_my_proctab before init")
        return list(self.ctx.local_entries)

    def _distribute(self, table, t1: float) -> Generator[Any, Any, bytes]:
        """Scatter each daemon its local slice of the RPDTAB (the usr data
        rides along), then broadcast the daemon table."""
        ctx = self.ctx
        sim = ctx.sim
        if ctx.is_master:
            t_connected, msg = yield from self._handshake(table)
            rpdtab = RPDTAB.from_bytes(msg.lmon_payload)
            t2 = sim.now
            hosts = [h for h, _pid in table]
            # each entry goes on the wire as its (field, value) pairs
            slices = [
                [(("rank", e.rank), ("host_name", e.host_name),
                  ("executable_name", e.executable_name), ("pid", e.pid))
                 for e in rpdtab.entries_on(h)]
                for h in hosts
            ]
            payload = [(s, msg.usr_payload) for s in slices]
            mine, usr_raw = yield from self.ep.scatter(payload)
            # the collective time excludes the front end's share of the
            # handshake window: measured up to HANDSHAKE, then the scatter
            self.t_collective = (t_connected - t1) + (sim.now - t2)
        else:
            mine, usr_raw = yield from self.ep.scatter()
            self.t_collective = sim.now - t1

        ctx.local_entries = [ProcDesc(**dict(item)) for item in mine]
        ctx.daemon_table = yield from self.ep.broadcast(
            list(table) if table else [])
        return usr_raw

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
