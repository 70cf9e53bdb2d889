"""The tool front-end runtime: sessions, launch/attach/spawn, data transfer.

All operations are generators to be driven inside a simulation process
(see :mod:`repro.runner` for the convenience harness). The FE runtime marks
the client-visible critical-path events (e0, e7, e10, e11) and merges in the
engine-side marks, producing the complete Figure 2 timeline plus the
component decomposition used by Figure 3.

Blocking and non-blocking use
-----------------------------
The methods here are the *blocking* face of the API: ``yield from
fe.launch_and_spawn(...)`` suspends the calling simulation process until the
daemon set is ready (e11), exactly like the original C API. The same
coroutines are also what :class:`~repro.fe.service.ToolService` multiplexes:
it wraps each operation in a :class:`~repro.fe.service.SessionHandle` -- a
future-like object with ``.done`` / ``.result()`` / ``.wait()`` -- and runs
it as an independent simulation process, so N tenants' launches interleave
on one cluster. Both faces drive the identical code path; a handle is just
this generator running in its own process.

Lifecycle notifications mirror ``LMON_fe_regStatusCB``: register a callback
with :meth:`ToolFrontEnd.register_status_cb` (or directly on the session /
handle) and it fires synchronously on every
:class:`~repro.fe.session.SessionState` transition -- see
:mod:`repro.fe.session` for the transition diagram. Launches enter the
``QUEUED`` state while waiting in the resource manager's FIFO allocation
queue (:meth:`~repro.rm.base.ResourceManager.allocate_async`), so node
contention between concurrent sessions is observable rather than silent.
Allocations a session obtains return to the free pool on ``kill``, or on
``detach(reclaim_job=True)`` -- which also retires a tool-launched job so
freed nodes are genuinely empty; a classic ``detach()`` leaves the job
running and therefore leaves its nodes allocated.

With ``reuse_engine=True`` (what :class:`~repro.fe.service.ToolService`
uses for its tenants) one FE keeps a single LaunchMON engine process alive
across its sessions, so the per-session engine fork cost (e1) is paid once
per front end, not once per launch; the classic default retires the engine
process on every detach, exactly like the seed behaviour.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Generator, Optional

from repro.apps import AppSpec
from repro.be.context import BEContext
from repro.cluster import Cluster, SimProcess
from repro.engine import LaunchMONEngine
from repro.engine.driver import ENGINE_EXECUTABLE
from repro.fe.session import LIVE_STATES, LMONSession, SessionState
from repro.lmonp import (
    FeToBe,
    FeToEngine,
    FeToMw,
    LmonpMessage,
    LmonpStream,
    MsgClass,
    security_token,
)
from repro.mpir import RPDTAB
from repro.rm.base import DaemonSpec, ResourceManager, RMJob
from repro.simx import Store, run_bounded

__all__ = ["FrontEndError", "ToolFrontEnd"]

#: the two front end <-> master daemon LMONP pairings: message class and
#: type enum per daemon kind (``"be"`` / ``"mw"``; the session keeps the
#: kind's stream as ``<kind>_stream`` and its transforms as
#: ``pack_fe_to_<kind>`` / ``unpack_<kind>_to_fe``)
_LMONP = {
    "be": (MsgClass.FE_BE, FeToBe),
    "mw": (MsgClass.FE_MW, FeToMw),
}


class FrontEndError(RuntimeError):
    """FE API misuse or failed operations."""


class ToolFrontEnd:
    """The per-tool front-end runtime (``LMON_fe_*`` equivalent)."""

    def __init__(self, cluster: Cluster, rm: ResourceManager,
                 tool_name: str = "tool", reuse_engine: bool = False):
        self.cluster = cluster
        self.rm = rm
        self.sim = cluster.sim
        self.tool_name = tool_name
        self.proc: Optional[SimProcess] = None
        #: the session resource descriptor table
        self.sessions: dict[int, LMONSession] = {}
        #: share one engine process across this FE's sessions (pay e1 once).
        #: Off by default to preserve classic semantics (each detach retires
        #: its engine process); ToolService turns it on for its tenants and
        #: retires the shared process via shutdown()/keep_warm eviction.
        self.reuse_engine = reuse_engine
        self._engine_proc: Optional[SimProcess] = None
        #: pending event while one session is forking the shared engine,
        #: so concurrent sessions on this FE wait instead of double-forking
        self._engine_starting = None

    # -- init / sessions ------------------------------------------------------
    def init(self) -> Generator[Any, Any, None]:
        """``LMON_fe_init``: start the front-end runtime process."""
        self.proc = yield from self.cluster.front_end.fork_exec(
            f"{self.tool_name}-fe", image_mb=self.cluster.costs.fe_image_mb)

    def create_session(self) -> LMONSession:
        """``LMON_fe_createSession``: allocate a session descriptor."""
        session = LMONSession(self.tool_name)
        self.sessions[session.id] = session
        return session

    def register_status_cb(self, session: LMONSession,
                           cb: Callable[..., None]) -> None:
        """``LMON_fe_regStatusCB``: fire ``cb(session, old, new)`` on every
        session state transition (see :mod:`repro.fe.session`)."""
        session.register_status_cb(cb)

    # -- data-transfer registration ----------------------------------------------
    def register_pack(self, session: LMONSession,
                      fe_to_be: Optional[Callable[[Any], Any]] = None,
                      be_to_fe: Optional[Callable[[Any], Any]] = None,
                      fe_to_mw: Optional[Callable[[Any], Any]] = None,
                      mw_to_fe: Optional[Callable[[Any], Any]] = None) -> None:
        """Register pack/unpack transforms for piggybacked tool data.

        Transforms map tool objects to/from JSON-able structures that ride
        in the usr-payload section of LaunchMON's own handshake messages.
        """
        if fe_to_be is not None:
            session.pack_fe_to_be = fe_to_be
        if be_to_fe is not None:
            session.unpack_be_to_fe = be_to_fe
        if fe_to_mw is not None:
            session.pack_fe_to_mw = fe_to_mw
        if mw_to_fe is not None:
            session.unpack_mw_to_fe = mw_to_fe

    # -- launch / attach ------------------------------------------------------------
    def launch_and_spawn(self, session: LMONSession, app: AppSpec,
                         daemon_spec: DaemonSpec, usr_data: Any = None,
                         ) -> Generator[Any, Any, LMONSession]:
        """``launchAndSpawn``: start a job under tool control + daemons.

        Returns when the daemon set is ready (e11). The complete critical
        path of Figure 2 is recorded in ``session.timeline`` and decomposed
        in ``session.times``. Under node contention the session sits in the
        ``QUEUED`` state until the RM's FIFO allocation queue grants it
        nodes; the wait shows up between e0 and e1.
        """
        return (yield from self._spawn(session, daemon_spec, usr_data,
                                       app=app))

    def attach_and_spawn(self, session: LMONSession, job: RMJob,
                         daemon_spec: DaemonSpec, usr_data: Any = None,
                         ) -> Generator[Any, Any, LMONSession]:
        """``attachAndSpawn``: acquire an existing job + spawn daemons."""
        return (yield from self._spawn(session, daemon_spec, usr_data,
                                       job=job))

    def _spawn(self, session: LMONSession, daemon_spec: DaemonSpec,
               usr_data: Any, app: Optional[AppSpec] = None,
               job: Optional[RMJob] = None,
               ) -> Generator[Any, Any, LMONSession]:
        """Launch ``app`` (launch mode) or acquire ``job`` (attach mode),
        spawn the daemon set and run the BE handshake (e0 -> e11)."""
        session.require_state(SessionState.CREATED)
        session.timeline.mark("e0_client_call", self.sim.now)
        launch = job is None
        session.state = (SessionState.QUEUED if launch
                         else SessionState.SPAWNING)
        engine = None
        try:
            if launch:
                alloc = yield from self.rm.allocate_async(app.nodes_needed())
                session.owned_allocs.append(alloc)
                session.state = SessionState.SPAWNING

            engine, engine_stream, rendezvous = \
                yield from self._start_engine(session)
            factory = self._context_factory(session, rendezvous)
            if launch:
                spawn = engine.launch_and_spawn(app, alloc, daemon_spec,
                                                factory)
            else:
                spawn = engine.attach_and_spawn(job, daemon_spec, factory)
            bound_job, daemons, fabric, _rpdtab = yield from spawn
            self._bind(session, engine, bound_job, daemons, fabric)

            # the engine forwarded the RPDTAB over LMONP; consume it
            msg = yield from engine_stream.expect(FeToEngine.PROCTAB)
            session.rpdtab = RPDTAB.from_bytes(msg.lmon_payload)

            yield from self._be_handshake_guarded(session, rendezvous,
                                                  usr_data)
        except BaseException:
            # a failed launch must not strand its nodes: queued sessions
            # behind this one would deadlock on the allocation queue.
            # reclaim() also retires any partially launched job so the
            # released nodes are genuinely empty; before _bind() ran, that
            # job exists only on the engine.
            if launch and session.job is None and engine is not None:
                session.job = engine.job
            self._fail_session(session, engine)
            raise
        self._finish_timings(session)
        session.state = self._spawned_state(session)
        return session

    def launch_mw_daemons(self, session: LMONSession, mw_spec: DaemonSpec,
                          n_nodes: int, usr_data: Any = None,
                          topology: Optional[str] = None,
                          ) -> Generator[Any, Any, LMONSession]:
        """``launchMwDaemons``: middleware daemons on a fresh allocation.

        Allowed from a ``DEGRADED`` session too -- the middleware set
        serves whatever back ends survived.
        """
        session.require_state(*LIVE_STATES)
        if session.engine is None:
            raise FrontEndError("session has no engine")
        # pass through QUEUED while waiting for middleware nodes, so MW
        # contention is observable via status callbacks like launch is
        entry_state = session.state
        session.state = SessionState.QUEUED
        try:
            alloc = yield from self.rm.allocate_async(n_nodes)
        finally:
            session.state = entry_state
        session.owned_allocs.append(alloc)
        new_daemons: list = []
        try:
            rendezvous = Store(self.sim)
            factory = self._context_factory(session, rendezvous)
            new_daemons, fabric, _report = yield from session.engine.launch_mw(
                alloc, mw_spec, factory, topology=topology)
            mw_stream, _ready = yield from self._handshake(
                session, "mw", rendezvous, usr_data)
        except BaseException:
            # return only this operation's allocation and exit only the
            # daemons *it* spawned -- an earlier MW set (repeat calls are
            # legal from MW_READY) and the BE daemon set keep their nodes.
            for daemon in new_daemons:
                if daemon.proc is not None and daemon.proc.alive:
                    daemon.proc.exit(0)
            session.owned_allocs.remove(alloc)
            self.rm.release(alloc)
            raise
        # commit only on success: mw_daemons/stream/fabric track the
        # *current* set (what positional consumers iterate); the
        # accumulating all_mw_daemons list lets reclaim() end every set
        session.mw_daemons = new_daemons
        session.all_mw_daemons.extend(new_daemons)
        session.mw_fabric = fabric
        session.mw_stream = mw_stream
        session.state = SessionState.MW_READY
        return session

    # -- user data transfer ------------------------------------------------------------
    def send_usrdata_be(self, session: LMONSession, obj: Any,
                        ) -> Generator[Any, Any, None]:
        """Ship tool data to the master back-end daemon."""
        yield from self._send_usrdata(session, "be", obj)

    def recv_usrdata_be(self, session: LMONSession) -> Generator[Any, Any, Any]:
        """Wait for tool data from the master back-end daemon."""
        return (yield from self._recv_usrdata(session, "be"))

    def send_usrdata_mw(self, session: LMONSession, obj: Any,
                        ) -> Generator[Any, Any, None]:
        """Ship tool data to the master middleware daemon."""
        yield from self._send_usrdata(session, "mw", obj)

    def recv_usrdata_mw(self, session: LMONSession) -> Generator[Any, Any, Any]:
        """Wait for tool data from the master middleware daemon."""
        return (yield from self._recv_usrdata(session, "mw"))

    def _send_usrdata(self, session: LMONSession, kind: str, obj: Any,
                      ) -> Generator[Any, Any, None]:
        stream = self._require_stream(session, kind)
        msg_class, types = _LMONP[kind]
        packed = self._pack(getattr(session, f"pack_fe_to_{kind}"), obj)
        yield stream.send(
            LmonpMessage(msg_class, types.USRDATA, usr_payload=packed))

    def _recv_usrdata(self, session: LMONSession, kind: str,
                      ) -> Generator[Any, Any, Any]:
        stream = self._require_stream(session, kind)
        msg = yield from stream.expect(_LMONP[kind][1].USRDATA)
        data = json.loads(msg.usr_payload.decode()) if msg.usr_payload else None
        unpack = getattr(session, f"unpack_{kind}_to_fe")
        return data if unpack is None else unpack(data)

    # -- control ------------------------------------------------------------------------
    def detach(self, session: LMONSession, reclaim_job: bool = False,
               ) -> Generator[Any, Any, None]:
        """Release the job (daemons have finalized or keep running free).

        Classic semantics (default): the job keeps running after the tool
        detaches, so nodes the session allocated for it stay allocated --
        they are genuinely still occupied. With ``reclaim_job`` (what
        :class:`~repro.fe.service.ToolService` tenants use) a
        *tool-launched* job is retired together with the session and its
        nodes return to the RM free pool, un-blocking queued sessions.
        Jobs acquired via ``attach_and_spawn`` are never touched.
        """
        session.require_state(*LIVE_STATES)
        if session.engine is not None:
            yield from session.engine.detach()
        session.state = SessionState.DETACHED
        if reclaim_job:
            self.reclaim(session)

    def kill(self, session: LMONSession) -> Generator[Any, Any, None]:
        """Terminate the bound job and detach.

        The session's daemons are exited and its allocations returned to
        the free pool -- killed sessions leave their nodes genuinely empty.
        Needs an engine (so a session still QUEUED for nodes cannot be
        killed -- cancel its :class:`~repro.fe.service.SessionHandle`
        instead, which withdraws the queued request).
        """
        if session.engine is None:
            raise FrontEndError(
                "session has no engine/job to kill (a launch still queued "
                "for nodes is cancelled via its SessionHandle)")
        session.require_state(SessionState.SPAWNING, *LIVE_STATES)
        yield from session.engine.kill_job()
        session.state = SessionState.KILLED
        self.reclaim(session)

    def reclaim(self, session: LMONSession) -> None:
        """Retire the session's tool-launched job (if it owns one), end its
        daemon processes, and return every allocation it holds to the RM
        free pool (idempotent).

        Releasing nodes with processes still on them would double-book
        them, so a job backed by a session-owned allocation has its
        processes ended first, and surviving BE/MW daemons are exited;
        attached (foreign) jobs are left untouched.
        """
        self._retire_owned_job(session)
        for daemon in (*session.daemons, *session.all_mw_daemons):
            if daemon.proc is not None and daemon.proc.alive:
                daemon.proc.exit(0)
        self.release_allocations(session)

    def shutdown(self) -> None:
        """Retire the FE runtime: the shared engine process and FE process.

        Sessions are unaffected (detach/kill them first); this only returns
        the long-lived front-end processes to the node's process table.
        """
        if self._engine_proc is not None and self._engine_proc.alive:
            self._engine_proc.exit(0)
        self._engine_proc = None
        if self.proc is not None and self.proc.alive:
            self.proc.exit(0)

    # -- internals -------------------------------------------------------------------------
    def _start_engine(self, session: LMONSession,
                      ) -> Generator[Any, Any, tuple]:
        """Fork (or reuse) the engine and build the FE<->engine connection."""
        token = security_token(session.key)
        pipe = self.cluster.network.pipe(
            self.cluster.front_end.name, self.cluster.front_end.name)
        engine_stream = LmonpStream(pipe.a, token, name="fe-engine")
        engine = LaunchMONEngine(
            self.cluster, self.rm,
            fe_stream=LmonpStream(pipe.b, token, name="engine-fe"))
        # share measurement objects so marks land in one place
        engine.timeline = session.timeline
        engine.times = session.times
        if self.reuse_engine:
            proc = yield from self._obtain_engine_proc()
            yield from engine.start(proc=proc)
            # the FE owns the engine process; detach() must not retire it
            engine.owns_proc = False
        else:
            yield from engine.start()
        rendezvous = Store(self.sim)
        return engine, engine_stream, rendezvous

    def _obtain_engine_proc(self) -> Generator[Any, Any, SimProcess]:
        """The FE's shared engine process, forking it exactly once.

        Concurrent sessions that arrive while the fork is in flight wait
        for it instead of forking their own; if the fork fails, the next
        waiter retries (and surfaces its own failure).
        """
        while True:
            if self._engine_proc is not None and self._engine_proc.alive:
                return self._engine_proc
            if self._engine_starting is None:
                break
            yield self._engine_starting  # someone is forking; re-check after
        ev = self._engine_starting = self.sim.event()
        try:
            self._engine_proc = yield from self.cluster.front_end.fork_exec(
                ENGINE_EXECUTABLE, image_mb=self.cluster.costs.engine_image_mb)
        finally:
            self._engine_starting = None
            ev.succeed()
        return self._engine_proc

    def release_allocations(self, session: LMONSession) -> None:
        """Return every allocation the session still owns (idempotent)."""
        while session.owned_allocs:
            self.rm.release(session.owned_allocs.pop())

    def _fail_session(self, session: LMONSession, engine=None) -> None:
        """Failure epilogue for spawn operations: reclaim resources, retire
        a non-shared engine process, and land the session in the terminal
        FAILED state so status-callback listeners observe the death."""
        self.reclaim(session)
        if (engine is not None and engine.owns_proc
                and engine.proc is not None and engine.proc.alive):
            engine.proc.exit(1)
        session.state = SessionState.FAILED

    def _retire_owned_job(self, session: LMONSession) -> None:
        """End the processes of a job backed by a session-owned allocation."""
        job = session.job
        if job is None:
            return
        if not any(a is job.allocation for a in session.owned_allocs):
            return  # attach mode: the job belongs to someone else
        # ending the job also ends daemons spawned but not yet bound to
        # the session (a failure between e6 and _bind)
        job.end(0)

    def _context_factory(self, session: LMONSession, rendezvous: Store):
        """The RM's per-daemon context builder for one BE or MW set."""
        cluster = self.cluster

        def factory(daemon, daemons, fabric) -> BEContext:
            return BEContext(
                sim=cluster.sim, node=daemon.node, proc=daemon.proc,
                rank=daemon.rank, size=len(daemons), fabric=fabric,
                session_key=session.key, fe_node=cluster.front_end,
                fe_rendezvous=rendezvous)

        return factory

    def _spawned_state(self, session: LMONSession) -> SessionState:
        """READY for a complete daemon set; DEGRADED for a partial one the
        resource manager's ``min_daemon_fraction`` policy accepted (the
        shortfall is attributed per index in ``session.launch_report``)."""
        report = session.launch_report
        if (report is not None and report.requested
                and report.n_daemons < report.requested):
            return SessionState.DEGRADED
        return SessionState.READY

    def _be_handshake_guarded(self, session: LMONSession, rendezvous: Store,
                              usr_data: Any) -> Generator[Any, Any, None]:
        """Run the BE handshake, bounded by the RM policy's
        ``handshake_timeout`` (if set).

        A daemon killed *mid-handshake* leaves the master's collectives
        waiting forever; without a bound the session would hang instead of
        failing. On timeout the handshake process is interrupted and
        :class:`FrontEndError` raises -- the caller's failure path reclaims
        the session (nodes released, daemons exited, state FAILED).
        """
        policy = getattr(self.rm, "policy", None)
        timeout = policy.handshake_timeout if policy is not None else 0.0
        if timeout <= 0:
            yield from self._be_handshake(session, rendezvous, usr_data)
            return
        worker = yield from run_bounded(
            self.sim, self._be_handshake(session, rendezvous, usr_data),
            timeout, name=f"fe-handshake:s{session.id}")
        if worker is None:
            raise FrontEndError(
                f"session {session.id}: BE handshake did not complete "
                f"within {timeout}s (daemon lost mid-handshake?)")
        worker.value  # re-raise the handshake's own failure, if any

    def _handshake(self, session: LMONSession, kind: str, rendezvous: Store,
                   usr_data: Any) -> Generator[Any, Any, tuple]:
        """FE side of a master daemon's handshake, BE or MW: accept its
        connection, read HANDSHAKE, answer with the RPDTAB and the packed
        tool data, wait for READY. Returns ``(stream, READY message)``."""
        msg_class, types = _LMONP[kind]
        end = yield rendezvous.get()
        stream = LmonpStream(end, security_token(session.key),
                             name=f"fe-{kind}")
        hs = yield from stream.expect(types.HANDSHAKE)
        # per-daemon processing of the daemon table
        yield self.sim.timeout(
            self.cluster.costs.fe_handshake_per_daemon * max(0, hs.num_tasks))
        packed = self._pack(getattr(session, f"pack_fe_to_{kind}"), usr_data)
        reply = LmonpMessage(
            msg_class, types.PROCTAB, num_tasks=len(session.rpdtab),
            lmon_payload=session.rpdtab.to_bytes(), usr_payload=packed)
        yield stream.send(reply)
        ready = yield from stream.expect(types.READY)
        return stream, ready

    def _be_handshake(self, session: LMONSession, rendezvous: Store,
                      usr_data: Any) -> Generator[Any, Any, None]:
        """The BE handshake (e7 -> e10) and its Region A/C accounting."""
        sim = self.sim
        session.timeline.mark("e7_handshake_begin", sim.now)
        session.be_stream, ready = yield from self._handshake(
            session, "be", rendezvous, usr_data)
        session.timeline.mark("e10_ready", sim.now)
        report = ready.lmon_json() or {}
        session.times.t_setup = float(report.get("t_setup", 0.0))
        session.times.t_collective = float(report.get("t_collective", 0.0))
        # Region C: the handshake window minus the master-reported phases
        window = session.timeline.span("e7_handshake_begin", "e10_ready")
        session.times.t_handshake = max(
            0.0, window - session.times.t_setup - session.times.t_collective)

    def _finish_timings(self, session: LMONSession) -> None:
        session.timeline.mark("e11_returned", self.sim.now)
        session.times.total = session.timeline.total()
        session.times.close_books()

    @staticmethod
    def _pack(pack_fn: Optional[Callable[[Any], Any]], obj: Any) -> bytes:
        if obj is None:
            return b""
        structure = pack_fn(obj) if pack_fn is not None else obj
        return LmonpMessage.json_payload(structure)

    def _require_stream(self, session: LMONSession, kind: str) -> LmonpStream:
        stream = getattr(session, f"{kind}_stream")
        if stream is None:
            raise FrontEndError(f"session {session.id}: no {kind}_stream "
                                f"(daemons not ready)")
        return stream

    def _bind(self, session: LMONSession, engine, job, daemons, fabric) -> None:
        session.engine = engine
        session.job = job
        session.daemons = daemons
        session.fabric = fabric
        # the RM just spawned this session's daemon set and filed its
        # per-phase launch breakdown (spawn / image-stage / ...) on the
        # job, the report's one home; keep it with the session, where it
        # decides READY vs DEGRADED.
        session.launch_report = job.daemon_spawn_report
