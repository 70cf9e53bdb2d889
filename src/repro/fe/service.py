"""Multi-tenant tool service: non-blocking session handles over many FEs.

The classic FE API (:mod:`repro.fe.api`) is blocking: ``yield from
fe.launch_and_spawn(...)`` occupies its simulation process until e11. That
models one user. Real tool infrastructure serves *many* users at once --
debuggers, profilers and snapshot tools all contending for the same
front-end node, RM controller and compute nodes. :class:`ToolService` is
that layer:

* each submitted operation (``submit_launch`` / ``submit_attach`` /
  ``submit_mw``) runs as its own simulation process and immediately returns
  a :class:`SessionHandle` -- a future-like object with ``.done``,
  ``.result()`` and ``.wait()``;
* one :class:`~repro.fe.api.ToolFrontEnd` is kept per tool name, with its
  engine process reused across that tenant's sessions;
* admission is FIFO, optionally capped by ``max_in_flight`` so the service
  models an operator-imposed concurrency limit on top of the RM's own node
  queue;
* every handle records per-state timestamps via the session's status
  callbacks, so launch latency can be decomposed into admission wait,
  allocation (``QUEUED``) wait and spawn time.

Registration, the admission gate, cancel, settle, drain and the outcome
counts live in :class:`OperationCore`, which the fleet's
:class:`~repro.fleet.frontdoor.FleetFrontDoor` shares: one operation
lifecycle under every front door.

Typical use (this is what ``examples/multitenant_demo.py`` does)::

    env = make_service_env(n_compute=64, max_in_flight=8)
    handles = [env.service.submit_launch(app, spec, tool_name=f"u{i}")
               for i in range(16)]
    drive(env, env.service.drain())
    p99 = max(h.launch_latency for h in handles)
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from repro.apps import AppSpec
from repro.cluster import Cluster
from repro.fe.api import FrontEndError, ToolFrontEnd
from repro.fe.session import LMONSession, SessionState, TERMINAL_STATES
from repro.rm.base import DaemonSpec, ResourceManager, RMJob
from repro.simx import Event, Interrupt, Resource, Simulator

__all__ = ["OperationCore", "ProcessFuture", "SessionHandle", "ToolService"]


class ProcessFuture:
    """A future over the simulation process running one operation.

    ``.done`` tells whether the operation finished, ``.exception`` holds
    its failure, ``.result()`` its return value, and ``.cancel()``
    interrupts it. ``.settle()`` suspends the calling simulation process
    until completion and never raises; ``.wait()`` settles, then returns
    ``.result()``. ``submitted_at`` and ``finished_at`` stamp creation
    and completion in virtual seconds, and ``launch_latency`` is submit
    -> the launched session's READY (or DEGRADED) mark.
    """

    #: the simx.Process running the operation, set when it starts
    _proc = None
    #: the event delivering the latest cancel's Interrupt
    _cancel_ev = None

    def __init__(self, sim: Simulator, handle_id: int):
        self.sim = sim
        self.id = handle_id
        self.submitted_at = sim.now
        self.finished_at: Optional[float] = None

    @property
    def done(self) -> bool:
        """True once the operation finished (successfully or not)."""
        return self._proc is not None and self._proc.triggered

    @property
    def exception(self) -> Optional[BaseException]:
        """The operation's failure, or None (also None while running)."""
        if self.done:
            return self._proc.exception
        return None

    def result(self) -> Any:
        """The operation's return value; raises its failure if it failed,
        or :class:`FrontEndError` if it has not finished yet."""
        if not self.done:
            raise FrontEndError(
                f"{type(self).__name__} {self.id}: still in flight")
        exc = self.exception
        if exc is not None:
            raise exc
        return self._proc.value

    def cancel(self, reason: Any = "cancelled by client") -> bool:
        """Interrupt the operation; the interrupt surfaces as this
        future's ``exception``. False, and nothing scheduled, if the
        operation already finished or an earlier cancel's interrupt has
        not been delivered yet; an operation that survived a delivered
        interrupt can be cancelled again."""
        if self.done or (self._cancel_ev is not None
                         and not self._cancel_ev.processed):
            return False
        self._cancel_ev = self._proc.interrupt(reason)
        return True

    def settle(self) -> Generator[Any, Any, None]:
        """Suspend the calling sim process until done. Never raises: the
        outcome stays in ``exception`` / ``result()``."""
        if not self.done:
            ev = Event(self.sim)
            self._proc.callbacks.append(lambda _: ev.succeed(self))
            yield ev

    def wait(self) -> Generator[Any, Any, Any]:
        """Settle, then return ``result()`` (re-raising the operation's
        failure)."""
        yield from self.settle()
        return self.result()

    @property
    def launch_latency(self) -> Optional[float]:
        """Client-visible latency: submit -> the launched session's READY
        mark, or DEGRADED (the partial-success sibling under a resilient
        launch policy); None until then, and for an operation that
        launches no session."""
        marks = self._launch_marks()
        if marks is None:
            return None
        t_ready = marks.get(SessionState.READY,
                            marks.get(SessionState.DEGRADED))
        return None if t_ready is None else t_ready - self.submitted_at

    def _launch_marks(self) -> Optional[dict]:
        """First-entry times of the states of the session this operation
        launched, or None if it launched none."""
        raise NotImplementedError

    def _finish(self, proc: Event) -> None:
        """Process callback: stamp the finish time, and defuse a failure
        so it surfaces through ``result()`` instead of crashing the
        simulator run."""
        self.finished_at = self.sim.now
        if proc.exception is not None:
            proc.defuse()


class OperationCore:
    """One operation lifecycle, shared by every front door.

    Each submitted operation runs as its own simulation process behind a
    :class:`ProcessFuture` handle. The core registers the handle, admits
    operations FIFO through an optional ``max_in_flight`` gate, cancels,
    settles and drains them, and counts their outcomes.

    ``expected`` names the failures that are outcomes rather than
    faults: :meth:`drain` skips them and :meth:`summary` does not count
    them as ``failed``. A deliberate cancel (an
    :class:`~repro.simx.Interrupt`) is always one.
    """

    expected: tuple = (Interrupt,)

    def __init__(self, sim: Simulator, name: str,
                 max_in_flight: Optional[int]):
        self.sim = sim
        self.name = name
        self.max_in_flight = max_in_flight
        self._gate = (Resource(sim, max_in_flight, name=f"{name}-gate")
                      if max_in_flight is not None else None)
        #: every handle ever submitted, in submission order
        self.handles: list = []

    def _start(self, handle: ProcessFuture, gen: Generator,
               name: str) -> ProcessFuture:
        """Run ``gen`` as ``handle``'s operation and register the handle."""
        handle._proc = proc = self.sim.process(gen, name=name)
        proc.callbacks.append(handle._finish)
        self.handles.append(handle)
        return handle

    # -- admission -----------------------------------------------------------
    @property
    def pending_admissions(self) -> int:
        """Operations still queued at the admission gate (0 if unbounded)."""
        return self._gate.pending if self._gate is not None else 0

    def _admit(self) -> Generator[Any, Any, None]:
        """Take an admission slot (FIFO) if the gate is capped. A failure
        or interrupt while queued withdraws the request, so the slot
        cannot leak to a dead waiter."""
        if self._gate is None:
            return
        req = self._gate.request()
        try:
            yield req
        except BaseException:
            self._gate.cancel(req)
            raise

    def _release(self) -> None:
        """Give back the slot an admitted operation holds."""
        if self._gate is not None:
            self._gate.release()

    # -- completion ----------------------------------------------------------
    def cancel_all(self, reason: Any) -> int:
        """Interrupt every unfinished operation; returns how many."""
        return sum(handle.cancel(reason) for handle in self.handles)

    def settle(self) -> Generator[Any, Any, None]:
        """Wait until every handle is done, handles submitted meanwhile
        included. Never raises an operation's failure."""
        i = 0
        while i < len(self.handles):
            handle = self.handles[i]
            i += 1
            yield from handle.settle()

    def drain(self) -> Generator[Any, Any, list]:
        """Wait for every handle, handles submitted meanwhile included;
        returns the results of the successful ones in submission order.

        An ``expected`` outcome is skipped. Any other failure re-raises,
        first in submission order -- failures do not pass silently,
        matching :func:`repro.runner.drive` -- and so does an interrupt
        of the process running the drain itself.
        """
        results = []
        i = 0
        while i < len(self.handles):
            handle = self.handles[i]
            i += 1
            yield from handle.settle()
            if not isinstance(handle.exception, self.expected):
                results.append(handle.result())
        return results

    def summary(self) -> dict:
        """Outcome counts over every handle: ``completed``, ``cancelled``
        (an Interrupt), ``failed`` (anything not ``expected``), and the
        completed handles' sorted ``launch_latencies``."""
        done = [h for h in self.handles if h.done and h.exception is None]
        return {
            "submitted": len(self.handles),
            "completed": len(done),
            "failed": sum(1 for h in self.handles
                          if h.exception is not None
                          and not isinstance(h.exception, self.expected)),
            "cancelled": sum(1 for h in self.handles
                             if isinstance(h.exception, Interrupt)),
            "launch_latencies": sorted(h.launch_latency for h in done
                                       if h.launch_latency is not None),
        }


class SessionHandle(ProcessFuture):
    """A non-blocking handle for one in-flight FE operation.

    A :class:`ProcessFuture` whose ``.result()`` returns the session (or
    re-raises the operation's failure). ``register_status_cb`` mirrors
    ``LMON_fe_regStatusCB`` on the underlying session.

    ``.cancel()`` is the escape hatch for a launch stuck in the allocation
    queue (where ``kill()`` cannot reach: no engine exists yet): the queued
    node request is withdrawn, anything partially launched is reclaimed,
    and a launch/attach session lands in the terminal FAILED state (a
    cancelled MW operation leaves its live parent session in the state it
    entered with).

    Timing fields (virtual seconds): ``submitted_at`` (handle creation),
    ``started_at`` (admission granted, operation begins), ``finished_at``;
    ``state_times`` maps each :class:`SessionState` reached to the time of
    its *first* entry. ``launch_latency`` is submit -> READY, the
    client-visible metric the multitenant study reports; a chained MW
    handle shares its session's READY mark with the parent launch, so it
    has none (use ``finished_at - submitted_at`` for an MW op's
    end-to-end time).
    """

    _ids = itertools.count(1)

    def __init__(self, sim: Simulator, fe: ToolFrontEnd,
                 session: LMONSession, op: str):
        super().__init__(sim, next(SessionHandle._ids))
        self.fe = fe
        self.session = session
        self.op = op
        self.started_at: Optional[float] = None
        #: first-entry time of every state reached, via status callbacks
        self.state_times: dict[SessionState, float] = {}
        #: every transition observed, in order: (time, old, new)
        self.transitions: list[tuple[float, SessionState, SessionState]] = []
        #: return value of the ``body`` generator, if one was submitted
        self.body_result: Any = None
        session.register_status_cb(self._on_transition)

    # -- status callbacks ----------------------------------------------------
    def register_status_cb(self, cb: Callable[..., None]) -> None:
        """``LMON_fe_regStatusCB`` on the handle's session."""
        self.session.register_status_cb(cb)

    def _on_transition(self, session: LMONSession, old: SessionState,
                       new: SessionState) -> None:
        self.state_times.setdefault(new, self.sim.now)
        self.transitions.append((self.sim.now, old, new))

    def _stop_recording(self) -> None:
        """Detach the transition recorder once the operation completes, so
        a later operation on the same session (e.g. a chained MW launch)
        cannot pollute this handle's metrics."""
        try:
            self.session.unregister_status_cb(self._on_transition)
        except ValueError:
            pass  # already stopped

    # -- derived metrics -----------------------------------------------------
    @property
    def queue_wait(self) -> Optional[float]:
        """Admission wait: submit -> operation start."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def alloc_wait(self) -> Optional[float]:
        """Node-contention wait: time spent in the QUEUED state (covers
        both launch queuing and an MW launch's node wait).

        Only transitions from this operation's own start are considered --
        a chained MW handle shares its session (and thus sees the parent
        launch's transitions) but must report its *own* node wait.
        """
        own = [tr for tr in self.transitions
               if self.started_at is not None and tr[0] >= self.started_at]
        for i, (t_in, _old, new) in enumerate(own):
            if new is SessionState.QUEUED:
                for t_out, old, _new in own[i + 1:]:
                    if old is SessionState.QUEUED:
                        return t_out - t_in
                return None  # still queued
        return None

    def _launch_marks(self) -> Optional[dict]:
        return self.state_times if self.op in ("launch", "attach") else None

    @property
    def launch_report(self):
        """The RM's daemon-spawn breakdown for this session (a
        :class:`repro.launch.LaunchReport`), or None before daemons
        spawned: per-phase timing attribution (``t_spawn`` /
        ``t_image_stage`` / ``t_topo_dist`` / ``t_connect`` /
        ``t_handshake`` / ``t_repair``, with ``dominant_phase()`` naming
        the scaling bottleneck) plus -- under a resilient
        :class:`~repro.launch.LaunchPolicy` -- the per-index failure
        attribution (``outcomes`` / ``retries`` / ``blacklisted``) behind
        a DEGRADED session."""
        return self.session.launch_report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "done" if self.done else "in-flight"
        return (f"<SessionHandle {self.id} {self.op} "
                f"session={self.session.id} {status}>")


class ToolService(OperationCore):
    """Serve many concurrent tool sessions on one simulated cluster.

    ``max_in_flight=None`` admits every submission immediately (the RM's
    allocation queue is then the only throttle); an integer cap makes the
    service itself a FIFO admission gate, which is how real shared launch
    services protect the front-end node and RM controller from stampedes.
    """

    def __init__(self, cluster: Cluster, rm: ResourceManager,
                 max_in_flight: Optional[int] = None,
                 keep_warm: Optional[int] = 64, name: str = "toolsvc"):
        super().__init__(cluster.sim, name, max_in_flight)
        self.cluster = cluster
        self.rm = rm
        #: at most this many *idle* tenant front ends keep their FE+engine
        #: processes warm; beyond it, a front end is retired when its last
        #: operation completes (None = never retire). Busy tenants are
        #: never retired, so the front-end node's process-table usage is
        #: bounded at roughly 2 x (keep_warm + concurrent operations).
        self.keep_warm = keep_warm
        #: one front end per tool name (tenant); engines are reused per FE
        self.frontends: dict[str, ToolFrontEnd] = {}
        # per-FE-*object* tracking (a retired tenant's old FE can come back
        # through a chained submit_mw; it must be trackable independently
        # of whatever FE currently serves its tool name)
        self._fe_init_done: dict[ToolFrontEnd, Event] = {}
        self._fe_inflight: dict[ToolFrontEnd, int] = {}
        self._fe_idle_since: dict[ToolFrontEnd, float] = {}
        #: last submitted handle per session id: ops sharing one session
        #: are serialized FIFO (concurrent ops would race its state machine)
        self._session_tail: dict[int, SessionHandle] = {}
        #: live (non-terminal) service-created sessions per FE, maintained
        #: via status callbacks so retirement checks stay O(1) instead of
        #: rescanning every session the tenant ever ran
        self._fe_live_sessions: dict[ToolFrontEnd, int] = {}
        #: concurrency diagnostics
        self.in_flight = 0
        self.peak_in_flight = 0

    # -- tenants -------------------------------------------------------------
    def frontend(self, tool_name: str = "tool") -> ToolFrontEnd:
        """The (lazily created) front end serving ``tool_name``."""
        fe = self.frontends.get(tool_name)
        if fe is None:
            fe = ToolFrontEnd(self.cluster, self.rm, tool_name,
                              reuse_engine=True)
            self.frontends[tool_name] = fe
        return fe

    # -- submission ----------------------------------------------------------
    def submit_launch(self, app: AppSpec, daemon_spec: DaemonSpec,
                      usr_data: Any = None, tool_name: str = "tool",
                      body: Optional[Callable[..., Generator]] = None,
                      ) -> SessionHandle:
        """Non-blocking ``launchAndSpawn``: returns a handle immediately.

        ``body(fe, session)``, if given, is a generator run in the same
        operation process once the session is READY -- the tenant's own tool
        logic (data exchange, detach, ...); its return value lands in
        ``handle.body_result``.
        """
        return self.submit_op(
            lambda fe, session: fe.launch_and_spawn(
                session, app, daemon_spec, usr_data=usr_data),
            tool_name=tool_name, op_name="launch", body=body)

    def submit_attach(self, job: RMJob, daemon_spec: DaemonSpec,
                      usr_data: Any = None, tool_name: str = "tool",
                      body: Optional[Callable[..., Generator]] = None,
                      ) -> SessionHandle:
        """Non-blocking ``attachAndSpawn`` on an already-running job."""
        return self.submit_op(
            lambda fe, session: fe.attach_and_spawn(
                session, job, daemon_spec, usr_data=usr_data),
            tool_name=tool_name, op_name="attach", body=body)

    def submit_op(self, op_factory: Callable[..., Generator],
                  tool_name: str = "tool", op_name: str = "op",
                  body: Optional[Callable[..., Generator]] = None,
                  ) -> SessionHandle:
        """Non-blocking *generic* FE operation on a fresh session.

        ``op_factory(fe, session)`` is a generator that drives the new
        session from CREATED to a usable state using any mix of FE
        coroutines -- this is how the control-plane daemon
        (:mod:`repro.ctl`) runs registry-defined tool recipes (e.g. an
        overlay-bearing launch) through the same admission gate,
        per-session serialization and handle semantics as
        :meth:`submit_launch`. Like the FE's own operations, the factory
        must reclaim what it acquired on failure before re-raising.
        """
        fe = self.frontend(tool_name)
        session = fe.create_session()
        self._track_session(fe, session)

        def op() -> Generator[Any, Any, LMONSession]:
            yield from op_factory(fe, session)
            return session

        return self._submit(fe, session, op, op_name, body)

    def submit_chained(self, handle: SessionHandle,
                       op_factory: Callable[..., Generator],
                       op_name: str = "op",
                       body: Optional[Callable[..., Generator]] = None,
                       ) -> SessionHandle:
        """Non-blocking operation chained onto an existing handle's
        session (FIFO per session, like :meth:`submit_mw`): waits for the
        parent to finish -- without adopting its failure; the op's own
        ``require_state`` reports the truth about a broken session --
        then runs ``op_factory(fe, session)``. This is how a
        control-plane client issues follow-up work (teardown, streams)
        against a session it launched earlier.
        """
        fe = handle.fe
        session = handle.session

        def op() -> Generator[Any, Any, LMONSession]:
            yield from op_factory(fe, session)
            return session

        return self._submit(fe, session, op, op_name, body,
                            pre=handle.settle)

    def submit_mw(self, handle: SessionHandle, mw_spec: DaemonSpec,
                  n_nodes: int, usr_data: Any = None,
                  topology: Optional[str] = None,
                  body: Optional[Callable[..., Generator]] = None,
                  ) -> SessionHandle:
        """Non-blocking ``launchMwDaemons`` chained after ``handle``.

        Waits for the parent operation to finish (so the session is READY),
        then launches the middleware set; returns its own handle bound to
        the same session.
        """
        fe = handle.fe
        session = handle.session

        def op() -> Generator[Any, Any, LMONSession]:
            yield from fe.launch_mw_daemons(session, mw_spec, n_nodes,
                                            usr_data=usr_data,
                                            topology=topology)
            return session

        # the parent is waited on *before* the admission slot is taken, so
        # a chained op does not hold capacity while idle
        return self._submit(fe, session, op, "mw", body, pre=handle.wait)

    # -- admission and metrics -----------------------------------------------
    def set_max_in_flight(self, n: Optional[int]) -> None:
        """Reconfigure the admission cap in place (daemon ``reload``).

        Raising the cap admits queued operations immediately (FIFO);
        lowering it never revokes slots already held -- in-flight
        operations finish and the lower cap binds as they release.
        Switching between unbounded (None) and a bounded cap requires a
        quiet service (no admitted or gate-queued operations): the gate
        cannot be created or destroyed under load without losing slot
        accounting.
        """
        if n == self.max_in_flight:
            return
        if self._gate is not None and n is not None:
            self._gate.set_capacity(n)
        else:
            if self.in_flight > 0 or self.pending_admissions > 0:
                raise FrontEndError(
                    f"cannot switch admission between unbounded and "
                    f"max_in_flight={n} with {self.in_flight} operation(s) "
                    f"in flight and {self.pending_admissions} queued")
            self._gate = (Resource(self.sim, n, name=f"{self.name}-gate")
                          if n is not None else None)
        self.max_in_flight = n

    def summary(self) -> dict:
        """The shared outcome counts plus ``peak_in_flight``."""
        return {**super().summary(), "peak_in_flight": self.peak_in_flight}

    def prune_handles(self) -> list[SessionHandle]:
        """Drop (and return) completed handles, bounding memory in a
        long-lived service; outstanding handles stay tracked.

        Call between :meth:`drain` passes, not while one is in flight
        (drain walks ``handles`` by index).
        """
        done = [h for h in self.handles if h.done]
        self.handles = [h for h in self.handles if not h.done]
        return done

    # -- internals -----------------------------------------------------------
    def _submit(self, fe: ToolFrontEnd, session: LMONSession,
                op: Callable[[], Generator], op_name: str,
                body: Optional[Callable[..., Generator]],
                pre: Optional[Callable[[], Generator]] = None,
                ) -> SessionHandle:
        handle = SessionHandle(self.sim, fe, session, op_name)
        # count per-FE work from *submission* (not gate admission), so a
        # tenant with an op still queued at the gate is never retired
        self._fe_inflight[fe] = self._fe_inflight.get(fe, 0) + 1
        self._fe_idle_since.pop(fe, None)
        # serialize ops on one session: wait for the predecessor (without
        # adopting its failure -- the op's own require_state reports the
        # truth about a broken session), then run any op-specific pre step
        prev = self._session_tail.get(session.id)
        self._session_tail[session.id] = handle

        def chained_pre() -> Generator[Any, Any, None]:
            if prev is not None:
                yield from prev.settle()
            if pre is not None:
                yield from pre()

        return self._start(handle, self._run(handle, op, body, chained_pre),
                           name=f"{self.name}:{op_name}:s{session.id}")

    def _run(self, handle: SessionHandle, op: Callable[[], Generator],
             body: Optional[Callable[..., Generator]],
             pre: Callable[[], Generator],
             ) -> Generator[Any, Any, LMONSession]:
        fe = handle.fe
        try:
            yield from pre()  # e.g. wait for a chained op's parent
            yield from self._admit()
        except BaseException:
            if handle.session.state is SessionState.CREATED:
                # a fresh session whose op died before starting: terminal,
                # so callback listeners see the death (a chained MW op's
                # parent session is live and is left untouched)
                handle.session.state = SessionState.FAILED
            self._op_done(handle)
            raise
        handle.started_at = self.sim.now
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            try:
                yield from self._ensure_init(fe)
            except BaseException:
                # init died before the op could even start: a fresh
                # session must still end terminally (FAILED) so callback
                # listeners see the death and the live-session count drops
                if handle.session.state is SessionState.CREATED:
                    handle.session.state = SessionState.FAILED
                raise
            # FE-op failures need no cleanup here: launch_and_spawn /
            # launch_mw_daemons release exactly the allocations they
            # acquired before re-raising (a chained MW failure keeps the
            # live session's BE daemon nodes held).
            session = yield from op()
            if body is not None:
                try:
                    handle.body_result = yield from body(fe, session)
                except BaseException:
                    # a crashed tenant body abandons its session; nobody
                    # will detach it, so reclaim its job + nodes or every
                    # tenant queued behind it deadlocks -- and land it in
                    # the terminal FAILED state so callback listeners see
                    # the death and no further ops are admitted on it. A
                    # body that already ended its session (detach/kill)
                    # before raising left it in a deliberate terminal
                    # state: respect that, including a classic detach's
                    # still-running job.
                    if session.state not in TERMINAL_STATES:
                        fe.reclaim(session)
                        session.state = SessionState.FAILED
                    raise
            return session
        finally:
            self.in_flight -= 1
            self._op_done(handle)
            self._release()  # admitted: the slot is always held here

    def _ensure_init(self, fe: ToolFrontEnd) -> Generator[Any, Any, None]:
        """Run ``fe.init()`` exactly once per front end; concurrent
        operations on the same tenant wait for the first to finish it.

        If the initializer fails, its slot is cleared and waiters retry the
        init themselves (each failing operation surfaces the real error
        instead of hanging on a never-completed event)."""
        while True:
            ev = self._fe_init_done.get(fe)
            if ev is None:
                ev = Event(self.sim)
                self._fe_init_done[fe] = ev
                try:
                    yield from fe.init()
                except BaseException:
                    if self._fe_init_done.get(fe) is ev:
                        del self._fe_init_done[fe]
                    ev.succeed()  # wake waiters; they will retry
                    raise
                ev.succeed()
                return
            if ev.callbacks is None:
                return  # init already completed successfully
            yield ev  # init in progress; re-check its outcome after

    def _op_done(self, handle: SessionHandle) -> None:
        """Account one finished operation: free its session for the next
        op, stop its recorder, stamp the tenant's idleness, maybe retire."""
        if self._session_tail.get(handle.session.id) is handle:
            del self._session_tail[handle.session.id]
        handle._stop_recording()
        fe = handle.fe
        self._fe_inflight[fe] -= 1
        if self._fe_inflight[fe] == 0:
            self._fe_idle_since[fe] = self.sim.now
        self._maybe_retire()

    def _track_session(self, fe: ToolFrontEnd, session: LMONSession) -> None:
        """Count the new session as live until it first enters a terminal
        state (O(1) via status callback, vs rescanning fe.sessions)."""
        self._fe_live_sessions[fe] = self._fe_live_sessions.get(fe, 0) + 1

        def on_transition(s: LMONSession, old: SessionState,
                          new: SessionState) -> None:
            if new in TERMINAL_STATES and old not in TERMINAL_STATES:
                self._fe_live_sessions[fe] -= 1

        session.register_status_cb(on_transition)

    def _retirable(self, fe: ToolFrontEnd) -> bool:
        """True when the FE has no in-flight ops and no live sessions --
        retiring it would otherwise kill the engine process out from under
        a session that is still READY/attached."""
        if self._fe_inflight.get(fe, 0) > 0:
            return False
        return self._fe_live_sessions.get(fe, 0) == 0

    def _maybe_retire(self) -> None:
        """Retire longest-idle front ends while more than ``keep_warm``
        idle front ends hold warm processes (LRU eviction).

        Busy front ends -- in-flight ops or live sessions -- never count
        against the budget (and are never retired), so hot tenants keep
        their engine-reuse amortization and live sessions keep their
        engine. Without retirement, every distinct ``tool_name`` ever
        served would pin two processes forever and eventually exhaust the
        FE node's process-table quota. A retired tenant that returns
        simply pays the init/fork cost again.
        """
        if self.keep_warm is None:
            return
        while True:
            idle = [warm for warm in self._fe_init_done
                    if self._retirable(warm)]
            if len(idle) <= self.keep_warm:
                return
            oldest = min(idle, key=lambda warm: (
                self._fe_idle_since.get(warm, 0.0), warm.tool_name))
            self._retire(oldest)

    def _retire(self, fe: ToolFrontEnd) -> None:
        """Shut down one front end's FE + engine processes and forget it."""
        fe.shutdown()
        self._fe_init_done.pop(fe, None)
        self._fe_inflight.pop(fe, None)
        self._fe_idle_since.pop(fe, None)
        self._fe_live_sessions.pop(fe, None)
        if self.frontends.get(fe.tool_name) is fe:
            del self.frontends[fe.tool_name]

    def shutdown_idle(self) -> int:
        """Retire every retirable front end's processes now (no in-flight
        ops, no live sessions); returns how many were retired."""
        retired = 0
        for fe in list(self._fe_init_done):
            if not self._retirable(fe):
                continue
            self._retire(fe)
            retired += 1
        return retired
