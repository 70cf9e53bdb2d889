"""The persistent control-plane daemon and its supervisor.

Two layers, mirroring how long-running launch services are actually run:

:class:`ControlPlane`
    The supervisor (init/systemd + the checkpoint file) and the one verb
    surface. It owns the durable :class:`~repro.ctl.store.CheckpointStore`
    and hands out daemon *generations*: ``cmd_start`` is idempotent
    ("ensure the daemon runs" -- a second start reports the live
    instance instead of spawning a rival), ``cmd_stop`` drains by
    default, ``crash`` models the OS killing the daemon process group
    mid-flight. The session verbs (``launch``, ``info``, ``wait``,
    ``cancel``, ``open_stream``, ``end``) address the supervisor, not a
    generation, so a client's ticket (``ctl_id``) stays valid across
    restarts while :class:`~repro.fe.service.SessionHandle` objects --
    one generation's in-memory promises -- do not. A verb that needs a
    live daemon raises :class:`~repro.ctl.errors.CtlUnavailable` when
    there is none; retrying after ``cmd_start`` is the client's job (the
    harness's submitter does exactly that, like a CLI looping on
    "connection refused" during a rolling upgrade).

:class:`CtlDaemon`
    One generation of the daemon process. It fronts a private
    :class:`~repro.fe.service.ToolService` (its FE/engine processes die
    with it), checkpoints client-visible state on every session
    transition, and on start *restores*: sessions with live daemon
    trees are re-adopted -- rebound to the surviving RM job, overlay and
    allocations -- **never relaunched** (:mod:`repro.ctl.restore`).

Crash semantics
---------------
``crash()`` must model sudden death, not graceful unwinding -- yet the
simulation still has to account for every side effect. The policy:

* Operations still **CREATED/QUEUED** (waiting for admission or in the
  RM's FIFO node queue) are abandoned via :meth:`~repro.simx.Process.kill`
  -- frozen mid-suspension, no ``finally`` blocks run. Their queued RM
  entries go stale; a post-crash release can still *grant* such an entry
  (the RM cannot know the requester died), producing an allocation with
  no owner. That is a real leak, and exactly what the restore's orphan
  sweep reaps through the RM's ``live_allocations`` ledger.
* Operations already **SPAWNING** die *with their launcher*: LaunchMON
  runs the RM launch process as a traced child of the engine, so the
  engine's death collapses the in-flight spawn and the RM aborts the
  job. That RM-side abort is modeled as an interrupt whose unwind runs
  the op's own failure path (reclaim + FAILED) -- deterministic cleanup
  performed by a component that *survives* the crash.
* **READY/DEGRADED/MW_READY** sessions are untouched: their daemon
  trees, overlays and allocations are data plane and live on. The dead
  generation's FE and engine processes are shut down (they were the
  daemon's own children); the trees keep running headless until a new
  generation adopts them.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.cluster import Cluster
from repro.ctl.checkpoint import (Checkpoint, QueueRecord, SessionRecord,
                                  encode_checkpoint)
from repro.ctl.errors import CtlError, CtlUnavailable, UnknownToolError
from repro.ctl.registry import RECIPES, LaunchSpec
from repro.ctl.store import CheckpointStore
from repro.fe.service import SessionHandle, ToolService
from repro.fe.session import LIVE_STATES, LMONSession, SessionState
from repro.rm.base import ResourceManager
from repro.simx import Interrupt

__all__ = ["ControlPlane", "CtlDaemon", "CtlSession", "DaemonState"]


class DaemonState(enum.Enum):
    STOPPED = "stopped"
    STARTING = "starting"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPING = "stopping"
    CRASHED = "crashed"


#: session states as recorded in a checkpoint. CREATED maps to "queued":
#: both mean "no daemon tree exists yet, resubmit on restore". Terminal
#: states are absent -- nothing to adopt, nothing to reap.
_CKPT_STATES = {
    SessionState.CREATED: "queued",
    SessionState.QUEUED: "queued",
    SessionState.SPAWNING: "spawning",
    SessionState.READY: "ready",
    SessionState.DEGRADED: "degraded",
    SessionState.MW_READY: "mw-ready",
}


class CtlSession:
    """Daemon-side record of one client-visible session (the "ticket").

    ``ctl_id`` is the client's stable name for the work: it survives
    daemon restarts, while :class:`~repro.fe.service.SessionHandle`
    objects are per-generation (``handle`` is None for a session adopted
    from a checkpoint -- its original operation finished or died in a
    previous generation).
    """

    def __init__(self, ctl_id: int, spec: LaunchSpec, submitted_at: float):
        self.ctl_id = ctl_id
        self.spec = spec
        self.submitted_at = submitted_at
        self.handle: Optional[SessionHandle] = None
        self.session: Optional[LMONSession] = None
        #: rebound to a surviving daemon tree by a restore: the session
        #: has no engine, so only the engine-free teardown can end it
        self.adopted = False
        #: re-submitted from a checkpoint record (no tree existed yet)
        self.resubmitted = False

    @property
    def state_name(self) -> str:
        if self.session is None:
            return "submitted"
        return self.session.state.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "A" if self.adopted else ("R" if self.resubmitted else "-")
        return (f"<CtlSession #{self.ctl_id} {self.spec.tool} "
                f"{self.state_name} [{flags}]>")


class CtlDaemon:
    """One generation of the control-plane daemon process."""

    def __init__(self, cluster: Cluster, rm: ResourceManager,
                 store: CheckpointStore, generation: int = 1,
                 max_in_flight: Optional[int] = None,
                 keep_warm: Optional[int] = 64):
        self.cluster = cluster
        self.rm = rm
        self.sim = cluster.sim
        self.store = store
        self.generation = generation
        self.service = ToolService(cluster, rm, max_in_flight=max_in_flight,
                                   keep_warm=keep_warm,
                                   name=f"ctl-g{generation}")
        self.state = DaemonState.STOPPED
        #: tickets by ctl id (insertion == submission/adoption order)
        self.sessions: Dict[int, CtlSession] = {}
        self._next_ctl_id = 1
        self.started_at: Optional[float] = None
        #: the restore's audit trail (None for a cold start)
        self.restore_report = None
        #: supervisor-spawned helper processes (drain/stop drivers) the
        #: crash must take down with the daemon
        self._aux_procs: list = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> dict:
        """Boot this generation; restore from the store if it has state."""
        if self.state is not DaemonState.STOPPED:
            raise CtlError(f"generation {self.generation} already started "
                           f"({self.state.value})")
        self.state = DaemonState.STARTING
        if not self.store.empty:
            from repro.ctl.restore import restore_from_store
            self.restore_report = restore_from_store(self)
        self.state = DaemonState.RUNNING
        self.started_at = self.sim.now
        self.checkpoint()
        return self.status()

    def submit(self, spec: LaunchSpec, ctl_id: Optional[int] = None,
               resubmitted: bool = False) -> CtlSession:
        """Admit one launch request; returns its ticket.

        Refused (:class:`CtlUnavailable`) unless the daemon is RUNNING --
        or STARTING, which is how the restore resubmits checkpointed
        requests before the daemon opens for new business.
        """
        if self.state not in (DaemonState.RUNNING, DaemonState.STARTING):
            raise CtlUnavailable(
                f"control plane is {self.state.value}; not admitting")
        try:
            recipe = RECIPES[spec.tool]
        except KeyError:
            raise UnknownToolError(
                f"no tool recipe {spec.tool!r} (known: {sorted(RECIPES)})")
        op_factory = recipe(spec)
        if ctl_id is None:
            ctl_id = self._next_ctl_id
        if ctl_id in self.sessions:
            raise CtlError(f"ctl id {ctl_id} already exists")
        self._next_ctl_id = max(self._next_ctl_id, ctl_id + 1)
        cs = CtlSession(ctl_id, spec, submitted_at=self.sim.now)
        cs.resubmitted = resubmitted
        handle = self.service.submit_op(op_factory,
                                        tool_name=f"ctl-{spec.tool}",
                                        op_name=f"ctl{ctl_id}:{spec.tool}")
        cs.handle = handle
        cs.session = handle.session
        self.sessions[ctl_id] = cs
        handle.session.register_status_cb(self._on_transition)
        self.checkpoint()
        return cs

    def get(self, ctl_id: int) -> CtlSession:
        try:
            return self.sessions[ctl_id]
        except KeyError:
            raise CtlError(f"no session with ctl id {ctl_id}")

    def end_session(self, ctl_id: int) -> Optional[SessionHandle]:
        """Tear a session down and release its resources.

        For a session this generation launched, the teardown is a chained
        ``detach(reclaim_job=True)`` operation (returns its handle). For
        an *adopted* session there is no engine to detach through: the
        teardown is the engine-free one of :mod:`repro.ctl.restore`, and
        it releases the session's allocations last first, as each release
        pumps the RM's FIFO queue (returns None, effective now).
        """
        cs = self.get(ctl_id)
        session = cs.session
        if session is None:
            raise CtlError(f"ctl{ctl_id} has no bound session yet")
        if cs.adopted:
            from repro.ctl.restore import teardown
            session.require_state(*LIVE_STATES)
            teardown(self.rm, session.job, session.owned_allocs[::-1], 0)
            session.owned_allocs.clear()
            session.state = SessionState.DETACHED
            return None
        return self.service.submit_chained(cs.handle, _detach_op,
                                           op_name=f"ctl{ctl_id}:end")

    def reload(self, max_in_flight: Any = "unset") -> dict:
        """Apply new configuration to the live daemon (no restart).

        Currently reloadable: ``max_in_flight`` (the admission gate is
        resized in place; queued admissions are granted immediately if
        the cap grew). The new value is checkpointed so it survives a
        later restart.
        """
        if self.state is not DaemonState.RUNNING:
            raise CtlUnavailable(
                f"control plane is {self.state.value}; cannot reload")
        if max_in_flight != "unset":
            self.service.set_max_in_flight(max_in_flight)
        self.checkpoint()
        return self.status()

    def drain(self):
        """Generator: stop admitting, let the queue empty, checkpoint, exit.

        New submissions are refused the instant draining begins; already
        admitted work -- including launches still waiting in the RM's
        FIFO allocation queue -- runs to completion. A handle withdrawn
        by ``cancel()`` while queued completes with an Interrupt and
        releases its gate and queue slots, so it cannot block the drain
        (see ``tests/ctl/test_drain_cancel.py``). Live READY trees are
        *not* torn down: they are checkpointed and the FE processes shut
        down, leaving them for the next generation to adopt (this is the
        rolling-upgrade path -- see docs/operations.md).
        """
        if self.state in (DaemonState.STOPPED, DaemonState.CRASHED):
            return self.status()
        self.state = DaemonState.DRAINING
        return (yield from self._settle_and_exit())

    def stop(self, drain: bool = True):
        """Generator: stop the daemon; with ``drain=False`` cancel
        in-flight work instead of waiting for it. Like a drain, a stop
        of a crashed generation does nothing: it is already dead."""
        if self.state in (DaemonState.STOPPED, DaemonState.CRASHED):
            return self.status()
        if drain:
            return (yield from self.drain())
        self.state = DaemonState.STOPPING
        self.service.cancel_all("control plane stopping")
        return (yield from self._settle_and_exit())

    def _settle_and_exit(self):
        """Generator: settle every operation, then checkpoint and end this
        generation's processes. The service's settle loop is stepped here
        so that a crash landing meanwhile ends the wait at once: a dead
        daemon writes no checkpoint."""
        for wait in self.service.settle():
            yield wait
            if self.state is DaemonState.CRASHED:
                return self.status()
        self._shutdown_processes()
        return self.status()

    def _shutdown_processes(self) -> None:
        """Final checkpoint, then end this generation's FE processes.

        Live sessions' engines die here too -- deliberately: their
        daemon trees keep running and the checkpoint just written is
        what lets the next generation adopt them engine-free.
        """
        self.state = DaemonState.STOPPING
        self.checkpoint()
        self.service.shutdown_idle()
        for fe in list(self.service.frontends.values()):
            fe.shutdown()
        self.state = DaemonState.STOPPED

    def crash(self) -> None:
        """Die as the OS would kill us: no checkpoint, no unwinding.

        See the module docstring for the per-state policy. The state is
        flipped to CRASHED *first* so the transition callbacks fired by
        the interrupts' unwinds do not write post-mortem checkpoints."""
        if self.state in (DaemonState.STOPPED, DaemonState.CRASHED):
            return
        self.state = DaemonState.CRASHED
        for handle in self.service.handles:
            if handle.done:
                continue
            if handle.session.state in (SessionState.CREATED,
                                        SessionState.QUEUED):
                # waiting for admission or nodes: freeze mid-suspension
                handle._proc.kill()
            elif handle.session.state in LIVE_STATES:
                # the tree is up and the attach is done; the op is only
                # doing daemon-side bookkeeping (placement distribution,
                # a chained teardown not yet started). Our death freezes
                # that bookkeeping -- it does not unwind processes on
                # remote nodes, so the tree stays adoptable
                handle._proc.kill()
            else:
                # mid-spawn: the RM aborts the job its dead launcher was
                # driving; the unwind is that abort
                handle.cancel("control-plane crash")
        for proc in self._aux_procs:
            if proc.is_alive:
                proc.defuse()
                proc.kill()
        for fe in list(self.service.frontends.values()):
            fe.shutdown()

    # -- checkpointing -------------------------------------------------------

    def _on_transition(self, session: LMONSession, old: SessionState,
                       new: SessionState) -> None:
        # suppress during restore (STARTING writes once at the end) and
        # after death (a crashed daemon cannot write its own epitaph)
        if self.state in (DaemonState.RUNNING, DaemonState.DRAINING):
            self.checkpoint()

    def build_checkpoint(self) -> Checkpoint:
        records = []
        for ctl_id in sorted(self.sessions):
            cs = self.sessions[ctl_id]
            session = cs.session
            if session is None:
                continue
            state = _CKPT_STATES.get(session.state)
            if state is None:
                continue  # terminal: nothing for a successor to do
            job = session.job
            records.append(SessionRecord(
                ctl_id=cs.ctl_id,
                tool_name=session.tool_name,
                tool=cs.spec.tool,
                n_nodes=cs.spec.n_nodes,
                params=cs.spec.params,
                state=state,
                session_id=session.id,
                jobid=job.jobid if job is not None else 0,
                alloc_ids=tuple(a.alloc_id for a in session.owned_allocs),
                has_overlay=session.overlay is not None,
                submitted_at=cs.submitted_at,
            ))
        queue = tuple(QueueRecord(n_nodes=n, t_req=t)
                      for n, t in self.rm.queued_request_sizes())
        return Checkpoint(
            generation=self.generation,
            next_ctl_id=self._next_ctl_id,
            max_in_flight=self.service.max_in_flight,
            written_at=self.sim.now,
            sessions=tuple(records),
            alloc_queue=queue,
            blacklist=tuple(sorted(self.rm.node_blacklist)),
        )

    def checkpoint(self) -> Checkpoint:
        """Serialize current state into the store; returns the snapshot."""
        cp = self.build_checkpoint()
        self.store.write(encode_checkpoint(cp))
        return cp

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        by_state: Dict[str, int] = {}
        adopted = 0
        for cs in self.sessions.values():
            name = cs.state_name
            by_state[name] = by_state.get(name, 0) + 1
            if cs.adopted:
                adopted += 1
        return {
            "state": self.state.value,
            "generation": self.generation,
            "started_at": self.started_at,
            "sessions": len(self.sessions),
            "by_state": by_state,
            "adopted": adopted,
            "in_flight": self.service.in_flight,
            "pending_admissions": self.service.pending_admissions,
            "queued_allocs": self.rm.queued_requests,
            "max_in_flight": self.service.max_in_flight,
            "checkpoint_writes": self.store.writes,
        }


def _detach_op(fe, session):
    """Chained teardown op: detach + reclaim through the live engine."""
    session.require_state(*LIVE_STATES)
    yield from fe.detach(session, reclaim_job=True)


class ControlPlane:
    """Supervisor: durable store + the current daemon generation, and
    the operator (``cmd_*``) and session verbs clients address."""

    def __init__(self, cluster: Cluster, rm: ResourceManager,
                 max_in_flight: Optional[int] = None,
                 keep_warm: Optional[int] = 64):
        self.cluster = cluster
        self.rm = rm
        self.sim = cluster.sim
        self.store = CheckpointStore()
        #: configuration of record -- what the next generation boots with;
        #: ``cmd_reload`` updates it alongside the live daemon
        self.max_in_flight = max_in_flight
        self.keep_warm = keep_warm
        self.generation = 0
        self.daemon: Optional[CtlDaemon] = None
        self.restarts = 0

    @property
    def running(self) -> bool:
        return self.daemon is not None and self.daemon.state in (
            DaemonState.STARTING, DaemonState.RUNNING, DaemonState.DRAINING)

    def cmd_start(self) -> dict:
        """Ensure the daemon runs (idempotent).

        A second start against a live daemon is a no-op that reports the
        running instance -- it does *not* spawn a rival generation."""
        if self.running:
            st = self.daemon.status()
            st["started"] = False
            st["already_running"] = True
            return st
        self.generation += 1
        if self.generation > 1:
            self.restarts += 1
        self.daemon = CtlDaemon(self.cluster, self.rm, self.store,
                                generation=self.generation,
                                max_in_flight=self.max_in_flight,
                                keep_warm=self.keep_warm)
        st = self.daemon.start()
        st["started"] = True
        st["already_running"] = False
        return st

    def cmd_status(self) -> dict:
        """Probe without starting (the ``status`` verb never boots)."""
        if self.daemon is None:
            return {"state": DaemonState.STOPPED.value,
                    "generation": self.generation, "sessions": 0,
                    "has_checkpoint": not self.store.empty}
        return self.daemon.status()

    def cmd_reload(self, max_in_flight: Any = "unset") -> dict:
        if not self.running:
            raise CtlUnavailable("control plane is not running; cannot "
                                 "reload (start it first)")
        st = self.daemon.reload(max_in_flight=max_in_flight)
        if max_in_flight != "unset":
            self.max_in_flight = max_in_flight
        return st

    def cmd_stop(self, drain: bool = True):
        """Generator: stop the current generation (drains by default)."""
        if self.daemon is None:
            return self.cmd_status()
        result = yield from self.daemon.stop(drain=drain)
        return result

    # -- session verbs -------------------------------------------------------

    def _daemon(self, *states: DaemonState) -> CtlDaemon:
        """The current generation, if it is in one of ``states``
        (default: RUNNING); otherwise :class:`CtlUnavailable`."""
        daemon = self.daemon
        allowed = states or (DaemonState.RUNNING,)
        if daemon is None or daemon.state not in allowed:
            have = "down" if daemon is None else daemon.state.value
            raise CtlUnavailable(f"control plane is {have}; retry later")
        return daemon

    def launch(self, tool: str, n_nodes: int, **params: Any) -> int:
        """Submit a launch; returns its restart-stable ctl id."""
        spec = LaunchSpec(tool, n_nodes, tuple(sorted(params.items())))
        return self._daemon().submit(spec).ctl_id

    def session(self, ctl_id: int) -> CtlSession:
        """The ticket, from a running, draining or stopped generation
        (not from a crashed one)."""
        return self._daemon(DaemonState.RUNNING, DaemonState.DRAINING,
                            DaemonState.STOPPING,
                            DaemonState.STOPPED).get(ctl_id)

    def info(self, ctl_id: int) -> dict:
        cs = self.session(ctl_id)
        return {
            "ctl_id": cs.ctl_id,
            "tool": cs.spec.tool,
            "n_nodes": cs.spec.n_nodes,
            "state": cs.state_name,
            "adopted": cs.adopted,
            "resubmitted": cs.resubmitted,
            "submitted_at": cs.submitted_at,
        }

    def wait(self, ctl_id: int):
        """Generator: wait until the ticket's current operation settles;
        returns the session's state name (an adopted session is already
        settled)."""
        cs = self.session(ctl_id)
        if cs.handle is not None:
            yield from cs.handle.settle()
        return cs.state_name

    def cancel(self, ctl_id: int) -> bool:
        """Withdraw an in-flight operation (False for finished/adopted)."""
        cs = self._daemon(DaemonState.RUNNING,
                          DaemonState.DRAINING).get(ctl_id)
        return cs.handle is not None and cs.handle.cancel(
            f"ctl{ctl_id} cancelled")

    def open_stream(self, ctl_id: int, **kwargs: Any):
        """The data-plane face: open/reattach a persistent stream over
        the session's overlay (works on adopted sessions -- that is the
        point)."""
        cs = self.session(ctl_id)
        if cs.session is None:
            raise CtlError(f"ctl{ctl_id} has no bound session yet")
        return cs.session.open_stream(**kwargs)

    def end(self, ctl_id: int):
        """Generator: tear the session down and wait for the teardown.

        Cancellation of the teardown op surfaces as False; success as
        True (an adopted session's teardown is synchronous)."""
        daemon = self._daemon(DaemonState.RUNNING, DaemonState.DRAINING)
        handle = daemon.end_session(ctl_id)
        if handle is None:
            return True
        yield from handle.settle()
        exc = handle.exception
        if exc is None:
            return True
        if isinstance(exc, Interrupt):
            return False
        raise exc

    def stop_async(self, drain: bool = True):
        """Spawn ``cmd_stop`` as a sim process (registered with the daemon
        so a crash takes the stop driver down too); returns the process."""
        proc = self.sim.process(self.cmd_stop(drain=drain),
                                name=f"ctl-stop-g{self.generation}")
        if self.daemon is not None:
            self.daemon._aux_procs.append(proc)
        return proc

    def crash(self) -> None:
        """The OS kills the daemon process group (simulated SIGKILL)."""
        if self.daemon is not None:
            self.daemon.crash()
