"""Session descriptors: the FE API's binding abstraction.

A session groups one set of daemons with one job (Section 3.2): most FE
procedures take a session handle, and the front-end runtime keeps a session
resource descriptor table mapping handles to state.

The session state machine
-------------------------
Every session moves through :class:`SessionState` along these edges::

                 launch/attach submitted        nodes granted
      CREATED ------------------------> QUEUED ---------------+
         |                                                     |
         |  attach_and_spawn (no allocation wait)              v
         +--------------------------------------------------> SPAWNING
                                                               |
                            daemons ready (e11)   +------------+
                                                  v            v
                                               READY        DEGRADED
                                                  |            |
                                  +---------------+     +------+
                 launch_mw_daemons|               |     |      |
                                  v               |     |      |
                              MW_READY <----------|-----+      |
                                  |               |            |
                                  +---------------+------------+
                                                  |
                                      detach()    |    kill()
                                                  v
                                        DETACHED  /  KILLED  (terminal)

A launch or attach that raises moves the session to ``FAILED`` (terminal)
after its resources are reclaimed, so status-callback listeners always see
a terminal transition -- dead sessions do not linger as ``SPAWNING``.

``DEGRADED`` is READY's partial-success sibling, reachable only when the
resource manager runs under a :class:`~repro.launch.LaunchPolicy`: the
daemon set came up incomplete but met the policy's ``min_daemon_fraction``,
so the session is usable -- ``session.launch_report`` attributes exactly
which daemon indices failed, were retried, or had their nodes blacklisted.
Below the fraction the launch raises instead and the session lands in
``FAILED`` with its nodes reclaimed. A DEGRADED session supports the same
operations as a READY one (detach, kill, MW launch, data transfer over the
surviving daemons).

``QUEUED`` is entered while a launch waits on the resource manager's FIFO
allocation queue (:meth:`~repro.rm.base.ResourceManager.allocate_async`);
on an idle cluster the QUEUED -> SPAWNING transition happens at the same
virtual instant, but under multi-tenant contention (see
:mod:`repro.fe.service`) a session can spend most of its latency here.
``launch_mw_daemons`` also passes through ``QUEUED`` while waiting for
middleware nodes, returning to its entry state (READY / MW_READY) once
they are granted.

Status callbacks
----------------
Mirroring ``LMON_fe_regStatusCB``, any number of callbacks can be attached
with :meth:`LMONSession.register_status_cb`; each is invoked synchronously
as ``cb(session, old_state, new_state)`` on *every* state transition, in
registration order, at the virtual time the transition happens. Callbacks
must not block (they are plain functions, not generators) -- use them to
record timestamps, wake waiters, or drive external bookkeeping, exactly as
LaunchMON tools use the status-callback hook for responsiveness instead of
polling.

A restarted control plane (:mod:`repro.ctl.restore`) may rebind a fresh
session to a daemon tree that outlived the engine that launched it. Such
a session has no engine and no LMONP streams, so it supports overlay
streaming and the control plane's engine-free teardown, not
``send_usrdata_be``/``kill``; the control plane's own ticket
(:class:`~repro.ctl.daemon.CtlSession`) records the adoption.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional

from repro.engine.timeline import ComponentTimes, LaunchTimeline

__all__ = ["LIVE_STATES", "LMONSession", "SessionState", "StatusCallback",
           "TERMINAL_STATES"]


class SessionState(enum.Enum):
    CREATED = "created"
    QUEUED = "queued"
    SPAWNING = "spawning"
    READY = "ready"
    #: partial daemon set accepted under a min_daemon_fraction policy
    DEGRADED = "degraded"
    MW_READY = "mw-ready"
    DETACHED = "detached"
    KILLED = "killed"
    FAILED = "failed"


#: states in which a session holds a usable daemon set
LIVE_STATES = (SessionState.READY, SessionState.DEGRADED,
               SessionState.MW_READY)
#: states in which a session needs nothing further from its front end
TERMINAL_STATES = (SessionState.DETACHED, SessionState.KILLED,
                   SessionState.FAILED)


#: signature of a status callback: ``cb(session, old_state, new_state)``
StatusCallback = Callable[["LMONSession", SessionState, SessionState], None]


class LMONSession:
    """One tool session: a job, its daemon set(s), streams and timings."""

    _ids = itertools.count(1)

    def __init__(self, tool_name: str = "tool"):
        self.id = next(LMONSession._ids)
        self.tool_name = tool_name
        #: shared secret from which LMONP security tokens derive
        self.key = f"{tool_name}-session-{self.id}"
        self._state = SessionState.CREATED
        #: ``LMON_fe_regStatusCB`` equivalents, fired on every transition
        self._status_cbs: list[StatusCallback] = []
        # bound objects (populated by launch/attach/spawn)
        self.job = None
        self.daemons: list = []
        self.fabric = None
        self.mw_daemons: list = []
        #: every MW daemon ever spawned for this session (repeat
        #: ``launch_mw_daemons`` calls replace ``mw_daemons`` -- the
        #: *current* set -- but reclaim must be able to end them all)
        self.all_mw_daemons: list = []
        self.mw_fabric = None
        self.rpdtab = None
        self.engine = None
        self.be_stream = None
        self.mw_stream = None
        #: the session's TBON overlay, attached by a startup path
        #: (e.g. :func:`~repro.tbon.launchmon_startup`); enables
        #: :meth:`open_stream`
        self.overlay = None
        #: the comm daemons' :class:`~repro.mw.Middleware` runtimes,
        #: overlay-attached by the startup path (MW stream face:
        #: ``stream_subscribe`` taps / ``stream_state``)
        self.mw_runtimes: list = []
        #: allocations this session obtained itself (returned on detach/kill)
        self.owned_allocs: list = []
        # data-transfer registration (jsonable-structure transforms)
        self.pack_fe_to_be: Optional[Callable[[Any], Any]] = None
        self.unpack_be_to_fe: Optional[Callable[[Any], Any]] = None
        self.pack_fe_to_mw: Optional[Callable[[Any], Any]] = None
        self.unpack_mw_to_fe: Optional[Callable[[Any], Any]] = None
        # measurements
        self.timeline = LaunchTimeline()
        self.times = ComponentTimes()
        #: the RM's daemon-spawn breakdown for this session's launch
        #: (a :class:`repro.launch.LaunchReport`), set at bind time: the
        #: per-phase attribution (t_spawn / t_image_stage / t_topo_dist /
        #: t_connect / t_handshake / t_repair) plus, under a resilient
        #: LaunchPolicy, the per-index failure attribution (outcomes,
        #: retries, blacklisted nodes) behind a DEGRADED state
        self.launch_report = None

    # -- state machine -------------------------------------------------------
    @property
    def state(self) -> SessionState:
        return self._state

    @state.setter
    def state(self, new: SessionState) -> None:
        old = self._state
        if new is old:
            return
        self._state = new
        for cb in list(self._status_cbs):
            cb(self, old, new)

    def register_status_cb(self, cb: StatusCallback) -> None:
        """``LMON_fe_regStatusCB``: call ``cb(session, old, new)`` on every
        state transition, synchronously, in registration order."""
        self._status_cbs.append(cb)

    # -- streaming data plane ----------------------------------------------
    def open_stream(self, stream_id: Optional[int] = None,
                    filter_name: str = "concat", credit_limit: int = 0,
                    window: int = 0, **filter_params: Any):
        """Open a persistent, flow-controlled stream over the session's
        TBON (front-end handle of the data plane).

        Requires a usable daemon set (READY / DEGRADED / MW_READY) and an
        attached overlay (:func:`~repro.tbon.launchmon_startup` attaches
        one). Returns the shared :class:`~repro.tbon.Stream` -- idempotent
        per id, so daemons that already opened the same spec hand back the
        same object. ``stream_id=None`` allocates the next free id.
        Streams keep delivering from a DEGRADED session: the surviving
        leaves are the publishers.
        """
        from repro.tbon.overlay import StreamSpec

        self.require_state(*LIVE_STATES)
        if self.overlay is None:
            raise RuntimeError(
                f"session {self.id} has no TBON overlay attached "
                f"(start one with launchmon_startup)")
        if stream_id is None:
            stream_id = self.overlay.next_stream_id()
        spec = StreamSpec(
            stream_id, filter_name, credit_limit=credit_limit,
            window=window,
            filter_params=tuple(sorted(filter_params.items())))
        return self.overlay.open_stream(spec)

    def unregister_status_cb(self, cb: StatusCallback) -> None:
        """Remove a previously registered status callback."""
        self._status_cbs.remove(cb)

    @property
    def n_daemons(self) -> int:
        return len(self.daemons)

    def require_state(self, *allowed: SessionState) -> None:
        if self._state not in allowed:
            raise RuntimeError(
                f"session {self.id} in state {self._state.value}, needs one "
                f"of {[s.value for s in allowed]}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LMONSession {self.id} [{self.tool_name}] {self._state.value} "
                f"daemons={self.n_daemons}>")
