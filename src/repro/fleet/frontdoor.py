"""The fleet front door: admission, placement, and cross-cluster failover.

One :class:`FleetFrontDoor` fronts every member cluster. A submission
returns a :class:`FleetHandle` immediately (the fleet-level analogue of
:class:`~repro.fe.service.SessionHandle`, on the same
:class:`~repro.fe.service.OperationCore` lifecycle as a member's
ToolService: one registration, gate, drain and outcome count); behind it
a supervisor process

1. acquires the **fleet-wide admission gate** (``max_in_flight``) -- the
   stampede guard in front of every cluster, on top of each member
   ToolService's own gate;
2. places the request on the least-loaded member
   (:func:`~repro.fleet.placement.least_loaded`), *reading only the
   door's gossiped view*; a member the view says is saturated or
   DEGRADED is taken only when every candidate is (this is what
   "failover when a cluster is saturated or DEGRADED" means at the
   routing tier -- load failover before anything has been launched);
3. submits to the member and waits. A dead member -- refusing the
   submission with :class:`~repro.fleet.member.ClusterUnavailable`, or
   killing the session mid-launch -- is marked DOWN in the door's view
   (direct evidence, stronger than waiting out gossip suspicion) and the
   request **fails over** to the next choice, excluding every cluster
   already tried;
4. gives up with :class:`FleetUnavailable` only when no routable member
   remains -- fleet-wide rejection, the admission-control backstop.

The door is also a gossip observer: it peers with each shard head (one
link per shard, s_group style) and drives mesh rounds from a lazy
background process that runs only while handles are in flight -- an idle
fleet's simulation still terminates.

**Partition tolerance** runs in every fleet; the mesh's
:class:`~repro.cluster.netfaults.NetFaultInjector` decides what the network
does (under the empty plan every member is reachable, so only crashes
drive the quorum rule and fencing):

* **Quorum rule.** The door holds a *majority view* when its gossiped
  view shows more than half the fleet routable. In a minority view it
  degrades to **reject-or-local**: it only routes to members on its own
  side of the split (data-path probe), and it never abandons/re-places
  an in-flight request -- the other side may still be serving it.
* **Epoch fencing.** Every attempt carries a
  :class:`~repro.fleet.member.FenceToken` ``(request, epoch)``. When the
  door (holding quorum) gives up on an unreachable member, it bumps the
  epoch, queues a fence for the old member, and only then re-places --
  so a healed minority member can never complete a launch the majority
  already re-placed: the fence kills the stale session on delivery, and
  a delayed duplicate submission is refused with ``StaleEpoch``.
* **Circuit breakers + failover budget.** Per-member consecutive-failure
  breakers take flapping members out of placement for a cooldown, and
  ``max_failovers`` caps each request's detours -- a storm becomes a
  bounded, audited rejection instead of an unbounded retry loop.
* **Anti-entropy on heal.** The gossip driver keeps running rounds after
  the last handle finishes until every queued fence is delivered (or its
  target crashed), bounded by the fault plan's heal horizon plus the
  mesh's convergence bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Set

from repro.fe.service import OperationCore, ProcessFuture, SessionHandle
from repro.fe.session import LMONSession
from repro.fleet.gossip import GossipMesh
from repro.fleet.health import ClusterState, FleetView
from dataclasses import replace
from repro.fleet.member import (
    ClusterUnavailable,
    FenceToken,
    FleetCluster,
    StaleEpoch,
)
from repro.fleet.placement import least_loaded
from repro.rm import RMError
from repro.simx import Interrupt, Simulator

__all__ = ["FleetFrontDoor", "FleetHandle", "FleetUnavailable"]


class FleetUnavailable(RuntimeError):
    """No routable cluster left for a request: fleet-wide rejection."""


class _Abandon:
    """Interrupt cause: the door fenced this attempt and wants the
    supervisor to re-place the request (not a client cancel)."""

    def __init__(self, target: str):
        self.target = target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<abandon {self.target}>"


class FleetHandle(ProcessFuture):
    """Future for one fleet submission, across however many failovers.

    ``attempts`` records every member tried, in order; ``failovers`` is
    ``len(attempts) - 1`` for a request that eventually landed.
    ``launch_latency`` is client-visible: *fleet* submit time to the
    winning session's READY/DEGRADED mark -- admission wait, placement
    and failover detours included, which is exactly why the fleet
    experiment reports it. ``result()`` is the served session, or raises
    the terminal failure (:class:`FleetUnavailable` on rejection).
    ``cancel()`` interrupts the supervisor, which propagates the cancel to
    whichever member session is in flight.
    """

    def __init__(self, sim: Simulator, handle_id: int, tool_name: str,
                 n_nodes: int):
        super().__init__(sim, handle_id)
        #: the tool this request launches (each attempt's session name,
        #: and the request's name in rejection messages)
        self.tool_name = tool_name
        #: nodes the request's app needs (charged by ``_note_routed``)
        self.n_nodes = n_nodes
        #: member names tried, in order (last one served, if any succeeded)
        self.attempts: List[str] = []
        #: placement epoch; bumped by the door on every fenced re-place
        self.epoch = 0
        #: attempts the door fenced: (member, fenced_to_epoch, at_time)
        self.fenced_attempts: List[tuple] = []
        #: sessions left behind on abandoned members (fence kills them)
        self.abandoned_sessions: List[SessionHandle] = []
        #: the current (finally: winning or last-tried) member session
        self.session_handle: Optional[SessionHandle] = None
        #: member currently being attempted (None between attempts)
        self._attempt_target: Optional[str] = None

    @property
    def cluster(self) -> Optional[str]:
        """The member that (last) served this request."""
        return self.attempts[-1] if self.attempts else None

    @property
    def failovers(self) -> int:
        return max(0, len(self.attempts) - 1)

    def _launch_marks(self) -> Optional[dict]:
        sub = self.session_handle
        return None if sub is None else sub.state_times

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "done" if self.done else "in-flight"
        return (f"<FleetHandle {self.id} tool={self.tool_name!r} "
                f"attempts={self.attempts} {status}>")


class FleetFrontDoor(OperationCore):
    """Route sessions across member clusters; fail over; admit fleet-wide.

    ``mesh`` is the fleet's gossip overlay; the door attaches itself as
    an observer and drives rounds every ``gossip_period`` of virtual time
    while requests are in flight.

    A rejection (:class:`FleetUnavailable`) is an expected outcome, like a
    cancel: :meth:`drain` skips it and :meth:`summary` counts it as
    ``rejected``, not ``failed``.
    """

    expected = (Interrupt, FleetUnavailable)

    def __init__(self, members: Sequence[FleetCluster], mesh: GossipMesh,
                 max_in_flight: Optional[int] = None,
                 gossip_period: float = 0.25,
                 name: str = "frontdoor",
                 max_failovers: Optional[int] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 5.0,
                 abandon_after: Optional[float] = None):
        if not members:
            raise ValueError("a fleet needs at least one member cluster")
        super().__init__(members[0].sim, name, max_in_flight)
        self._members: Dict[str, FleetCluster] = {}
        for member in members:
            if member.sim is not self.sim:
                raise ValueError(
                    f"member {member.name} lives on a different simulator")
            if member.name in self._members:
                raise ValueError(f"duplicate member name {member.name!r}")
            self._members[member.name] = member
        self.mesh = mesh
        self.gossip_period = gossip_period
        #: the door's own gossiped picture of the fleet, seeded from each
        #: member's registration record (deploy-time config, not gossip)
        self.view = FleetView()
        for member in members:
            reg = member.view.get(member.name)
            if reg is not None:
                self.view.put(reg)
        mesh.attach_observer(self)
        #: rejections issued while the door held only a minority view
        self.minority_rejections = 0
        #: failover budget per request (None: unlimited, PR 9 behavior)
        self.max_failovers = max_failovers
        #: consecutive failed attempts that trip a member's breaker
        self.breaker_threshold = breaker_threshold
        #: virtual seconds a tripped breaker keeps its member excluded
        self.breaker_cooldown = breaker_cooldown
        #: how long a member must look DOWN before an in-flight attempt
        #: on it is fenced and re-placed (defaults to 2 gossip periods)
        self.abandon_after = (abandon_after if abandon_after is not None
                              else 2.0 * gossip_period)
        #: member -> [consecutive_failures, open_until]
        self._breakers: Dict[str, List[float]] = {}
        #: queued fences awaiting a reachable target: (member, req, epoch)
        self._pending_fences: List[tuple] = []
        #: (handle_id, member) -> time the attempt's target first looked
        #: DOWN in the door's view (abandonment grace clock)
        self._suspect_since: Dict[tuple, float] = {}
        #: handle id -> in-flight handle (reconciliation work list)
        self._inflight: Dict[int, FleetHandle] = {}
        #: member -> attempt/fencing counters (``summary()['per_member']``)
        self._member_stats: Dict[str, Dict[str, int]] = {
            name: {"served": 0, "failed_attempts": 0, "refusals": 0,
                   "breaker_trips": 0, "fenced": 0}
            for name in sorted(self._members)}
        self._gossip_proc = None
        #: length of the done prefix of ``handles`` (a done handle never
        #: reverts, so the gossip driver's scan resumes here)
        self._done_prefix = 0
        #: door-local bookkeeping of requests routed but not yet finished,
        #: per member: (count, nodes). Gossip only refreshes every period,
        #: so without this overlay a burst of same-instant submissions
        #: would all read the same stale record and pile onto one cluster
        #: -- classic least-outstanding-requests balancing fixes that with
        #: knowledge the door honestly has (its own routing decisions).
        self._outstanding: Dict[str, List[int]] = {}

    # -- submission ----------------------------------------------------------
    def submit_launch(self, app, daemon_spec, usr_data: Any = None,
                      tool_name: str = "tool",
                      body: Optional[Callable[..., Generator]] = None,
                      ) -> FleetHandle:
        """Non-blocking fleet launch; returns a handle immediately.

        Arguments mirror :meth:`~repro.fe.service.ToolService.submit_launch`
        -- existing service sessions route through unchanged.
        """
        handle = FleetHandle(self.sim, len(self.handles), tool_name,
                             app.nodes_needed())
        self._start(handle, self._supervise(handle, app, daemon_spec,
                                            usr_data, body),
                    name=f"{self.name}:req{handle.id}")
        self._ensure_gossip_driver()
        return handle

    # -- placement -----------------------------------------------------------
    def _note_routed(self, target: str, n_nodes: int) -> None:
        entry = self._outstanding.get(target)
        if entry is None:
            entry = self._outstanding[target] = [0, 0]
        entry[0] += 1
        entry[1] += n_nodes

    def _note_finished(self, target: str, n_nodes: int) -> None:
        entry = self._outstanding[target]
        entry[0] -= 1
        entry[1] -= n_nodes

    # -- partition-tolerance state -------------------------------------------
    @property
    def quorum(self) -> int:
        """Majority threshold: more than half the member fleet."""
        return len(self._members) // 2 + 1

    def has_quorum(self) -> bool:
        """Whether the door's view shows a routable majority. A minority
        door degrades to reject-or-local and never fences/re-places."""
        routable = sum(1 for rec in self.view.records() if rec.routable)
        return routable >= self.quorum

    def _reachable(self, member: str) -> bool:
        """Data-path probe door -> member under the current round's
        network topology."""
        return self.mesh.data_path_open(self.name, member)

    def _breaker_open(self, member: str) -> bool:
        entry = self._breakers.get(member)
        return entry is not None and self.sim.now < entry[1]

    def _breaker_failure(self, member: str) -> None:
        entry = self._breakers.get(member)
        if entry is None:
            entry = self._breakers[member] = [0, 0.0]
        entry[0] += 1
        if entry[0] >= self.breaker_threshold:
            entry[0] = 0
            entry[1] = self.sim.now + self.breaker_cooldown
            self._member_stats[member]["breaker_trips"] += 1

    def _attempt_failed(self, target: str, tried: Set[str], stat: str,
                        down: bool = False, breaker: bool = True) -> None:
        """Mark ``target`` down, count toward its breaker, bump its
        ``stat`` counter and exclude it from this request, in order."""
        if down:
            self.view.mark_down(target)
        if breaker:
            self._breaker_failure(target)
        self._member_stats[target][stat] += 1
        tried.add(target)

    def _breaker_success(self, member: str) -> None:
        entry = self._breakers.get(member)
        if entry is not None:
            entry[0] = 0

    def effective_view(self) -> FleetView:
        """The gossiped view with the door's own outstanding requests
        charged on top: each member's record loses the nodes the door has
        routed at it but not yet seen finish, and gains their in-flight
        count. Placement reads this, so a same-instant burst spreads
        instead of piling onto whichever member gossip last flattered."""
        view = FleetView()
        for rec in self.view.records():
            count, nodes = self._outstanding.get(rec.cluster, (0, 0))
            if count:
                rec = replace(rec, n_free=max(0, rec.n_free - nodes),
                              in_flight=rec.in_flight + count)
            view.put(rec)
        return view

    def _place(self, tried: Set[str]) -> Optional[str]:
        """One placement decision against the current view: the
        least-loaded member outside ``tried``, shunned (saturated or
        DEGRADED) only when every candidate is.

        Two partition-tolerance overlays narrow the candidate set:
        members behind an open circuit breaker are excluded while any
        alternative exists (half-open fallback: if *every* candidate is
        breaker-open, breakers are ignored -- bounded flap damping must
        never cause a total outage the fleet could serve); and a door
        holding only a minority view is **local-only**: members it
        cannot reach on the data path are not candidates at all.
        """
        view = self.effective_view()
        tripped: Set[str] = {name for name in self._members
                             if self._breaker_open(name)}
        unreachable: Set[str] = set()
        if not self.has_quorum():
            unreachable = {name for name in self._members
                           if not self._reachable(name)}
        base = tried | unreachable
        choice = least_loaded(view, base | tripped)
        if choice is None and tripped - tried:
            # half-open fallback: drop only the breaker exclusions (the
            # minority door's local-only rule is safety, not damping)
            choice = least_loaded(view, base)
        return choice

    # -- the per-request supervisor ------------------------------------------
    def _supervise(self, handle: FleetHandle, app, daemon_spec,
                   usr_data: Any, body: Optional[Callable[..., Generator]],
                   ) -> Generator[Any, Any, LMONSession]:
        yield from self._admit()
        self._inflight[handle.id] = handle
        try:
            tried: Set[str] = set()
            while True:
                if (self.max_failovers is not None
                        and len(handle.attempts) > self.max_failovers):
                    # failover budget spent: bounded rejection, not a storm
                    raise FleetUnavailable(
                        f"failover budget exhausted for request "
                        f"{handle.tool_name!r} "
                        f"({self.max_failovers} after {handle.attempts})")
                target = self._place(tried)
                if target is None:
                    if not self.has_quorum():
                        self.minority_rejections += 1
                    raise FleetUnavailable(
                        f"no routable cluster for request "
                        f"{handle.tool_name!r} (tried {sorted(tried)})")
                handle.attempts.append(target)
                member = self._members[target]
                if not self._reachable(target):
                    # connect probe fails: partitioned off, same direct
                    # evidence as a refused submission
                    self._attempt_failed(target, tried, "refusals", down=True)
                    continue
                try:
                    sub = member.submit_launch(
                        app, daemon_spec, usr_data=usr_data,
                        tool_name=handle.tool_name, body=body,
                        fence_token=FenceToken(handle.id, handle.epoch))
                except StaleEpoch:
                    # a fence outran this attempt; the member is healthy,
                    # this epoch just must not start there
                    self._attempt_failed(target, tried, "refusals",
                                         breaker=False)
                    continue
                except ClusterUnavailable:
                    # dead on contact: direct evidence beats gossip
                    self._attempt_failed(target, tried, "refusals", down=True)
                    continue
                handle.session_handle = sub
                handle._attempt_target = target
                self._note_routed(target, handle.n_nodes)
                try:
                    session = yield from sub.wait()
                except BaseException as exc:
                    if (isinstance(exc, Interrupt) and
                            isinstance(getattr(exc, "cause", None),
                                       _Abandon)):
                        # the door fenced this attempt (target looks DOWN
                        # past the grace window): leave the stale session
                        # to the fence and re-place the request
                        handle.abandoned_sessions.append(sub)
                        self._attempt_failed(target, tried, "failed_attempts")
                        continue
                    if not (sub.done and sub.exception is exc):
                        # the *supervisor* was interrupted (fleet-level
                        # cancel): take the live session down with it
                        sub.cancel(reason="fleet request cancelled")
                        raise
                    if not (member.crashed or isinstance(exc, RMError)):
                        raise  # tool-level failure: failover would not help
                    # the member died under this session (direct evidence
                    # it is down), or a cluster-level resource refusal
                    self._attempt_failed(target, tried, "failed_attempts",
                                         down=member.crashed)
                    continue
                finally:
                    handle._attempt_target = None
                    self._note_finished(target, handle.n_nodes)
                self._breaker_success(target)
                self._member_stats[target]["served"] += 1
                return session
        finally:
            del self._inflight[handle.id]
            self._release()

    # -- gossip driving ------------------------------------------------------
    def _ensure_gossip_driver(self) -> None:
        if self._gossip_proc is not None and not self._gossip_proc.triggered:
            return
        self._gossip_proc = self.sim.process(
            self._gossip_driver(), name=f"{self.name}-gossip")

    def _gossip_driver(self) -> Generator[Any, Any, None]:
        """Run mesh rounds while any request is in flight; exit when the
        door goes quiescent (so ``sim.run()`` terminates).

        Each round is followed by a reconciliation pass, and the driver
        outlives the last handle while fences are still queued -- bounded
        by the plan's heal horizon plus the mesh's convergence bound, so a
        never-healing plan cannot wedge the run.
        """
        while self._driver_active():
            yield self.sim.timeout(self.gossip_period)
            self.mesh.run_round()
            self.reconcile()

    def _driver_active(self) -> bool:
        handles = self.handles
        i = self._done_prefix
        while i < len(handles) and handles[i].done:
            i += 1
        self._done_prefix = i
        if i < len(handles):
            return True
        if not self._pending_fences:
            return False
        nf = self.mesh.netfaults
        limit = (nf.last_heal_round + self.mesh.suspect_rounds
                 + self.mesh.diameter() + 2)
        return self.mesh.rounds_run < limit

    # -- anti-entropy reconciliation ------------------------------------------
    def reconcile(self) -> None:
        """Post-round anti-entropy: deliver queued fences to reachable
        members, then fence + re-place in-flight attempts whose target
        the (majority) view has held DOWN past the grace window. The
        gossip driver runs it after every round; harnesses that drive
        mesh rounds by hand call it themselves."""
        self._deliver_fences()
        now = self.sim.now
        fresh: Dict[tuple, float] = {}
        for hid in sorted(self._inflight):
            handle = self._inflight[hid]
            target = handle._attempt_target
            if target is None:
                continue
            rec = self.view.get(target)
            if rec is None or rec.state is not ClusterState.DOWN:
                continue  # looks alive again: the suspicion clock resets
            key = (hid, target)
            since = self._suspect_since.get(key, now)
            fresh[key] = since
            if now - since < self.abandon_after:
                continue
            if not self.has_quorum():
                continue  # minority door never re-places (split brain)
            sub = handle.session_handle
            if sub is not None and sub.done:
                continue  # already resolved; the supervisor runs next
            # fence-before-re-place: bump the epoch and queue the fence
            # for the stale member, only then release the supervisor --
            # the old attempt can never outrank the new epoch
            handle.epoch += 1
            self._pending_fences.append((target, handle.id, handle.epoch))
            handle.fenced_attempts.append((target, handle.epoch, now))
            self._member_stats[target]["fenced"] += 1
            del fresh[key]
            handle._proc.interrupt(_Abandon(target))
        self._suspect_since = fresh

    def _deliver_fences(self) -> None:
        if not self._pending_fences:
            return
        keep: List[tuple] = []
        for target, request, epoch in self._pending_fences:
            member = self._members[target]
            if member.crashed:
                continue  # moot: the crash already killed its sessions
            if not self._reachable(target):
                keep.append((target, request, epoch))
                continue
            member.fence(request, epoch)
        self._pending_fences = keep

    @property
    def abandoned(self) -> int:
        """Fenced re-placements initiated (each bumped a handle's epoch)."""
        return sum(len(h.fenced_attempts) for h in self.handles)

    @property
    def pending_fences(self) -> int:
        """Fences queued but not yet delivered (0 after a healed run)."""
        return len(self._pending_fences)

    # -- metrics -------------------------------------------------------------
    def summary(self) -> dict:
        """The shared outcome counts plus the door's routing and fencing
        metrics (the fleet experiment's raw material)."""
        served_by = Counter(h.cluster for h in self.handles
                            if h.done and h.exception is None)
        return {
            **super().summary(),
            "rejected": sum(1 for h in self.handles
                            if isinstance(h.exception, FleetUnavailable)),
            "failovers": sum(h.failovers for h in self.handles),
            "served_by": dict(sorted(served_by.items())),
            "abandoned": self.abandoned,
            "minority_rejections": self.minority_rejections,
            "breaker_trips": sum(s["breaker_trips"]
                                 for s in self._member_stats.values()),
            "pending_fences": self.pending_fences,
            "readmissions": self.view.readmissions,
            "per_member": {name: dict(stats)
                           for name, stats in self._member_stats.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FleetFrontDoor {self.name} members={len(self._members)} "
                f"handles={len(self.handles)}>")
