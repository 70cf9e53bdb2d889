"""One fleet member: a simulated cluster, its RM and ToolService, plus
the gossip persona (versioned self-reports, a local view, crash flag).

Members share the fleet's single :class:`~repro.simx.Simulator` -- one
virtual timeline across the whole fleet -- but nothing else: each has its
own node namespace, RM ledger and ToolService, so the run-end audit
(:func:`repro.audit.fleet_violations`) holds every member's ledger to
empty independently.

Crashing a member models the *whole cluster* dropping off the fleet
(power/partition), not individual node faults -- those stay the job of
the PR 3 fault plans inside a cluster. A crashed member refuses new
submissions with :class:`ClusterUnavailable` (the front door's direct
evidence for ``mark_down``) and cancels its in-flight sessions, whose
existing FE cleanup paths return every allocation to the RM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Type

from repro.cluster import Cluster, ClusterSpec, CostModel
from repro.fe.service import SessionHandle, ToolService
from repro.fleet.health import ClusterHealth, ClusterState, FleetView
from repro.rm import ResourceManager, SlurmRM
from repro.simx import Simulator

__all__ = ["ClusterUnavailable", "FenceToken", "FleetCluster", "StaleEpoch"]


class ClusterUnavailable(RuntimeError):
    """Submission refused: the member cluster is crashed/unreachable."""


class StaleEpoch(ClusterUnavailable):
    """Submission refused: the request's placement epoch was fenced.

    A member that has accepted ``fence(request, epoch)`` refuses any
    submission of that request carrying an older epoch -- the guarantee
    that makes re-placement safe: a delayed duplicate of an abandoned
    attempt can never start work the fleet has already moved elsewhere.
    """


@dataclass(frozen=True)
class FenceToken:
    """Placement epoch for one fleet request attempt.

    The front door bumps ``epoch`` every time it abandons an attempt and
    re-places the request; members honor the highest epoch they have been
    fenced to (:meth:`FleetCluster.fence`). Tokens make placement
    at-most-once-per-epoch: the pair ``(request, epoch)`` identifies
    exactly one attempt, fleet-wide.
    """

    request: int
    epoch: int


class FleetCluster:
    """A member cluster plus its fleet-facing identity.

    Build standalone pieces yourself and wrap them, or use
    :meth:`build` (what :class:`~repro.fleet.fleet.Fleet` does) to get
    the conventional naming -- member ``c3`` owns front end ``c3-fe``
    and compute nodes ``c3n000...``.
    """

    def __init__(self, name: str, cluster: Cluster, rm: ResourceManager,
                 service: ToolService):
        self.name = name
        self.cluster = cluster
        self.rm = rm
        self.service = service
        self.sim: Simulator = cluster.sim
        #: this member's gossip-merged picture of the fleet
        self.view = FleetView()
        #: set by :meth:`crash`; a crashed member neither serves nor gossips
        self.crashed = False
        #: operator override: report DEGRADED regardless of blacklist state
        self.degraded = False
        self._version = 0
        #: fencing registry: request id -> highest epoch fenced so far
        #: (submissions below it are refused with :class:`StaleEpoch`)
        self._fence_epochs: Dict[int, int] = {}
        #: (request, epoch) -> the session each fenced submission started
        self._epoch_sessions: Dict[Tuple[int, int], SessionHandle] = {}
        #: fencing outcomes (the chaos audit's raw material)
        self.fence_stats: Dict[str, int] = {
            "fences_received": 0,
            "fenced_kills": 0,       # live stale sessions cancelled
            "stale_completions": 0,  # stale sessions already finished
        }
        self.view.put(self.publish_health())

    @classmethod
    def build(cls, sim: Simulator, name: str, n_compute: int,
              rm_cls: Type[ResourceManager] = SlurmRM, seed: int = 1,
              spec: Optional[ClusterSpec] = None,
              costs: Optional[CostModel] = None,
              max_in_flight: Optional[int] = None,
              **rm_kwargs: Any) -> "FleetCluster":
        cluster_spec = spec or ClusterSpec(
            n_compute=n_compute, fe_name=f"{name}-fe",
            compute_prefix=f"{name}n", seed=seed)
        cluster = Cluster(sim, cluster_spec, costs=costs)
        rm = rm_cls(cluster, **rm_kwargs)
        service = ToolService(cluster, rm, max_in_flight=max_in_flight,
                              name=f"{name}-svc")
        return cls(name, cluster, rm, service)

    # -- gossip persona ------------------------------------------------------
    def state(self) -> ClusterState:
        """This member's honest self-assessment (never DOWN -- a member
        that can self-report is, by that fact, not down; DOWN only enters
        views as neighbor suspicion or front-door direct evidence)."""
        if self.degraded or self.rm.node_blacklist:
            return ClusterState.DEGRADED
        if self.rm.n_free == 0 or self.rm.queued_requests > 0:
            return ClusterState.SATURATED
        return ClusterState.UP

    def publish_health(self) -> ClusterHealth:
        """A fresh self-report; each call bumps the version so liveness
        is visible as version progress (and slander is out-gossiped)."""
        self._version += 1
        return ClusterHealth(
            cluster=self.name,
            state=self.state(),
            version=self._version,
            n_free=self.rm.n_free,
            n_total=self.rm.n_total,
            in_flight=self.service.in_flight,
            queued=self.rm.queued_requests,
        )

    # -- serving -------------------------------------------------------------
    def submit_launch(self, *args: Any,
                      fence_token: Optional[FenceToken] = None,
                      **kwargs: Any) -> SessionHandle:
        """Delegate to the member's ToolService, unless crashed.

        With a ``fence_token`` the submission is epoch-checked: if this
        member has been fenced past the token's epoch the attempt is
        refused with :class:`StaleEpoch`, and the session it starts is
        recorded so a later fence can find (and kill) it.
        """
        if self.crashed:
            raise ClusterUnavailable(f"cluster {self.name} is down")
        if fence_token is not None:
            floor = self._fence_epochs.get(fence_token.request, -1)
            if fence_token.epoch < floor:
                raise StaleEpoch(
                    f"cluster {self.name}: request {fence_token.request} "
                    f"epoch {fence_token.epoch} fenced (floor {floor})")
        handle = self.service.submit_launch(*args, **kwargs)
        if fence_token is not None:
            self._epoch_sessions[
                (fence_token.request, fence_token.epoch)] = handle
        return handle

    def fence(self, request: int, epoch: int) -> int:
        """Fence ``request`` up to ``epoch``: refuse older submissions
        from now on, kill any live session an older epoch started here,
        and count already-finished stale attempts (shadow completions the
        majority re-placed -- the split-brain audit's key number).
        Returns how many live sessions were killed. Idempotent."""
        cur = self._fence_epochs.get(request, -1)
        if epoch <= cur:
            return 0
        self._fence_epochs[request] = epoch
        self.fence_stats["fences_received"] += 1
        killed = 0
        for (req, ep), handle in sorted(self._epoch_sessions.items()):
            if req != request or ep >= epoch:
                continue
            if handle.done:
                if handle.exception is None:
                    self.fence_stats["stale_completions"] += 1
                continue
            if handle.cancel(reason=f"fenced: request {request} "
                                    f"re-placed at epoch {epoch}"):
                self.fence_stats["fenced_kills"] += 1
                killed += 1
        return killed

    def stale_live_sessions(self) -> int:
        """Sessions below this member's fence floors that are still not
        done -- must be 0 once fences have been delivered and the
        simulation has quiesced (the run-end audit's
        ``stale-live-sessions`` check)."""
        count = 0
        for (req, ep), handle in self._epoch_sessions.items():
            if ep < self._fence_epochs.get(req, -1) and not handle.done:
                count += 1
        return count

    def crash(self) -> int:
        """The whole cluster drops off the fleet; returns how many
        in-flight sessions were killed.

        Every non-terminal handle is cancelled: the Interrupt unwinds the
        operation wherever it is (queued at the gate, waiting for nodes,
        mid-spawn, running its body) and the FE/RM cleanup paths release
        what was acquired -- the leak audit then holds this member's
        ledger to empty like everyone else's.
        """
        if self.crashed:
            return 0
        self.crashed = True
        return self.service.cancel_all(f"cluster {self.name} crashed")

    # -- load/audit snapshots ------------------------------------------------
    @property
    def n_free(self) -> int:
        return self.rm.n_free

    @property
    def n_total(self) -> int:
        return self.rm.n_total

    @property
    def in_flight(self) -> int:
        return self.service.in_flight

    @property
    def queued(self) -> int:
        return self.rm.queued_requests

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " CRASHED" if self.crashed else ""
        return (f"<FleetCluster {self.name} "
                f"free={self.n_free}/{self.n_total} "
                f"in_flight={self.in_flight}{flag}>")
