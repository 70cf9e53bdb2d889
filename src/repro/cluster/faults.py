"""Fault injection: node crashes, stragglers, link flaps, FS stalls.

The paper's launch curves assume every node behaves; at the scales the
ROADMAP targets the interesting regime is the one where some do not
(scalability faults only surface under scale-dependent fault patterns --
see PAPERS.md, Zhu et al.; recovery structure must be *designed in*, not
bolted on -- Trinder et al.). This module is the designed-in half: a
declarative :class:`FaultPlan` on :class:`~repro.cluster.cluster.ClusterSpec`
that the cluster turns into simx events, plus the per-fault statistics the
resilience experiments report.

Four fault kinds are modelled:

``NodeCrash``
    a compute (or front-end) node dies at a virtual time: every process on
    it exits with SIGKILL, registered daemon bodies are interrupted, and
    all later fork/rsh attempts against it fail with
    :class:`~repro.cluster.node.NodeDown`.
``Straggler``
    a slow node: local fork/exec costs are multiplied by ``factor``
    (models an overloaded or thermally throttled host). Stragglers do not
    fail -- they make per-daemon timeouts fire.
``LinkFlap``
    transient rsh/link failures: during a window, each rsh attempt fails
    with the given probability (connection resets, ARP storms). A retry a
    moment later usually succeeds -- exactly what bounded retry with
    backoff is for.
``FsStall``
    a shared-filesystem brown-out: image loads that reach an FS server
    during ``[at, at + duration)`` stall until the window ends (metadata
    server failover, RAID rebuild).

Determinism contract: all fault randomness draws from a dedicated
``SeededRNG(seed, "faults")`` stream. Every cluster carries an injector;
without a plan it runs the empty plan, whose hooks schedule no event and
draw nothing, so a fault-free run is the same run whatever the plan's
absence is written as.

Fleet-level network weather (partitions, gossip loss, delay and
duplication) lives in :mod:`repro.cluster.netfaults`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.simx import SeededRNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FsStall",
    "LinkFlap",
    "NodeCrash",
    "Straggler",
]

#: node reference: a compute-node index or a hostname
NodeRef = Union[int, str]


@dataclass(frozen=True)
class NodeCrash:
    """Kill one node at virtual time ``at`` (relative to arming)."""

    node: NodeRef
    at: float = 0.0


@dataclass(frozen=True)
class Straggler:
    """Multiply one node's local fork/exec costs by ``factor``."""

    node: NodeRef
    factor: float = 8.0


@dataclass(frozen=True)
class LinkFlap:
    """Each rsh attempt inside ``window`` fails with probability ``rate``."""

    rate: float
    window: tuple = (0.0, math.inf)


@dataclass(frozen=True)
class FsStall:
    """Shared-FS reads starting in ``[at, at+duration)`` stall to its end."""

    at: float
    duration: float


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault schedule attached to a ``ClusterSpec``.

    Explicit faults (``node_crashes`` ...) name their victims; the random
    face (``crash_rate`` > 0) additionally crashes each compute node with
    that probability at a uniform time inside ``crash_window``, drawn from
    the dedicated fault RNG stream so victim choice is seed-stable.

    All times are relative to *arming*. With ``auto_arm`` (default) the
    plan arms at cluster construction (t=0); experiments that want faults
    aligned to a phase (e.g. "during the daemon spawn, not the job launch")
    set ``auto_arm=False`` and call ``cluster.faults.arm()`` at the moment
    of interest.
    """

    node_crashes: tuple = ()
    stragglers: tuple = ()
    link_flaps: tuple = ()
    fs_stalls: tuple = ()
    #: probability that any given compute node crashes (random face)
    crash_rate: float = 0.0
    #: crash times for the random face, uniform in this window
    crash_window: tuple = (0.0, 10.0)
    auto_arm: bool = True


@dataclass
class FaultStats:
    """What the injector actually did (the experiments report these)."""

    crashes: int = 0
    procs_killed: int = 0
    bodies_interrupted: int = 0
    rsh_faults: int = 0
    fs_stalled_loads: int = 0
    fs_stall_time: float = 0.0
    straggler_nodes: int = 0


class FaultInjector:
    """Turns a :class:`FaultPlan` into scheduled simx events + live hooks.

    Owned by the :class:`~repro.cluster.cluster.Cluster` (``cluster.faults``;
    the empty plan when none is set). :meth:`Node.rsh_spawn` consults the
    hot-path hook :meth:`rsh_attempt_fails`; FS stall windows are handed
    to the shared filesystem at :meth:`arm`, which counts its stalls in
    this injector's :attr:`stats`; crashes and stragglers act on the
    nodes directly.
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan):
        self.cluster = cluster
        self.sim = cluster.sim
        self.plan = plan
        self.rng = SeededRNG(cluster.spec.seed, "faults")
        self.stats = FaultStats()
        #: chronological record of injected faults: (time, kind, detail)
        self.log: list = []
        self.armed = False
        self._arm_at = 0.0
        self._flaps: list[LinkFlap] = list(plan.link_flaps)
        cluster.fs.stall_stats = self.stats

    # -- arming ------------------------------------------------------------
    def arm(self) -> None:
        """Start the fault clock now; schedules every planned fault.

        Idempotent (a second call is ignored) so ``auto_arm`` plans cannot
        be double-armed by an explicit call.
        """
        if self.armed:
            return
        self.armed = True
        self._arm_at = self.sim.now
        for crash in self.plan.node_crashes:
            self._schedule_crash(self._resolve(crash.node), crash.at)
        if self.plan.crash_rate > 0.0:
            lo, hi = self.plan.crash_window
            for node in self.cluster.compute:
                if self.rng.random() < self.plan.crash_rate:
                    self._schedule_crash(node, self.rng.uniform(lo, hi))
        for straggler in self.plan.stragglers:
            node = self._resolve(straggler.node)
            node.cost_factor = straggler.factor
            self.stats.straggler_nodes += 1
            self.log.append((self.sim.now, "straggler",
                             f"{node.name} x{straggler.factor}"))
        for stall in self.plan.fs_stalls:
            t0 = self._arm_at + stall.at
            self.cluster.fs.stall_windows.append((t0, t0 + stall.duration))

    def _resolve(self, ref: NodeRef) -> "Node":
        if isinstance(ref, int):
            return self.cluster.compute[ref]
        return self.cluster.node(ref)

    def _schedule_crash(self, node: "Node", delay: float) -> None:
        def crash_body():
            yield self.sim.timeout(max(0.0, delay))
            self.crash_now(node)

        self.sim.process(crash_body(), name=f"fault:crash:{node.name}")

    # -- crash -------------------------------------------------------------
    def crash_now(self, node: "Node") -> None:
        """Kill ``node`` immediately (also usable directly from tests)."""
        if node.failed:
            return
        killed, interrupted = node.fail("injected node crash")
        self.stats.crashes += 1
        self.stats.procs_killed += killed
        self.stats.bodies_interrupted += interrupted
        self.log.append((self.sim.now, "crash",
                         f"{node.name} (killed {killed} procs)"))

    # -- hot-path hooks ----------------------------------------------------
    def rsh_attempt_fails(self, src: "Node", dst: "Node") -> bool:
        """Whether this rsh attempt is hit by a transient link fault.

        Draws from the fault RNG only when a flap window is active at the
        current time, so plans without link faults consume no randomness.
        """
        if not self._flaps or not self.armed:
            return False
        now = self.sim.now - self._arm_at
        for flap in self._flaps:
            lo, hi = flap.window
            if lo <= now < hi and self.rng.random() < flap.rate:
                self.stats.rsh_faults += 1
                self.log.append((self.sim.now, "rsh-fault",
                                 f"{src.name}->{dst.name}"))
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultInjector armed={self.armed} "
                f"crashes={self.stats.crashes}>")
