"""Fault injection: node crashes, stragglers, link flaps, FS stalls -- and
fleet-level network weather (partitions, gossip loss/delay/duplication).

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
``SeededRNG(seed, "faults")`` stream, and every hook in the hot paths is
guarded by ``cluster.faults is None`` -- with no plan set, no RNG stream is
consulted and no event is scheduled, so fault-free runs are bit-identical
to a build without this module.

**Fleet-level network faults.** The per-cluster faults above model one
machine's weather; a federated fleet additionally suffers *network*
weather between whole clusters: netsplits, asymmetric reachability, and
flapping inter-site links (the primary reliability hazard *Scaling
Reliably* names at scale). :class:`NetFaultPlan` declares those against
the fleet's gossip mesh in **round** units (the mesh's only clock --
digests travel one hop per round, so round-windowed faults give exact,
assertable convergence bounds):

``NetPartition``
    a symmetric netsplit: the named participants are split into groups;
    every gossip edge and every data-path send between different groups
    is blocked during ``[at_round, heal_round)``. Participants not named
    in any group are unaffected.
``NetLinkDown``
    one directed link ``src -> dst`` blocked for a round window --
    asymmetric partitions (A hears B, B never hears A) are built from
    these.
``FlappingLink``
    a link that strobes: down for ``down_rounds``, up for ``up_rounds``,
    repeating across its window. Deterministic (no RNG), so suspicion /
    re-admission churn is exactly reproducible.
``GossipLoss`` / ``GossipDelay`` / ``GossipDup``
    per-digest-pull message faults: a pull is lost with probability
    ``rate`` (a missed contact, feeding DOWN suspicion), arrives
    ``rounds`` late (stale-version merges), or is merged twice
    (duplication must be a no-op -- version merges are idempotent).

:class:`NetFaultInjector` turns the plan into per-round verdicts for the
:class:`~repro.fleet.gossip.GossipMesh` plus :meth:`data_path_open`, the
front door's honest connect check for submissions and fence delivery.
Same guard as the node-level injector: a mesh without an injector
consults nothing and draws nothing, so fault-free fleet runs stay
byte-identical to the netfault-free build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING, Union

from repro.simx import SeededRNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FlappingLink",
    "FsStall",
    "GossipDelay",
    "GossipDup",
    "GossipLoss",
    "LinkFlap",
    "NetFaultInjector",
    "NetFaultPlan",
    "NetFaultStats",
    "NetLinkDown",
    "NetPartition",
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

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing at all."""
        return not (self.node_crashes or self.stragglers or self.link_flaps
                    or self.fs_stalls or self.crash_rate > 0.0)


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

    Owned by the :class:`~repro.cluster.cluster.Cluster` (``cluster.faults``,
    None when no plan is set). The hot-path hooks --
    :meth:`rsh_attempt_fails` and :meth:`fs_stall_remaining` -- are consulted
    by :meth:`Node.rsh_spawn` and the shared filesystem respectively;
    crashes and stragglers act on the nodes directly.
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
        self._fs_windows: list[tuple] = []

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
            self._fs_windows.append((t0, t0 + stall.duration))

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

    def fs_stall_remaining(self) -> float:
        """Seconds a shared-FS read starting now must stall (0 outside
        every stall window)."""
        if not self._fs_windows:
            return 0.0
        now = self.sim.now
        remaining = 0.0
        for t0, t1 in self._fs_windows:
            if t0 <= now < t1:
                remaining = max(remaining, t1 - now)
        if remaining > 0.0:
            self.stats.fs_stalled_loads += 1
            self.stats.fs_stall_time += remaining
        return remaining

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultInjector armed={self.armed} "
                f"crashes={self.stats.crashes}>")


# ---------------------------------------------------------------------------
# fleet-level network faults (round-windowed, against the gossip mesh)
# ---------------------------------------------------------------------------

#: round window sentinel: faults with ``heal_round=NEVER`` never heal
NEVER = math.inf


@dataclass(frozen=True)
class NetPartition:
    """Symmetric netsplit over ``[at_round, heal_round)``.

    ``groups`` is a tuple of tuples of participant names (member clusters
    and/or the front door); any pair of participants named in *different*
    groups cannot exchange gossip digests or data-path traffic while the
    window is active. Participants named in no group keep full
    connectivity -- a two-sided split of a 5-member fleet is written as
    ``groups=(("c0", "c1"), ("c2", "c3", "c4", "frontdoor"))``.
    """

    groups: tuple
    at_round: int = 0
    heal_round: float = NEVER


@dataclass(frozen=True)
class NetLinkDown:
    """One directed link ``src -> dst`` dead over ``[at_round, heal_round)``.

    Directed: ``dst`` cannot *pull from* (hear) ``src``, and ``src``
    cannot deliver data-path sends to ``dst``. Set ``symmetric=True`` to
    kill both directions; asymmetric partitions (A hears B while B never
    hears A) are exactly one non-symmetric instance.
    """

    src: str
    dst: str
    at_round: int = 0
    heal_round: float = NEVER
    symmetric: bool = False


@dataclass(frozen=True)
class FlappingLink:
    """A link that strobes: down ``down_rounds``, up ``up_rounds``, repeat.

    Both directions of ``a <-> b`` follow the same deterministic square
    wave, phase-anchored at ``at_round`` and silenced for good at
    ``heal_round``. No RNG is involved, so the suspicion / re-admission
    churn a flap drives is exactly reproducible from the plan alone.
    """

    a: str
    b: str
    down_rounds: int = 1
    up_rounds: int = 1
    at_round: int = 0
    heal_round: float = NEVER

    def down_at(self, r: int) -> bool:
        """Whether the link is in a down stroke during round ``r``."""
        if r < self.at_round or r >= self.heal_round:
            return False
        period = self.down_rounds + self.up_rounds
        if period <= 0:
            return False
        return (r - self.at_round) % period < self.down_rounds


@dataclass(frozen=True)
class GossipLoss:
    """Each digest pull inside ``window`` (rounds) is lost w.p. ``rate``."""

    rate: float
    window: tuple = (0, NEVER)


@dataclass(frozen=True)
class GossipDelay:
    """Each digest pull inside ``window`` is delayed w.p. ``rate``.

    A delayed digest is the *snapshot taken this round* merged ``rounds``
    rounds later -- stale by then, which is safe (version merges keep the
    newer record) but slows convergence, exactly like a congested WAN.
    """

    rate: float
    rounds: int = 2
    window: tuple = (0, NEVER)


@dataclass(frozen=True)
class GossipDup:
    """Each digest pull inside ``window`` is merged twice w.p. ``rate``.

    Duplication must be a no-op: the mesh's merge-by-version is
    idempotent, and the chaos audits hold under it.
    """

    rate: float
    window: tuple = (0, NEVER)


@dataclass(frozen=True)
class NetFaultPlan:
    """Declarative fleet-network fault schedule, in gossip-round units."""

    partitions: tuple = ()
    link_downs: tuple = ()
    flaps: tuple = ()
    losses: tuple = ()
    delays: tuple = ()
    dups: tuple = ()

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing at all."""
        return not (self.partitions or self.link_downs or self.flaps
                    or self.losses or self.delays or self.dups)

    @property
    def last_heal_round(self) -> int:
        """Largest finite heal round in the plan (0 when none).

        After the mesh has run this many rounds every windowed fault has
        healed; only the probabilistic loss/delay/dup weather (if any is
        open-ended) remains. Chaos harnesses run the mesh to this round
        before asserting convergence.
        """
        last = 0
        for f in self.partitions + self.link_downs + self.flaps:
            if math.isfinite(f.heal_round):
                last = max(last, int(f.heal_round))
        for f in self.losses + self.delays + self.dups:
            hi = f.window[1]
            if math.isfinite(hi):
                last = max(last, int(hi))
        return last


@dataclass
class NetFaultStats:
    """What the network-fault injector actually did."""

    blocked_edges: int = 0
    lost_digests: int = 0
    delayed_digests: int = 0
    duplicated_digests: int = 0
    data_sends_blocked: int = 0


class NetFaultInjector:
    """Per-round verdicts for a :class:`NetFaultPlan`.

    Attached to a :class:`~repro.fleet.gossip.GossipMesh` (``mesh.netfaults``,
    None without a plan). The mesh calls :meth:`begin_round` once per
    gossip round, then consults :meth:`edge_blocked` /
    :meth:`digest_lost` / :meth:`digest_delay` / :meth:`digest_duplicated`
    per pull edge; the front door consults :meth:`data_path_open` before
    every direct send (submission, fence delivery).

    Topology verdicts (partitions, link-downs, flaps) are pure functions
    of the round number -- no RNG. Message weather (loss/delay/dup) draws
    one ``random()`` per active rule per pull from a dedicated
    ``SeededRNG(seed, "netfaults")`` stream, so a plan without
    probabilistic rules consumes no randomness at all.
    """

    def __init__(self, plan: NetFaultPlan, seed: int = 0):
        self.plan = plan
        self.rng = SeededRNG(seed, "netfaults")
        self.stats = NetFaultStats()
        #: chronological record: (round, kind, detail)
        self.log: list = []
        self.round = 0
        #: directed pairs (src, dst) blocked during the current round
        self._blocked: frozenset = frozenset()
        self._rebuild_blocked()

    # -- round clock -------------------------------------------------------
    def begin_round(self, r: int) -> None:
        """Advance the injector to gossip round ``r`` (mesh calls this)."""
        self.round = r
        self._rebuild_blocked()

    def _rebuild_blocked(self) -> None:
        r = self.round
        blocked = set()
        for part in self.plan.partitions:
            if not (part.at_round <= r < part.heal_round):
                continue
            for i, group in enumerate(part.groups):
                for other in part.groups[i + 1:]:
                    for a in group:
                        for b in other:
                            blocked.add((a, b))
                            blocked.add((b, a))
        for link in self.plan.link_downs:
            if link.at_round <= r < link.heal_round:
                blocked.add((link.src, link.dst))
                if link.symmetric:
                    blocked.add((link.dst, link.src))
        for flap in self.plan.flaps:
            if flap.down_at(r):
                blocked.add((flap.a, flap.b))
                blocked.add((flap.b, flap.a))
        self._blocked = frozenset(blocked)

    # -- topology verdicts (no RNG) ---------------------------------------
    def edge_blocked(self, listener: str, peer: str) -> bool:
        """Whether ``listener`` cannot pull a digest from ``peer`` this
        round (counts as a missed contact toward DOWN suspicion)."""
        if (peer, listener) in self._blocked:
            self.stats.blocked_edges += 1
            self.log.append((self.round, "edge-blocked",
                             f"{peer}->{listener}"))
            return True
        return False

    def data_path_open(self, src: str, dst: str) -> bool:
        """Whether a direct data-path send ``src -> dst`` gets through
        under the *current* round's topology (submissions, fences)."""
        if (src, dst) in self._blocked:
            self.stats.data_sends_blocked += 1
            self.log.append((self.round, "send-blocked", f"{src}->{dst}"))
            return False
        return True

    # -- message weather (seeded RNG, one draw per active rule) -----------
    def _window_active(self, window: tuple) -> bool:
        lo, hi = window
        return lo <= self.round < hi

    def digest_lost(self, listener: str, peer: str) -> bool:
        """Whether this round's pull ``peer -> listener`` is dropped."""
        for rule in self.plan.losses:
            if self._window_active(rule.window) \
                    and self.rng.random() < rule.rate:
                self.stats.lost_digests += 1
                self.log.append((self.round, "digest-lost",
                                 f"{peer}->{listener}"))
                return True
        return False

    def digest_delay(self, listener: str, peer: str) -> int:
        """Rounds this pull is late (0 = on time)."""
        for rule in self.plan.delays:
            if self._window_active(rule.window) \
                    and self.rng.random() < rule.rate:
                self.stats.delayed_digests += 1
                self.log.append((self.round, "digest-delayed",
                                 f"{peer}->{listener} +{rule.rounds}"))
                return max(1, rule.rounds)
        return 0

    def digest_duplicated(self, listener: str, peer: str) -> bool:
        """Whether this pull is merged twice (idempotence exercise)."""
        for rule in self.plan.dups:
            if self._window_active(rule.window) \
                    and self.rng.random() < rule.rate:
                self.stats.duplicated_digests += 1
                self.log.append((self.round, "digest-dup",
                                 f"{peer}->{listener}"))
                return True
        return False

    # -- convergence bookkeeping ------------------------------------------
    @property
    def last_heal_round(self) -> int:
        """Round by which every windowed fault in the plan has healed."""
        return self.plan.last_heal_round

    def all_healed(self) -> bool:
        """True once the current round is past every windowed fault."""
        return self.round >= self.last_heal_round and not self._blocked

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NetFaultInjector round={self.round} "
                f"blocked={len(self._blocked)}>")
