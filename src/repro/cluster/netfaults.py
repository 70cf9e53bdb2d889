"""Fleet-level network faults: partitions and gossip weather.

The per-cluster faults of :mod:`repro.cluster.faults` model one
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
Same contract as the node-level injector: every mesh carries one, and
under the empty plan it blocks nothing and draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.simx import SeededRNG

__all__ = [
    "FlappingLink",
    "GossipDelay",
    "GossipDup",
    "GossipLoss",
    "NetFaultInjector",
    "NetFaultPlan",
    "NetFaultStats",
    "NetLinkDown",
    "NetPartition",
    "PULL_DUPLICATED",
    "PULL_MISSED",
    "PULL_ON_TIME",
]

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


#: :meth:`NetFaultInjector.pull` verdicts; a positive verdict is a delay
#: in rounds
PULL_ON_TIME = 0
PULL_MISSED = -1
PULL_DUPLICATED = -2


class NetFaultInjector:
    """Per-round verdicts for a :class:`NetFaultPlan`.

    Attached to a :class:`~repro.fleet.gossip.GossipMesh`
    (``mesh.netfaults``; the empty plan when none is set). The mesh calls
    :meth:`begin_round` once per gossip round, then :meth:`pull` once per
    pull edge -- the verdicts of :meth:`edge_blocked`,
    :meth:`digest_lost`, :meth:`digest_delay` and
    :meth:`digest_duplicated` in one call; the front door consults
    :meth:`data_path_open` before every direct send (submission, fence
    delivery).

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
        #: whether the plan has message weather (loss, delay, dup) at all
        self._weather = bool(plan.losses or plan.delays or plan.dups)
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

    def pull(self, listener: str, peer: str) -> int:
        """This round's whole verdict on the digest pull ``peer ->
        listener``: :data:`PULL_MISSED` (blocked or lost), a delay in
        rounds, :data:`PULL_DUPLICATED` or :data:`PULL_ON_TIME`.

        Decides, draws, counts and logs exactly as :meth:`edge_blocked`,
        :meth:`digest_lost` and :meth:`digest_delay` in turn, each only
        if the ones before let the pull through, and then, for an
        on-time pull, :meth:`digest_duplicated`. A round with no blocked
        edge under a plan without weather answers at once.
        """
        if not (self._blocked or self._weather):
            return PULL_ON_TIME
        if (self.edge_blocked(listener, peer)
                or self.digest_lost(listener, peer)):
            return PULL_MISSED
        delay = self.digest_delay(listener, peer)
        if delay:
            return delay
        if self.digest_duplicated(listener, peer):
            return PULL_DUPLICATED
        return PULL_ON_TIME

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
