"""s_group-style partitioned gossip: health digests along shard edges only.

*Scaling Reliably* (PAPERS.md) measures distributed Erlang falling over
when every node maintains a connection to every other node, and fixes it
with **s_groups**: nodes fully connect only inside their group, with a
few designated gateways bridging groups. The fleet borrows that topology
for its health plane:

* members are partitioned into **shards** of ``shard_size`` (by sorted
  name, so the partition is deterministic);
* each shard is a full mesh internally;
* the first member of each shard is its **head**, and the heads form a
  ring -- one bridge link per shard boundary instead of ``N^2`` edges;
* the front door attaches as an *observer* peering with each shard head:
  it hears everything within ``O(diameter)`` rounds while holding only
  ``n_shards`` links.

Rounds are two-phase and synchronous: every participant first snapshots
its digest, then every edge merges the *snapshots* -- so information
travels exactly one hop per round and fleet-wide convergence is bounded
by the peering graph's diameter (:meth:`GossipMesh.diameter`), a bound
the partition tests assert exactly.

Failure detection is evidence-based, not oracular: a live participant
that fails to reach a neighbor for ``suspect_rounds`` consecutive rounds
synthesizes a versioned DOWN record for it (``suspect_down``), which then
propagates like any other digest entry. A merely-slandered member keeps
bumping its own version and out-gossips the rumor.

Network weather comes from the mesh's
:class:`~repro.cluster.netfaults.NetFaultInjector` (``mesh.netfaults``): a
blocked edge or a lost digest is a missed contact (feeding the same
suspicion path a crash does -- the listener cannot tell a partition from
a death, by design), a delayed digest is this round's snapshot merged
late, and a duplicated digest is merged twice (idempotent by the view's
merge-by-version). Every pull asks the injector once
(:meth:`~repro.cluster.netfaults.NetFaultInjector.pull`); a mesh built
without a plan carries the empty one, which blocks nothing and draws
nothing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster.netfaults import (
    PULL_DUPLICATED,
    PULL_MISSED,
    NetFaultInjector,
    NetFaultPlan,
)
from repro.fleet.health import ClusterHealth, ClusterState

__all__ = ["GossipMesh"]


class GossipMesh:
    """The fleet's partitioned health-gossip overlay.

    ``members`` are the gossiping participants. Each must provide:

    * ``name`` -- unique identity;
    * ``view`` -- its :class:`~repro.fleet.health.FleetView`;
    * ``publish_health()`` -- a fresh versioned self-report;
    * ``crashed`` -- truthy once the participant stops responding.

    Observers (the front door) join via :meth:`attach_observer`: they
    merge and relay digests but never self-report. ``netfaults`` is the
    mesh's network weather; None means the empty plan.
    """

    def __init__(self, members, shard_size: int = 4,
                 suspect_rounds: int = 3,
                 netfaults: Optional[NetFaultInjector] = None):
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if suspect_rounds < 1:
            raise ValueError(
                f"suspect_rounds must be >= 1, got {suspect_rounds}")
        self.shard_size = shard_size
        self.suspect_rounds = suspect_rounds
        self.netfaults = netfaults or NetFaultInjector(NetFaultPlan())
        self.rounds_run = 0
        #: in-flight delayed digests: (deliver_round, listener, snapshot)
        self._delayed: List[tuple] = []
        self._members: Dict[str, object] = {}
        for member in members:
            if member.name in self._members:
                raise ValueError(f"duplicate member name {member.name!r}")
            self._members[member.name] = member
        self._observers: Dict[str, object] = {}
        #: undirected peering edges as sorted name pairs
        self._edges: set = set()
        #: name -> sorted tuple of neighbor names
        self._peers: Dict[str, Tuple[str, ...]] = {}
        #: (listener, peer) -> consecutive failed contact rounds
        self._missed: Dict[Tuple[str, str], int] = {}
        self._build_topology()

    # -- topology ------------------------------------------------------------
    def _build_topology(self) -> None:
        names = sorted(self._members)
        shards: List[Tuple[str, ...]] = [
            tuple(names[i:i + self.shard_size])
            for i in range(0, len(names), self.shard_size)
        ]
        self._shards = tuple(shards)
        self._shard_of = {name: idx
                          for idx, shard in enumerate(shards)
                          for name in shard}
        for shard in shards:
            for i, a in enumerate(shard):
                for b in shard[i + 1:]:
                    self._edges.add((a, b))
        heads = [shard[0] for shard in shards]
        if len(heads) > 1:
            for i, head in enumerate(heads):
                nxt = heads[(i + 1) % len(heads)]
                if head != nxt:
                    self._edges.add(tuple(sorted((head, nxt))))
        self._rebuild_peers()

    def _rebuild_peers(self) -> None:
        peers: Dict[str, set] = {name: set() for name in self._members}
        for name in self._observers:
            peers[name] = set()
        for a, b in self._edges:
            peers[a].add(b)
            peers[b].add(a)
        self._peers = {name: tuple(sorted(ns)) for name, ns in peers.items()}

    def attach_observer(self, observer) -> None:
        """Peer ``observer`` with every shard head (one link per shard)."""
        if observer.name in self._members or observer.name in self._observers:
            raise ValueError(f"duplicate participant {observer.name!r}")
        self._observers[observer.name] = observer
        for shard in self._shards:
            self._edges.add(tuple(sorted((observer.name, shard[0]))))
        self._rebuild_peers()

    @property
    def shards(self) -> tuple:
        """The member partition, in sorted-name order."""
        return self._shards

    def shard_of(self, name: str) -> int:
        return self._shard_of[name]

    @property
    def edges(self) -> tuple:
        """All undirected peering edges, sorted (topology assertions)."""
        return tuple(sorted(self._edges))

    def neighbors(self, name: str) -> Tuple[str, ...]:
        return self._peers[name]

    def diameter(self) -> int:
        """Longest shortest path over the peering graph -- the exact
        round bound for fleet-wide digest propagation."""
        names = sorted(self._peers)
        worst = 0
        for src in names:
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt: List[str] = []
                for node in frontier:
                    for peer in self._peers[node]:
                        if peer not in dist:
                            dist[peer] = dist[node] + 1
                            nxt.append(peer)
                frontier = nxt
            if len(dist) < len(names):
                raise ValueError("peering graph is disconnected")
            worst = max(worst, max(dist.values()))
        return worst

    # -- rounds --------------------------------------------------------------
    def _participants(self) -> list:
        """Members, then observers, each in sorted-name order."""
        return ([self._members[n] for n in sorted(self._members)]
                + [self._observers[n] for n in sorted(self._observers)])

    @staticmethod
    def _is_crashed(participant) -> bool:
        return bool(getattr(participant, "crashed", False))

    def run_round(self) -> int:
        """One synchronous gossip round; returns how many records were
        news somewhere in the fleet (0 == quiescent *and* converged if
        nothing external changes)."""
        nf = self.netfaults
        # round index is 0-based: the first round is round 0, so a plan
        # with at_round=0 hits it
        nf.begin_round(self.rounds_run)
        changed = self._deliver_delayed(self.rounds_run)
        self.rounds_run += 1
        participants = self._participants()
        crashed = {p.name for p in participants if self._is_crashed(p)}
        # phase 1: live members refresh their own record
        for member in participants[:len(self._members)]:
            if member.name not in crashed:
                member.view.put(member.publish_health())
        # phase 2a: snapshot digests so data moves exactly one hop/round
        digests = {p.name: p.view.records() for p in participants}
        # phase 2b: every live participant pulls from each neighbor
        missed = self._missed
        for participant in participants:
            listener = participant.name
            if listener in crashed:
                continue
            view = participant.view
            for peer_name in self._peers[listener]:
                verdict = (PULL_MISSED if peer_name in crashed
                           else nf.pull(listener, peer_name))
                if verdict == PULL_MISSED:
                    changed += self._note_missed(participant, peer_name)
                    continue
                missed[(listener, peer_name)] = 0
                if verdict > 0:
                    # contact made (counter reset), payload late: this
                    # round's snapshot arrives `verdict` rounds on
                    self._delayed.append(
                        (self.rounds_run - 1 + verdict, listener,
                         digests[peer_name]))
                    continue
                changed += view.merge(digests[peer_name])
                if verdict == PULL_DUPLICATED:
                    # second merge must be a no-op (idempotence)
                    changed += view.merge(digests[peer_name])
        return changed

    def _deliver_delayed(self, r: int) -> int:
        """Merge delayed digests whose deadline is round ``r`` (stale by
        now; safe -- merge-by-version keeps anything newer)."""
        if not self._delayed:
            return 0
        due = [d for d in self._delayed if d[0] <= r]
        if not due:
            return 0
        self._delayed = [d for d in self._delayed if d[0] > r]
        changed = 0
        for _, listener_name, snapshot in due:
            listener = self._members.get(listener_name,
                                         self._observers.get(listener_name))
            if listener is not None and not self._is_crashed(listener):
                changed += listener.view.merge(snapshot)
        return changed

    def data_path_open(self, src: str, dst: str) -> bool:
        """Whether a direct send ``src -> dst`` (submission, fence) gets
        through under the current round's network topology."""
        return self.netfaults.data_path_open(src, dst)

    def _note_missed(self, listener, peer_name: str) -> int:
        """A failed neighbor contact; after ``suspect_rounds`` in a row
        the listener installs a versioned DOWN suspicion. Observers never
        self-report, so there is no member record to suspect for one."""
        key = (listener.name, peer_name)
        self._missed[key] = self._missed.get(key, 0) + 1
        if self._missed[key] < self.suspect_rounds or peer_name in self._observers:
            return 0
        cur = listener.view.get(peer_name)
        if cur is None:
            rumor = ClusterHealth(cluster=peer_name, state=ClusterState.DOWN,
                                  version=1, n_free=0, n_total=0,
                                  in_flight=0, queued=0)
        elif cur.state is ClusterState.DOWN:
            return 0
        else:
            rumor = cur.suspect_down()
        return 1 if listener.view.put(rumor) else 0

    def run_rounds(self, n: int) -> int:
        changed = 0
        for _ in range(n):
            changed += self.run_round()
        return changed

    # -- inspection ----------------------------------------------------------
    def converged(self) -> bool:
        """All live participants hold identical (cluster, version, state)
        maps -- the anti-entropy fixed point."""
        reference: Optional[dict] = None
        for participant in self._participants():
            if self._is_crashed(participant):
                continue
            snapshot = {rec.cluster: (rec.version, rec.state)
                        for rec in participant.view.records()}
            if reference is None:
                reference = snapshot
            elif snapshot != reference:
                return False
        return True

    def state_converged(self) -> bool:
        """All live participants agree on every member's *state*.

        The post-heal anti-entropy fixed point for meshes with diameter
        > 1: strict :meth:`converged` can only hold there once members
        stop publishing (each self-report bumps a version that needs
        ``diameter`` rounds to travel), but states settle -- within
        ``suspect_rounds + diameter`` rounds of a heal every view calls
        the same members UP and the same members DOWN.
        """
        reference: Optional[dict] = None
        for participant in self._participants():
            if self._is_crashed(participant):
                continue
            snapshot = {rec.cluster: rec.state
                        for rec in participant.view.records()}
            if reference is None:
                reference = snapshot
            elif snapshot != reference:
                return False
        return True

    def live_members(self) -> tuple:
        return tuple(self._members[n] for n in sorted(self._members)
                     if not self._is_crashed(self._members[n]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<GossipMesh members={len(self._members)} "
                f"shards={len(self._shards)} edges={len(self._edges)} "
                f"rounds={self.rounds_run}>")
