"""Versioned cluster health/load records and the gossip-merged fleet view.

A :class:`ClusterHealth` is one member's self-report: its state, free-node
and queue-depth load signals, and a monotonically increasing ``version``
the member bumps every time it publishes. Views merge records by version
(higher wins), so digests can arrive in any order along any path through
the peering graph and every member still converges to the same map --
the standard anti-entropy invariant.

Placement decisions read a :class:`FleetView`, never ground truth: the
front door knows exactly what gossip (plus its own direct contact with
members) has told it, which is what makes stale-view routing and the
failover path honest rather than an oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional

__all__ = ["ClusterHealth", "ClusterState", "FleetView"]


class ClusterState(enum.Enum):
    """A member cluster's coarse condition, as gossiped fleet-wide."""

    UP = "up"
    #: admission-relevant pressure: no free nodes, or requests queued at
    #: the member's RM -- routable, but a load-aware policy avoids it
    SATURATED = "saturated"
    #: serving, but with condemned nodes / partial launches behind it
    DEGRADED = "degraded"
    #: unreachable: crashed or partitioned; never a placement target
    DOWN = "down"


@dataclass(frozen=True)
class ClusterHealth:
    """One member's versioned self-report (immutable; replace to update)."""

    cluster: str
    state: ClusterState
    version: int
    #: grantable compute nodes right now (RM free index size)
    n_free: int
    #: total compute nodes (capacity; static config, gossiped for
    #: completeness so joiners need no side channel)
    n_total: int
    #: operations in flight on the member's ToolService
    in_flight: int
    #: allocation requests queued at the member's RM
    queued: int
    #: locality tag (rack/region) for locality-aware placement
    zone: str = ""

    @property
    def saturated(self) -> bool:
        """Load-level pressure: nothing free, or a queue has formed."""
        return self.n_free == 0 or self.queued > 0

    @property
    def routable(self) -> bool:
        """Whether a placement policy may target this member at all."""
        return self.state is not ClusterState.DOWN

    @property
    def shunned(self) -> bool:
        """Avoid while any healthy member exists: saturated load or a
        DEGRADED state (condemned nodes behind it). Still routable --
        when the whole fleet is shunned, requests go somewhere rather
        than nowhere."""
        return self.saturated or self.state is ClusterState.DEGRADED

    def suspect_down(self) -> "ClusterHealth":
        """The record a *neighbor* synthesizes for an unresponsive peer.

        The version bumps past the last self-report so the suspicion
        propagates; a member that is actually alive keeps bumping its own
        version every round and overrides the rumor.
        """
        return replace(self, state=ClusterState.DOWN,
                       version=self.version + 1, n_free=0, in_flight=0)


class FleetView:
    """A merge-by-version map of every known member's last health report.

    One instance lives at each gossip participant (members and the front
    door). ``merge`` applies a digest record-by-record, keeping the higher
    version; equal versions keep the incumbent, so merges are idempotent
    and order-independent along redundant paths.
    """

    def __init__(self, records: Iterable[ClusterHealth] = ()):
        self._records: Dict[str, ClusterHealth] = {}
        #: sorted cluster names; None until read after a new cluster
        self._order: Optional[tuple] = None
        #: times a DOWN record was displaced by a live higher-version one
        #: -- each is a shunned/suspected member re-admitted after heal
        self.readmissions = 0
        for rec in records:
            self._records[rec.cluster] = rec

    # -- reads ---------------------------------------------------------------
    def get(self, cluster: str) -> Optional[ClusterHealth]:
        return self._records.get(cluster)

    def health(self, cluster: str) -> ClusterHealth:
        rec = self._records.get(cluster)
        if rec is None:
            raise KeyError(f"no health record for cluster {cluster!r}")
        return rec

    @property
    def clusters(self) -> tuple:
        """Known member names, sorted (deterministic iteration order)."""
        if self._order is None:
            self._order = tuple(sorted(self._records))
        return self._order

    def records(self) -> tuple:
        """All records, sorted by cluster name (a gossip digest)."""
        records = self._records
        return tuple([records[name] for name in self.clusters])

    def routable(self) -> tuple:
        """Members a policy may target (not DOWN), sorted by name."""
        return tuple(r for r in self.records() if r.routable)

    def __contains__(self, cluster: str) -> bool:
        return cluster in self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- writes --------------------------------------------------------------
    def put(self, rec: ClusterHealth) -> bool:
        """Install ``rec`` if it is news (higher version); returns whether
        the view changed."""
        return self.merge((rec,)) == 1

    def merge(self, digest: Iterable[ClusterHealth]) -> int:
        """Merge a digest; returns how many records were news.

        The view's one merge loop (:meth:`put` merges one record): a
        record replaces the incumbent only with a higher version, and a
        new cluster drops the cached sorted order.
        """
        records = self._records
        down = ClusterState.DOWN
        changed = 0
        for rec in digest:
            cur = records.get(rec.cluster)
            if cur is None:
                self._order = None
            elif cur.version >= rec.version:
                continue
            elif cur.state is down and rec.state is not down:
                self.readmissions += 1
            records[rec.cluster] = rec
            changed += 1
        return changed

    def mark_down(self, cluster: str) -> None:
        """Direct evidence of a dead member (e.g. the front door's own
        failed contact): install a suspicion record immediately instead
        of waiting for neighbors to time the peer out."""
        cur = self._records.get(cluster)
        if cur is not None and cur.state is not ClusterState.DOWN:
            self._records[cluster] = cur.suspect_down()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{r.cluster}:{r.state.value}@v{r.version}"
                          for r in self.records())
        return f"<FleetView {parts}>"
