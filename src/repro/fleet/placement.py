"""The fleet's placement rule: route each request to the least-loaded member.

The rule reads the front door's **gossiped view** (a
:class:`~repro.fleet.health.FleetView`), never simulator ground truth --
a stale view routing a request to a cluster that just crashed is exactly
the case the failover path exists for.

:func:`least_loaded` picks the routable member outside the exclusions
with the lowest ``(queued, utilization, in_flight, name)``; a *shunned*
member (saturated: no free nodes or an RM queue formed; or DEGRADED) is
chosen only when every candidate is shunned -- requests go somewhere
rather than nowhere. The name tail makes the order total, so the choice
is a pure function of (view, exclusions): the determinism the sweep
engine's byte-identical ``--jobs`` contract rides on.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.fleet.health import ClusterHealth, FleetView

__all__ = ["least_loaded"]


def _load_score(rec: ClusterHealth) -> tuple:
    """Lower is less loaded; the name tail makes ordering total."""
    utilization = (1.0 - rec.n_free / rec.n_total) if rec.n_total else 1.0
    return (rec.queued, utilization, rec.in_flight, rec.cluster)


def least_loaded(view: FleetView,
                 exclude: Iterable[str] = ()) -> Optional[str]:
    """The least-loaded routable member outside ``exclude``, preferring
    members that are not shunned; None when no routable member remains
    (the front door reports the fleet unavailable)."""
    banned = set(exclude)
    candidates = [r for r in view.routable() if r.cluster not in banned]
    if not candidates:
        return None
    healthy = [r for r in candidates if not r.shunned]
    return min(healthy or candidates, key=_load_score).cluster
