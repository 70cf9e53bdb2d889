"""Run-end audit: the one place that decides what counts as a leak or a
double allocation.

LaunchMON places tool daemons through the resource manager, so every
tier built on top of it (ctl restarts, fleet failover and fencing) is
correct only if it hands each node back to that RM's ledger. Each check
here recounts from ground truth -- the RM's allocated nodes, request
queue and free index against the cluster's nodes; the fleet's sessions,
fence floors and placement epochs -- and returns :class:`Violation`
records. An empty list is a clean run.

The checks read the objects they are handed by attribute and import no
other ``repro`` package, so any harness can call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, List, Optional

__all__ = ["Violation", "fleet_violations", "ledger_violations", "total"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the check's name, where it broke, and by how
    many units (nodes, requests, sessions or fences)."""

    check: str
    where: str
    n: int


def _found(where: str, *counts: tuple) -> List[Violation]:
    return [Violation(check, where, n) for check, n in counts if n]


def ledger_violations(rm: Any, where: str = "",
                      owned: Optional[AbstractSet[str]] = None
                      ) -> List[Violation]:
    """Recount one RM's ledger.

    Mid-run, ``owned`` names the nodes that live sessions hold, and any
    other allocated node is ``leaked-nodes``. After teardown
    (``owned=None``) every allocated node is leaked, a waiting request is
    ``queued-requests``, and ``free-index`` counts the nodes on which the
    RM's free index and the cluster disagree about grantability (up, not
    blacklisted, not allocated).
    """
    allocated = rm.allocated_node_names
    if owned is not None:
        return _found(where, ("leaked-nodes", len(allocated - owned)))
    grantable = {node.name for node in rm.cluster.compute
                 if not node.failed and node.name not in rm.node_blacklist
                 and node.name not in allocated}
    indexed = {node.name for node in rm.free_nodes()}
    return _found(where, ("leaked-nodes", len(allocated)),
                  ("queued-requests", rm.queued_requests),
                  ("free-index", len(indexed ^ grantable)))


def fleet_violations(fleet: Any) -> List[Violation]:
    """Recount a drained fleet.

    Per member: its RM ledger after teardown, ``unfinished-sessions``,
    and ``stale-live-sessions`` still running below a fence floor. At the
    front door: ``unfinished-requests`` and ``undelivered-fences``; per
    request, ``epoch-fence`` when its placement epoch is not the number
    of attempts it fenced, and ``live-abandoned`` for each session it
    left behind that is still running.
    """
    found: List[Violation] = []
    for member in fleet.members:
        found += ledger_violations(member.rm, member.name)
        found += _found(
            member.name,
            ("unfinished-sessions",
             sum(1 for h in member.service.handles if not h.done)),
            ("stale-live-sessions", member.stale_live_sessions()))
    door = fleet.door
    found += _found(
        door.name,
        ("unfinished-requests", sum(1 for h in door.handles if not h.done)),
        ("undelivered-fences", door.pending_fences))
    for handle in door.handles:
        found += _found(
            f"request {handle.id}",
            ("epoch-fence", int(handle.epoch != len(handle.fenced_attempts))),
            ("live-abandoned",
             sum(1 for s in handle.abandoned_sessions if not s.done)))
    return found


def total(violations: List[Violation], *checks: str) -> int:
    """Units of ``violations`` found by any of ``checks``."""
    return sum(v.n for v in violations if v.check in checks)
