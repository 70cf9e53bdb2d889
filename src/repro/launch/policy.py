"""LaunchPolicy: the resilience knobs a launch (or a whole RM) runs under.

The fault model (:mod:`repro.cluster.faults`) makes daemons die, stall and
straggle; this policy is the recovery structure that survives them --
designed into the launch layer per the "Scaling Reliably" argument (see
PAPERS.md), not bolted on by callers:

* **per-daemon timeout** -- a spawn attempt (image load + fork/rsh) that
  exceeds ``per_daemon_timeout`` is interrupted and counted as a failure
  (catches stragglers and FS stalls, which never return an error on their
  own);
* **bounded retry with backoff** -- each failed attempt is retried up to
  ``max_retries`` times, sleeping ``retry_backoff * 2**k`` between attempts
  (rides out transient rsh/link faults);
* **node blacklisting** -- a node whose retries are exhausted is added to
  the shared blacklist: later spawns skip it instantly and the resource
  manager never allocates it again within the session
  (:meth:`~repro.rm.base.ResourceManager.free_nodes`);
* **min-daemon fraction** -- the session-level verdict: a partial daemon
  set with at least ``ceil(min_daemon_fraction * requested)`` survivors
  proceeds in the ``DEGRADED`` session state; below it the launch raises
  and the session lands in ``FAILED`` with its nodes reclaimed;
* **handshake timeout** -- bounds the FE<->master-BE handshake so a daemon
  killed mid-handshake fails the session instead of hanging it forever
  (``0`` = wait forever, the classic behaviour).

The all-defaults policy (``LaunchPolicy()``) is *not* the same as no policy:
it still demands a complete daemon set (min fraction 1.0) but launches
past failures (``on_failure="continue"``), so every index is attempted
and attributed before the verdict. ``ResourceManager(policy=None)`` -- the
default everywhere -- spawns each daemon once and stops at the first
failure (``rm-bulk`` aborts the set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LaunchPolicy"]


@dataclass(frozen=True)
class LaunchPolicy:
    """Resilience policy for daemon launches (see module docstring)."""

    #: interrupt a single daemon's spawn attempt after this many virtual
    #: seconds (0 = no per-daemon timeout)
    per_daemon_timeout: float = 0.0
    #: extra spawn attempts per daemon after the first fails
    max_retries: int = 1
    #: base backoff between attempts; doubles per retry (exponential)
    retry_backoff: float = 0.05
    #: proceed (DEGRADED) when at least this fraction of daemons came up
    min_daemon_fraction: float = 1.0
    #: condemn nodes whose retries are exhausted (skip + never re-allocate)
    blacklist_nodes: bool = True
    #: bound the FE<->master-BE handshake (0 = wait forever, classic)
    handshake_timeout: float = 0.0

    def min_daemons(self, requested: int) -> int:
        """Smallest acceptable daemon count for a ``requested``-wide set."""
        return max(1, math.ceil(self.min_daemon_fraction * requested))
