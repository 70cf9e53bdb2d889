"""The common launch report: one per-phase timing breakdown for every path.

Every launch mechanism in the repo -- ad-hoc rsh loops, tree fan-out rsh,
the RM's native bulk daemon launch, and the TBON startup paths built on all
three -- reports its cost through the same :class:`LaunchReport`, so
experiments can attribute scaling loss to a specific phase (ScalAna-style)
instead of comparing opaque totals:

``t_spawn``
    process creation: rsh connections / RM protocol / fork+exec.
``t_image_stage``
    moving executable images to the nodes (shared-FS reads, cache hits,
    cooperative broadcast) -- the paper's dominant term for heavyweight
    daemons.
``t_topo_dist``
    distributing topology/placement information to the daemons.
``t_connect``
    daemons connecting to their tree parents.
``t_handshake``
    per-daemon stream/port handshakes at the front end.
``t_repair``
    recovering from failures: TBON subtree reparenting after an internal
    node death (see :meth:`repro.tbon.Overlay.repair`).

Failure attribution
-------------------
Every launch records a **per-index outcome** for each daemon it attempted,
so a partial launch is attributed, not guessed: ``outcomes[i]`` is
``"ok"``, ``"failed"`` (spawn attempts exhausted), ``"skipped"`` (the node
was already blacklisted) or ``"lost"`` (spawned, but the daemon died
before the set assembled -- a node crash between fork and fabric wireup);
``retries[i]`` counts the extra attempts index ``i`` needed;
``blacklisted`` lists nodes this launch condemned; ``failure`` holds the
first exhausted failure's message. A launch that stopped at its first
failure leaves the indices it never attempted without an outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LaunchReport", "PHASES"]

#: the per-phase fields of a report, in critical-path order
PHASES = ("t_spawn", "t_image_stage", "t_topo_dist", "t_connect",
          "t_handshake", "t_repair")


@dataclass
class LaunchReport:
    """Timing decomposition of one daemon launch (any mechanism).

    ``total`` is the caller-observed wall time; the phases need not sum to
    it exactly (phases can overlap -- e.g. serialized shared-FS image loads
    interleaved with a sequential spawn loop are *attributed* to
    ``t_image_stage`` out of the spawn window). ``requested`` vs
    ``n_daemons`` tells whether the launch was partial; the per-index
    ``outcomes``/``retries``/``blacklisted`` fields say exactly which
    daemons failed, how hard they were retried, and which nodes were
    condemned.
    """

    mechanism: str
    n_daemons: int
    requested: int = 0
    t_spawn: float = 0.0
    t_image_stage: float = 0.0
    t_topo_dist: float = 0.0
    t_connect: float = 0.0
    t_handshake: float = 0.0
    t_repair: float = 0.0
    total: float = 0.0
    fe_procs_peak: int = 0
    staging_mode: str = "shared-fs"
    #: the first exhausted spawn failure ("" when none)
    failure: str = ""
    #: per-index outcome: "ok" / "failed" / "skipped" / "lost"
    #: (see the module docstring for the vocabulary)
    outcomes: dict = field(default_factory=dict)
    #: per-index count of extra spawn attempts beyond the first
    retries: dict = field(default_factory=dict)
    #: node names this launch blacklisted (retries exhausted)
    blacklisted: list = field(default_factory=list)
    #: daemons this launch *models*: simulated daemons plus every leaf
    #: covered by an aggregate subtree (== n_daemons on non-hybrid runs
    #: once set; 0 means "not a hybrid-aware path")
    n_virtual_daemons: int = 0
    #: one ``(label, phases_dict)`` per aggregate subtree folded into the
    #: phase fields (hybrid launches; see :meth:`fold_aggregate`)
    aggregate_accounts: list = field(default_factory=list)

    # -- failure accounting ---------------------------------------------------
    @property
    def n_failed(self) -> int:
        """Daemon indices with no live daemon in the final set: spawn
        failed, skipped (blacklisted node), or lost after spawning."""
        return sum(1 for v in self.outcomes.values() if v != "ok")

    @property
    def n_retried(self) -> int:
        """Total extra spawn attempts across all indices."""
        return sum(self.retries.values())

    @property
    def n_blacklisted(self) -> int:
        return len(self.blacklisted)

    def failed_indices(self) -> list:
        """Indices (into the request's node list) with no live daemon in
        the final set -- including ``"lost"`` indices whose daemon *did*
        fork but died before the set assembled; check ``outcomes[i]`` to
        distinguish never-spawned from spawned-then-lost."""
        return sorted(i for i, v in self.outcomes.items() if v != "ok")

    def phases(self) -> dict:
        """The per-phase breakdown as an ordered name -> seconds dict."""
        return {name: getattr(self, name) for name in PHASES}

    def fold_aggregate(self, label: str, phases: dict) -> None:
        """Fold one aggregate subtree's analytic phase charges into this
        report (hybrid tier): each named phase and the total grow by the
        modeled seconds, and the charge is kept in
        ``aggregate_accounts`` so virtual and simulated time stay
        separable."""
        for name, seconds in phases.items():
            if name not in PHASES:
                raise ValueError(f"unknown launch phase {name!r}")
            setattr(self, name, getattr(self, name) + seconds)
            self.total += seconds
        self.aggregate_accounts.append((label, dict(phases)))

    def dominant_phase(self) -> str:
        """Name of the costliest phase (scaling-loss attribution)."""
        return max(PHASES, key=lambda name: getattr(self, name))

    def as_dict(self) -> dict:
        return {
            "mechanism": self.mechanism, "n_daemons": self.n_daemons,
            "t_spawn": self.t_spawn, "t_image_stage": self.t_image_stage,
            "t_topo_dist": self.t_topo_dist, "t_connect": self.t_connect,
            "t_handshake": self.t_handshake, "t_repair": self.t_repair,
            "total": self.total,
            "fe_procs_peak": self.fe_procs_peak,
            "staging_mode": self.staging_mode,
            "requested": self.requested,
            "n_failed": self.n_failed, "n_retried": self.n_retried,
            "blacklisted": list(self.blacklisted),
            "n_virtual_daemons": self.n_virtual_daemons or self.n_daemons,
        }
