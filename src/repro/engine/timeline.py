"""Critical-path timeline (Figure 2) and per-component time accounting."""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ComponentTimes", "LaunchTimeline"]


class LaunchTimeline:
    """Ordered event-name -> virtual-time marks for one launch.

    The front end and the engine mark the paper's Figure 2 events e0-e7,
    e10 and e11 (``e0_client_call`` ... ``e11_returned``). The fabric
    set-up between them (e8-e9) runs inside the daemons and reaches the
    front end only as the master's reported ``t_setup``.
    """

    def __init__(self) -> None:
        self.marks: dict[str, float] = {}

    def mark(self, name: str, t: float) -> None:
        self.marks[name] = t

    def span(self, a: str, b: str) -> float:
        """T(a, b): duration between two recorded marks."""
        return self.marks[b] - self.marks[a]

    def total(self) -> float:
        """T(e0, e11): the whole critical path."""
        return self.span("e0_client_call", "e11_returned")


@dataclass
class ComponentTimes:
    """Per-contributor decomposition of one launchAndSpawn/attachAndSpawn.

    Fields map onto the paper's model: Region A = ``t_job + t_daemon +
    t_setup + t_collective + t_trace``; Region B = ``t_rpdtab``; Region C =
    ``t_handshake``; everything else is scale-independent ``t_other``.
    """

    t_job: float = 0.0          # T(job): spawning the application tasks
    t_daemon: float = 0.0       # T(daemon): spawning the tool daemons
    t_setup: float = 0.0        # T(setup): inter-daemon fabric wireup
    t_collective: float = 0.0   # T(collective): handshake bcast/gather/scatter
    t_trace: float = 0.0        # tracing the RM process (engine handlers)
    t_rpdtab: float = 0.0       # Region B: fetching the RPDTAB
    t_handshake: float = 0.0    # Region C: FE<->master handshake processing
    t_other: float = 0.0        # remaining scale-independent LaunchMON costs
    total: float = 0.0

    def rm_time(self) -> float:
        """Region A's RM-dominated share."""
        return self.t_job + self.t_daemon + self.t_setup + self.t_collective

    def launchmon_time(self) -> float:
        """LaunchMON's own contribution (the paper's ~5.2% at 128 nodes)."""
        return self.t_trace + self.t_rpdtab + self.t_handshake + self.t_other

    def launchmon_fraction(self) -> float:
        return self.launchmon_time() / self.total if self.total else 0.0

    def close_books(self) -> None:
        """Assign any unattributed time to ``t_other``."""
        accounted = (self.rm_time() + self.t_trace + self.t_rpdtab
                     + self.t_handshake + self.t_other)
        slack = self.total - accounted
        if slack > 0:
            self.t_other += slack

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
