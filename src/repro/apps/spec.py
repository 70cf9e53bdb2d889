"""Abstract MPI application descriptions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster.process import ProcState, SimProcess

__all__ = ["AppSpec", "RankBehavior", "uniform_behavior"]


@dataclass(frozen=True)
class RankBehavior:
    """The observable state of one MPI rank while the tool examines it.

    ``call_stack`` is outermost-first (``_start`` .. innermost frame); STAT
    samples it. The remaining fields populate /proc for Jobsnap.
    """

    call_stack: tuple[str, ...] = ("_start", "main", "do_work", "MPI_Barrier")
    state: ProcState = ProcState.SLEEPING
    num_threads: int = 1
    vm_hwm_kb: int = 120_000
    vm_rss_kb: int = 96_000
    vm_lck_kb: int = 0
    utime: float = 10.0
    stime: float = 0.5
    maj_flt: int = 12
    program_counter: int = 0x400a00


def uniform_behavior(stack: tuple[str, ...] = ("_start", "main", "do_work",
                                               "MPI_Barrier"),
                     **overrides) -> Callable[[int], RankBehavior]:
    """A behaviour function giving every rank the same profile."""
    base = RankBehavior(call_stack=stack, **overrides)
    return lambda rank: base


@dataclass(frozen=True)
class AppSpec:
    """A parallel program to be launched by a resource manager.

    ``behavior(rank)`` returns the :class:`RankBehavior` each task exhibits
    once running. ``image_mb`` feeds the shared-filesystem load model.
    """

    executable: str
    n_tasks: int
    tasks_per_node: int = 8
    image_mb: float = 8.0
    behavior: Callable[[int], RankBehavior] = uniform_behavior()
    name: str = ""

    def nodes_needed(self) -> int:
        """Number of compute nodes this app occupies."""
        return -(-self.n_tasks // self.tasks_per_node)  # ceil division

    def apply_behavior(self, proc: SimProcess, rank: int) -> None:
        """Imprint rank behaviour onto a freshly launched task process."""
        b = self.behavior(rank)
        proc.set_stack(b.call_stack)  # a tuple: shared, not copied
        proc.state = b.state
        stats = proc.stats
        stats.num_threads = b.num_threads
        stats.vm_hwm_kb = b.vm_hwm_kb
        stats.vm_rss_kb = b.vm_rss_kb
        stats.vm_size_kb = b.vm_hwm_kb
        stats.vm_lck_kb = b.vm_lck_kb
        stats.utime = b.utime
        stats.stime = b.stime
        stats.maj_flt = b.maj_flt
        stats.program_counter = b.program_counter
