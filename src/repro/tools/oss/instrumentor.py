"""O|SS Instrumentor variants: DPCL-based vs LaunchMON-based APAI access.

Table 1 measures the time from initiating a performance experiment to O|SS
holding the complete APAI information (the proctable). Both paths end with
the same data; they differ in how they treat the RM process:

* :class:`DpclInstrumentor` -- the original: connect to the (preinstalled,
  root) super daemon on the front end, *fully parse the srun binary*, then
  walk the proctable through the instrumentation interface. The parse is a
  large constant; a small per-node term covers daemon connections.
* :class:`LaunchmonInstrumentor` -- the replacement: LaunchMON attaches to
  the launcher as a debugger and reads exactly the RPDTAB, then hands the
  table to the DPCL startup routines, whose daemons the front end now
  starts itself (no root daemons, no manual launch, no completion-checking
  by the user).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.cluster import Cluster
from repro.mpir import MPIR_DEBUG_STATE, RPDTAB, TracedProcess
from repro.rm.base import ResourceManager, RMJob
from repro.tools.oss.dpcl import (
    DpclInfrastructure,
    RM_BINARY_PARSE_MB,
)

__all__ = ["ApaiAccessResult", "DpclInstrumentor", "LaunchmonInstrumentor"]


@dataclass
class ApaiAccessResult:
    """Outcome of one APAI acquisition (a Table 1 cell)."""

    mechanism: str
    n_nodes: int
    n_tasks: int
    t_access: float
    proctable: RPDTAB
    used_root_daemons: bool


class DpclInstrumentor:
    """The original O|SS acquisition path over DPCL."""

    def __init__(self, cluster: Cluster, dpcl: DpclInfrastructure):
        self.cluster = cluster
        self.dpcl = dpcl
        self.sim = cluster.sim

    def acquire_apai(self, job: RMJob) -> Generator[Any, Any, ApaiAccessResult]:
        sim = self.sim
        t0 = sim.now
        # connect to the front-end node's persistent root daemon
        yield from self.dpcl.connect(self.cluster.front_end)
        # DPCL treats the RM process like any target: full binary parse
        yield from self.dpcl.prepare_process(
            job.launcher, parse_mb=RM_BINARY_PARSE_MB)
        # then walk the proctable through the instrumentation interface
        # (per-entry remote reads, like a debugger but via dpcld RPCs)
        table = job.launcher.memory.get("MPIR_proctable", [])
        per_entry = 3 * self.cluster.costs.ptrace_word_read * 2  # RPC x2
        yield sim.timeout(per_entry * len(table))
        # per-node daemon connection bookkeeping (the small slope in Table 1)
        n_nodes = len(job.hosts)
        yield sim.timeout(0.028 * n_nodes)
        proctable = RPDTAB(table)
        return ApaiAccessResult(
            mechanism="dpcl", n_nodes=n_nodes, n_tasks=len(proctable),
            t_access=sim.now - t0, proctable=proctable,
            used_root_daemons=True)


class LaunchmonInstrumentor:
    """The LaunchMON-based replacement Instrumentor."""

    def __init__(self, cluster: Cluster, rm: ResourceManager):
        self.cluster = cluster
        self.rm = rm
        self.sim = cluster.sim

    def acquire_apai(self, job: RMJob) -> Generator[Any, Any, ApaiAccessResult]:
        sim = self.sim
        t0 = sim.now
        # LaunchMON engine process + debugger-style attach to the launcher
        engine_proc = yield from self.cluster.front_end.fork_exec(
            "launchmon-engine", image_mb=3.0)
        tracer = TracedProcess(job.launcher, "oss-lmon")
        yield from tracer.attach()
        state = yield from tracer.read_symbol(MPIR_DEBUG_STATE)
        assert state is not None
        # fixed engine startup/handshake budget (~0.5 s measured in Table 1)
        yield sim.timeout(0.55)
        proctable = yield from tracer.read_proctable()
        yield from tracer.detach()
        engine_proc.exit(0)
        return ApaiAccessResult(
            mechanism="launchmon", n_nodes=len(job.hosts),
            n_tasks=len(proctable), t_access=sim.now - t0,
            proctable=proctable, used_root_daemons=False)
