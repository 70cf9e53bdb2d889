"""BlueGene/L-style resource manager (mpirun).

Section 4 reports that LaunchMON's own overheads were similar on BG/L but
the RM's T(job) and T(daemon) were *significantly higher* -- mpirun's
spawning services were slower, prompting work with IBM. We model that as
the same protocol with scaled cost constants (and no rshd on compute nodes,
the defining MPP restriction from Section 2). Allocation -- immediate or
queued via :meth:`~repro.rm.base.ResourceManager.allocate_async` -- follows
the base RM's FIFO discipline, and daemon spawning inherits SLURM's route
through the unified ``rm-bulk`` :class:`~repro.launch.LaunchStrategy`
(reports show up as ``rm-bulk(bgl-mpirun)``), so the scaled spawn costs land
in the same per-phase breakdown as every other platform's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.cluster import Cluster
from repro.rm.slurm import SlurmConfig, SlurmRM

__all__ = ["BglMpirunRM"]


#: How much slower BG/L's control system is at spawn-type operations.
BGL_SPAWN_FACTOR = 4.0


class BglMpirunRM(SlurmRM):
    """mpirun on BG/L: the same services, markedly costlier spawning."""

    name = "bgl-mpirun"

    def __init__(self, cluster: Cluster, config: Optional[SlurmConfig] = None,
                 seed: int = 7, **rm_kwargs: Any):
        base = config or SlurmConfig()
        scaled = replace(
            base,
            ctl_job_setup=base.ctl_job_setup * BGL_SPAWN_FACTOR,
            ctl_per_node_job=base.ctl_per_node_job * BGL_SPAWN_FACTOR,
            ctl_daemon_setup=base.ctl_daemon_setup * BGL_SPAWN_FACTOR,
            ctl_per_node_daemon=base.ctl_per_node_daemon * BGL_SPAWN_FACTOR,
            hop_cost=base.hop_cost * 2.0,
        )
        super().__init__(cluster, config=scaled, seed=seed, **rm_kwargs)

    def launcher_executable(self) -> str:
        return "mpirun"
