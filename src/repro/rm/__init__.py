"""repro.rm -- resource managers: job launch, daemon launch, APAI, fabric.

The paper's central observation is that modern RMs already own the scalable
machinery tools need: native tree-based launchers, an MPIR/APAI debug
interface, and a wired-up communication fabric. This package models that
machinery for three platform archetypes:

* :class:`SlurmRM` -- Atlas's SLURM: fan-out tree launch, per-node
  controller bookkeeping, a PMI-style fabric, and a *well-designed* debug
  event stream whose event count does not grow with scale (the paper credits
  interactions with SLURM developers for this property). A ``legacy_events``
  switch restores per-task events for the ablation study.
* :class:`BglMpirunRM` -- BlueGene/L's mpirun: same protocol shape but with
  significantly costlier T(job)/T(daemon), as Section 4 reports.
* :class:`RshRM` -- a bare cluster with no native daemon-launch service:
  ``spawn_daemons`` raises :class:`UnsupportedOperation`, which is exactly
  why ad-hoc rsh launching persists (Section 2) and what LaunchMON abstracts
  away.

Every capable RM spawns daemon sets through the unified launch layer
(:meth:`ResourceManager._launch_daemon_procs`; ``launch_strategy`` selects
``rm-bulk`` -- the default, Section 3.1's efficient path -- or an rsh
strategy for ad-hoc platforms and the resilience sweep). A spawn's
per-phase :class:`~repro.launch.LaunchReport` has one home: the job it
spawned into (``RMJob.daemon_spawn_report``, filed before the set is
judged), or the ``(daemons, fabric, report)`` that ``spawn_on_allocation``
returns. With a :class:`~repro.launch.LaunchPolicy` set, spawns run under its
timeout / bounded retry / blacklisting and launch past failures (the
partial set is judged by ``min_daemon_fraction``), ``node_blacklist``
holds the condemned nodes, and ``free_nodes()`` refuses to re-allocate
them -- or any crashed node -- for the rest of the session.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.rm.base": ("Allocation", "AllocationError", "DaemonSpec",
                      "JobState", "LaunchedDaemon", "ResourceManager",
                      "RMError", "RMJob", "UnsupportedOperation"),
    "repro.rm.slurm": ("SlurmConfig", "SlurmRM"),
    "repro.rm.bgl": ("BglMpirunRM",),
    "repro.rm.rsh": ("RshRM",),
})

__all__ = [
    "Allocation",
    "AllocationError",
    "BglMpirunRM",
    "DaemonSpec",
    "JobState",
    "LaunchedDaemon",
    "RMError",
    "RMJob",
    "ResourceManager",
    "RshRM",
    "SlurmConfig",
    "SlurmRM",
    "UnsupportedOperation",
]
