"""repro.cluster -- simulated HPC cluster substrate.

The paper's experiments ran on Atlas, an 1152-node SLURM Linux cluster. We
reproduce the substrate as a deterministic discrete-event model:

* :class:`Node` -- a host with a bounded process table, fork/exec costs, and
  optional remote-access service (rshd); fork failure beyond the table bound
  reproduces the ad-hoc launcher failure mode at scale (paper Section 5.2).
* :class:`SimProcess` + :mod:`repro.cluster.procfs` -- simulated processes
  with the /proc-style statistics Jobsnap collects (state, PC, threads,
  VmHWM, VmLck, utime/stime, major faults).
* :class:`Network` -- latency + bandwidth message timing, TCP connect costs,
  duplex :class:`Pipe` construction between nodes.
* :class:`SharedFilesystem` -- the image storage layer: a contended
  parallel-FS model (loading a daemon's executable image serializes on FS
  bandwidth, reproducing the binary-loading storms that dominate heavyweight
  tool daemon startup) plus per-node image caches and cooperative broadcast
  staging (``ClusterSpec.staging_mode``).
* :class:`Cluster` -- front-end node + compute nodes + network, built from a
  :class:`ClusterSpec`.
* :mod:`repro.cluster.faults` -- the fault model: a :class:`FaultPlan` on
  the spec schedules node crashes, straggler slow-downs, transient
  rsh/link failures and shared-FS stall windows as simulation events, with
  per-fault statistics (``cluster.faults.stats``). Every cluster carries
  an injector; without a plan it runs the empty one, which schedules
  nothing and draws nothing.
* :mod:`repro.cluster.netfaults` -- the fleet's network weather: a
  :class:`NetFaultPlan` of partitions, dead or flapping links and gossip
  loss, delay and duplication, in gossip rounds, which a
  :class:`NetFaultInjector` turns into per-round verdicts for the mesh.

All timing constants live in :class:`CostModel` (see ``costs.py``) and are
calibrated against the paper's measured curves; DESIGN.md Section 2 records
each substitution.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.cluster.costs": ("CostModel",),
    "repro.cluster.process": ("SimProcess", "DebugEvent", "DebugEventType"),
    "repro.cluster.node": ("ForkError", "Node", "NodeDown",
                           "NodeTaggedError", "RemoteExecError"),
    "repro.cluster.network": ("Network",),
    "repro.cluster.faults": ("FaultInjector", "FaultPlan", "FaultStats",
                             "FsStall", "LinkFlap", "NodeCrash", "Straggler"),
    "repro.cluster.netfaults": (
        "FlappingLink", "GossipDelay", "GossipDup", "GossipLoss",
        "NetFaultInjector", "NetFaultPlan", "NetFaultStats", "NetLinkDown",
        "NetPartition"),
    "repro.cluster.cluster": ("Cluster", "ClusterSpec", "STAGING_MODES",
                              "SharedFilesystem", "StagingError"),
    "repro.cluster": ("procfs",),
})

__all__ = [
    "Cluster",
    "ClusterSpec",
    "CostModel",
    "STAGING_MODES",
    "StagingError",
    "DebugEvent",
    "DebugEventType",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FlappingLink",
    "ForkError",
    "FsStall",
    "GossipDelay",
    "GossipDup",
    "GossipLoss",
    "LinkFlap",
    "NetFaultInjector",
    "NetFaultPlan",
    "NetFaultStats",
    "NetLinkDown",
    "NetPartition",
    "Network",
    "Node",
    "NodeCrash",
    "NodeDown",
    "NodeTaggedError",
    "RemoteExecError",
    "SharedFilesystem",
    "SimProcess",
    "Straggler",
    "procfs",
]
