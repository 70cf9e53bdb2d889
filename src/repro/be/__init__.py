"""repro.be -- the LaunchMON back-end API, the daemon runtime and the ICCL.

Back-end daemons are co-located with application tasks. This package gives
the tool writer the Section 3.3 API surface:

* :class:`BackEnd` -- per-daemon runtime: ``init`` (handshake: fabric
  wireup, daemon-info gather, proctable distribution), ``ready``, master
  predicate/rank/size accessors, user-data send/recv to the front end, and
  ``finalize``, most of it in :class:`~repro.be.runtime.DaemonRuntime`,
  which middleware daemons run too; :class:`BEContext` is what the RM
  hands each launched daemon, back end or middleware;
* **ICCL** (:mod:`repro.be.iccl`) -- the Internal Collective Communication
  Layer: barrier, broadcast, gather and scatter over the RM-provided fabric,
  on flat or binomial-tree topologies. As in the paper these are the minimal
  services needed for daemon launching, exposed for general tool use but not
  intended to replace a full TBON.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.be.iccl": ("ICCLEndpoint", "ICCLError", "ICCLFabric",
                      "TreeTopology"),
    "repro.be.context": ("BEContext",),
    "repro.be.runtime": ("BackEnd", "minimal_daemon"),
})

__all__ = [
    "BEContext",
    "BackEnd",
    "ICCLEndpoint",
    "ICCLError",
    "ICCLFabric",
    "TreeTopology",
    "minimal_daemon",
]
