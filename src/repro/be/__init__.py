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

from repro.be.iccl import ICCLEndpoint, ICCLError, ICCLFabric, TreeTopology
from repro.be.context import BEContext
from repro.be.runtime import BackEnd, minimal_daemon

__all__ = [
    "BEContext",
    "BackEnd",
    "ICCLEndpoint",
    "ICCLError",
    "ICCLFabric",
    "TreeTopology",
    "minimal_daemon",
]
